"""High-level archive API: create, open, mutate, validate, extract."""

from __future__ import annotations

import enum
import errno
import os
import stat
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from functools import cached_property, partial
from operator import attrgetter, itemgetter

from .container import (
    _PROBE,
    _SHARED_PATH,
    Container,
    ContainerEntry,
    _at,
    _write,
    open_container,
    write_container,
)
from .errors import (
    DanglingManifestEntry,
    DuplicateLocation,
    InvalidFormatUri,
    InvalidLocation,
    MissingManifest,
    NoSuchEntry,
    OmexError,
    ReservedLocation,
    UnsafePath,
)
from .formats import FormatKind, classify_format, format_for_filename
from .manifest import (
    MANIFEST_FILENAME,
    METADATA_FILENAME,
    OMEX_FORMAT_URI,
    OMEX_METADATA_FORMAT_URI,
    RESERVED_LOCATIONS,
    ContentEntry,
    Manifest,
    _Frozen,
    check_location,
    parse_manifest,
    serialize_manifest,
    validate_manifest_against,
)
from .report import Severity, ValidationReport

STRICT_ERRORS = frozenset({"unlisted-file", "invalid-format"})


class ValidationMode(enum.Enum):
    STRICT = "strict"
    LENIENT = "lenient"


class Archive(_Frozen):
    """An archive as a value: edits return new archives and leave this one as it was.

    `container` holds every member, manifest.xml and the metadata file
    included; an edit that changes the manifest or the metadata swaps in a
    member that writes it when its bytes are first read. `metadata` and
    `metadata_error` are what the file at `metadata_path` says, read on
    first use, one parse shared along an edit chain that keeps that file.
    `to_bytes` returns the archive's bytes; `write` writes the same bytes
    into a file, member by member.
    """
    _fields = ("container", "manifest")
    _origin = None  # the archive of its edit chain that parses the file, where _build kept it

    def __init__(self, container: Container, manifest: Manifest):
        object.__setattr__(self, "container", container)
        object.__setattr__(self, "manifest", manifest)

    @cached_property
    def metadata_path(self) -> str | None:
        """The manifest's omex-metadata entry wins; literal metadata.rdf is the fallback."""
        fallback = METADATA_FILENAME if METADATA_FILENAME in self.container else None
        return self.manifest.metadata_path or fallback

    @cached_property  # _build sets what it wrote
    def _metadata(self) -> tuple[MetadataSet | None, str | None]:
        """The one parse of the file at `metadata_path`, made by `_origin` or by this archive."""
        from .metadata import parse_metadata
        if self._origin is not None:
            return self._origin._metadata
        if self.metadata_path not in self.container:
            return None, None
        try:
            return parse_metadata(self.container.get(self.metadata_path)), None
        except OmexError as exc:
            return None, str(exc)

    @property
    def metadata(self) -> MetadataSet | None:
        return self._metadata[0]

    @property
    def metadata_error(self) -> str | None:
        return self._metadata[1]

    def to_bytes(self) -> bytes:
        return write_container(self.container)

    def write(self, file) -> None:
        """Write the bytes `to_bytes` returns into the binary file `file`,
        member by member, so they are never held whole. A member read from a
        file is copied from it 64 KiB at a time and checked as it passes, so
        that file must stay open until this returns; in `meta set` this is the
        only check of one longer than 64 KiB as stored. A new member longer
        than 64 KiB is written as it is read and deflated, 64 KiB at a time,
        and a seek back then patches its local header, so `file` must be
        seekable; one opened for appending, where every write lands at the
        end, raises ValueError before any byte is written, as does one whose
        descriptor was opened with O_APPEND where `fcntl` can tell."""
        try:  # a descriptor opened with O_APPEND may be wrapped in any mode
            import fcntl
            flags = fcntl.fcntl(file.fileno(), fcntl.F_GETFL)
        except (ImportError, AttributeError, OSError):  # Windows; no descriptor, as of BytesIO
            flags = 0
        if "a" in getattr(file, "mode", "") or flags & os.O_APPEND:
            raise ValueError("an archive cannot be written into a file opened for appending")
        _write(self.container, file.write, file.seek)


def default_creator() -> Creator:
    import getpass
    from .metadata import Creator
    try:
        user = getpass.getuser()
    except (KeyError, OSError):
        user = "unknown"
    return Creator(family_name=user)


def stamp_block(creator: Creator | None = None,
                created: Timestamp | None = None) -> DescriptionBlock:
    """An archive-level metadata block recording creation date and creator."""
    from .metadata import DescriptionBlock, Timestamp
    return DescriptionBlock(
        about=".",
        creators=[creator or default_creator()],
        created=created or Timestamp.now(),
    )


def _build(base: Archive, files=(), metadata: MetadataSet | None = None,
           remove: str | None = None) -> Archive:
    """Derive an archive from `base`: the one place the archive rules apply.

    Drops the entry `base` lists at path `remove` and its file (the
    metadata goes with its file), then adds `files`, pairs of a
    ContentEntry and its bytes or a function that makes its member from
    the entry's path, or writes `metadata`, never both: the
    metadata file replaces its member or is added, and is listed when the
    manifest does not list it. A manifest or metadata file the call
    changes is written when the archive's bytes are needed. Only what the
    call adds is checked: a path that is reserved, taken, or a file at
    one path and a directory at another is refused, and so is a format
    `classify_format` calls INVALID. The entries `base` lists are written
    back as read, after a `.` entry when they lack one. Nothing is
    counted, read or written anew that the call does not add or remove.
    """
    container = base.container.copy()
    manifest = base.manifest
    if manifest.find(".") is None:
        manifest = Manifest((ContentEntry(".", OMEX_FORMAT_URI), *manifest.entries))
    rdf = base.metadata_path
    if remove is not None:
        if remove in RESERVED_LOCATIONS:
            raise ReservedLocation(remove)
        if manifest.find(remove) is None:
            raise NoSuchEntry(remove)
        container.remove(remove)
        if remove == rdf:
            metadata = None

    added = []
    for entry, data in files:
        if entry.path in RESERVED_LOCATIONS:
            raise ReservedLocation(entry.path)
        if manifest.find(entry.path) is not None or entry.path in container:
            raise DuplicateLocation(entry.path)
        if classify_format(entry.format).kind is FormatKind.INVALID:
            raise InvalidFormatUri(entry.format)
        container.add(data(entry.path) if callable(data)
                      else ContainerEntry(entry.path, bytes(data)))
        added.append(entry)
    new = [entry.path for entry in added]
    if metadata is not None:
        from .metadata import serialize_metadata
        location = rdf or METADATA_FILENAME
        if location in container:
            container.remove(location)
        else:
            new.append(location)
        if manifest.find(location) is None:
            added.append(ContentEntry(location, OMEX_METADATA_FORMAT_URI))
        container.add(ContainerEntry(location, partial(serialize_metadata, metadata)))
    if added or remove is not None:
        manifest = manifest.edited(added, remove)
    if manifest is not base.manifest or MANIFEST_FILENAME not in container:
        if MANIFEST_FILENAME in container:  # no longer the manifest read
            container.remove(MANIFEST_FILENAME)
        container.add(ContainerEntry(MANIFEST_FILENAME, partial(serialize_manifest, manifest)))

    for path in new:
        if container.shares_path(path):
            raise InvalidLocation(path, _SHARED_PATH)
    archive = Archive(container, manifest)
    if metadata is not None:
        vars(archive)["_metadata"] = metadata, None
    elif archive.metadata_path == rdf:  # the same file: its one parse, made or not
        vars(archive)["_origin"] = base._origin or base
    return archive


def create_archive(files) -> Archive:
    """Build an archive from (location, format-URI, master, bytes) tuples.

    The `.` manifest entry is added automatically; `set_metadata` adds
    metadata.
    """
    entries = [(ContentEntry(location, format_uri, master or None), data)
               for location, format_uri, master, data in files]
    return _build(Archive(Container(), Manifest(())), entries)


# What an open keeps inflated: what the command reads whole next. Every open
# parses the manifest; validate, info and meta metadata.rdf too, the file this
# tool writes (one at another path is inflated again when parsed); unpack
# writes each member of at most 64 KiB whole, and a longer one in steps.
def _manifest(entry: ContainerEntry) -> bool:
    return entry.path == MANIFEST_FILENAME


def _documents(entry: ContainerEntry) -> bool:
    return entry.path in (MANIFEST_FILENAME, METADATA_FILENAME)


def _written(entry: ContainerEntry) -> bool:
    return entry.size <= _PROBE or entry.path == MANIFEST_FILENAME


def _open(data, keep, copied: bool = False) -> tuple[Archive, ValidationReport]:
    """Read an archive, bytes or a binary file, and check its manifest
    against its members: the one pipeline behind open and validate.

    Raises the first fatal OmexError (an unreadable container, a missing
    manifest, a manifest that fails to parse). The report holds what
    `validate_manifest_against` finds; its errors are the files the
    manifest lists and the container lacks.
    """
    container = open_container(data, _keep=keep, _copied=copied)
    if MANIFEST_FILENAME not in container:
        raise MissingManifest(
            f"every archive must contain {MANIFEST_FILENAME} at its root"
        )
    manifest = parse_manifest(container.get(MANIFEST_FILENAME))
    report = validate_manifest_against(manifest, set(container.paths()))
    return Archive(container, manifest), report


def open_archive(data, *, _keep=_manifest, _copied: bool = False) -> Archive:
    """Read an archive, bytes or a binary file open for reading that can
    seek, which the caller keeps open while it reads long members; succeeds
    exactly when lenient validation finds no errors.

    A listed file the container lacks is lenient validation's only error,
    so the manifest check alone decides, and no other rule runs. The
    metadata is parsed when first used; unreadable metadata leaves
    `Archive.metadata` None, and the reason in `metadata_error`, instead
    of failing the open. Only the manifest keeps the bytes its check
    inflated, unless the command names others by `_keep` (see open_container).
    """
    archive, report = _open(data, _keep, _copied)
    if report.errors:
        raise DanglingManifestEntry(report.errors[0].location)
    return archive


def validate_archive(
    data, mode: ValidationMode = ValidationMode.STRICT
) -> ValidationReport:
    """Full validation of an archive, bytes or a binary file as
    open_archive takes; never raises for a fault of the archive — all
    findings are report items — but lets out what reading a file raises.

    STRICT, or "strict", makes the findings of STRICT_ERRORS errors.
    """
    from .metadata import MetadataSet, check_minimum_information
    mode = ValidationMode(mode)
    try:
        archive, report = _open(data, _documents)
    except OmexError as exc:
        report = ValidationReport()
        report.error(exc.rule, exc.location, str(exc))
        return report
    if archive.manifest.find(".") is None:
        report.warning(
            "no-archive-entry", ".",
            "the manifest lacks the entry for the archive itself",
        )
    for entry in archive.manifest.entries:
        if classify_format(entry.format).kind is FormatKind.INVALID:
            report.warning("invalid-format", entry.path,
                           f"format URI is not recognized: {entry.format!r}")
    if archive.metadata_error is not None:
        report.warning("metadata-unreadable", archive.metadata_path, archive.metadata_error)
    for rule, path, reason in archive.container.clashes():
        report.warning(rule, path, reason)
    report.extend(check_minimum_information(archive.metadata or MetadataSet()))
    if mode is ValidationMode.STRICT:
        report.items = [f._replace(severity=Severity.ERROR) if f.rule in STRICT_ERRORS else f
                        for f in report.items]
    return report.sorted()


def add_entry(
    archive: Archive, location: str, format_uri: str, data: bytes,
    master: bool | None = None,
) -> Archive:
    return _build(archive, [(ContentEntry(location, format_uri, master), data)])


def remove_entry(archive: Archive, location: str) -> Archive:
    path = check_location(location)
    metadata = None
    if archive.metadata is not None and path in archive.metadata.blocks:
        # a new set, so the input archive's metadata stays as it was
        from dataclasses import replace
        blocks = {key: block for key, block in archive.metadata.blocks.items() if key != path}
        metadata = replace(archive.metadata, blocks=blocks)
    return _build(archive, metadata=metadata, remove=path)


def extract_all(archive: Archive, destination) -> list[Path]:
    """Write every container entry under `destination`, preserving paths,
    and return the files written, sorted.

    Each member whose `steps()` read the archive's file is first read,
    inflated and checked once into one temporary file in the nearest of
    `destination` and its parents that exists, so a corrupt one, or a file
    changed since the open, raises CorruptEntry before anything is made or
    changed; every target is checked, and an edited manifest or metadata file
    serialized, before the first file is written. `destination` is resolved,
    so links above it are followed; below it, each directory and file is
    opened through its parent's descriptor without following a link, and a
    link, a directory, a non-directory or other non-regular file in a target's
    way, or a file that other hard links share, raises UnsafePath naming the
    member before any byte of that file changes; members written before then
    stay. Where `os.open` or `os.mkdir` takes no directory descriptor, each
    target is resolved and refused if it lies outside `destination` before the
    first write, then opened by path, which follows a link swapped in after.
    """
    from pathlib import Path
    dest = Path(destination).resolve()
    long = [entry for entry in archive.container.entries if entry.reads_file()]
    if long:  # beside dest, which a refusal must not make
        import tempfile
        stage = tempfile.TemporaryFile(dir=next((p for p in (dest, *dest.parents) if p.is_dir()), dest))
    with stage if long else nullcontext():
        staged = {entry.path: _staged(stage, entry.steps()) for entry in long}
        clashes = archive.container.clashes()
        if clashes:
            _, path, reason = clashes[0]
            raise UnsafePath(path, reason)
        # segment order is sorted(Path) order, and brings each directory's members together
        members = sorted(((entry.path.split("/"), staged.get(entry.path) or entry.steps())
                          for entry in archive.container.entries), key=itemgetter(0))
        targets = [dest.joinpath(*parts) for parts, _ in members]
        if {os.open, os.mkdir} <= os.supports_dir_fd:
            dest.mkdir(parents=True, exist_ok=True)
            _write_below(dest, members)
            return targets
        for target, (parts, _) in zip(targets, members):
            # container invariants forbid traversal; keep a last-line check anyway
            if not target.resolve().is_relative_to(dest):
                raise UnsafePath("/".join(parts), "escapes the destination directory")
        dest.mkdir(parents=True, exist_ok=True)
        for target, (parts, steps) in zip(targets, members):
            target.parent.mkdir(parents=True, exist_ok=True)
            try:  # appends at 0 once _fill truncates it
                file = open(target, "ab",
                            opener=lambda path, flags: os.open(path, flags | _NONBLOCK))
            except OSError as exc:
                if exc.errno in _IN_THE_WAY:
                    raise UnsafePath("/".join(parts), _IN_THE_WAY[exc.errno]) from exc
                raise
            with file:
                _fill(parts, file.fileno(), steps)
        return targets


def _staged(file, steps: Iterable) -> Iterator[bytes]:
    """Append `steps` to `file`, and return what reads them back, 64 KiB at a time."""
    at = file.tell()
    file.writelines(steps)
    end = file.tell()
    return (_at(file, start, min(_PROBE, end - start)) for start in range(at, end, _PROBE))


# what an open with O_NOFOLLOW and, for a directory, O_DIRECTORY raises at a
# link or a non-directory: Linux gives ELOOP at a link and ENOTDIR at a
# non-directory, BSD kernels may give ENOTDIR at a link opened as a
# directory, and FreeBSD EMLINK at a link opened as a file
_NOT_FOLLOWED = frozenset({errno.ELOOP, errno.ENOTDIR, errno.EMLINK})
_NOT_REGULAR = "a FIFO or other non-regular file lies where its file goes"
# what the open of a member's file raises where something else lies in its way;
# with O_NONBLOCK a FIFO that no reader holds raises ENXIO instead of waiting
_IN_THE_WAY = {errno.EISDIR: "a directory lies where its file goes", errno.ENXIO: _NOT_REGULAR}
_NONBLOCK = getattr(os, "O_NONBLOCK", 0)
# a file of the tree is opened with O_BINARY, or Windows reads it as text
_READ = os.O_RDONLY | getattr(os, "O_BINARY", 0) | getattr(os, "O_NOFOLLOW", 0) | _NONBLOCK


def _fill(parts: list[str], fd: int, steps: Iterable) -> None:
    """Write `steps` over the file open for writing at `fd`, unless it is
    not a regular file or another hard link shares it: then raise UnsafePath
    naming the member at `parts` before any byte of the file changes."""
    status = os.fstat(fd)
    if not stat.S_ISREG(status.st_mode):
        raise UnsafePath("/".join(parts), _NOT_REGULAR)
    if status.st_nlink > 1:
        raise UnsafePath("/".join(parts), "other hard links share its file")
    if status.st_size:  # truncating a fresh file makes ext4 start its writeback at close
        os.ftruncate(fd, 0)
    for step in steps:
        view = memoryview(step)
        while view:
            view = view[os.write(fd, view):]


def _write_below(dest: Path, members: list[tuple[list[str], Iterable]]) -> None:
    """Write `members`, (path segments, steps) in segment order, under the
    directory `dest`, holding open only the descriptors of `dest` and of the
    directories from it down to the one being written."""
    chain = [os.open(dest, os.O_RDONLY | os.O_DIRECTORY | os.O_CLOEXEC)]
    names: list[str] = []  # the directories chain holds below dest

    def below(parts: list[str], name: str, flags: int) -> int:
        try:
            return os.open(name, flags | os.O_NOFOLLOW | os.O_CLOEXEC, 0o666, dir_fd=chain[-1])
        except OSError as exc:
            if exc.errno in _NOT_FOLLOWED:
                raise UnsafePath("/".join(parts),
                                 "a link or a non-directory lies in its way") from exc
            if exc.errno in _IN_THE_WAY:
                raise UnsafePath("/".join(parts), _IN_THE_WAY[exc.errno]) from exc
            raise

    try:
        for parts, steps in members:
            *directories, name = parts
            kept = len(os.path.commonprefix([names, directories]))  # leading segments shared
            while len(chain) > kept + 1:
                os.close(chain.pop())
            del names[kept:]
            for segment in directories[kept:]:
                try:
                    os.mkdir(segment, dir_fd=chain[-1])
                except FileExistsError:
                    pass
                chain.append(below(parts, segment, os.O_RDONLY | os.O_DIRECTORY))
                names.append(segment)
            fd = below(parts, name, os.O_WRONLY | os.O_CREAT | _NONBLOCK)  # _fill truncates
            try:
                _fill(parts, fd, steps)
            finally:
                os.close(fd)
    finally:
        for fd in chain:
            os.close(fd)


def set_metadata(archive: Archive, metadata: MetadataSet) -> Archive:
    """Replace the archive's metadata, creating metadata.rdf if needed."""
    return _build(archive, metadata=metadata)


def pack_directory(
    directory,
    masters: set[str] | None = None,
    format_overrides: dict[str, str] | None = None,
    stamp: bool = True,
    creator: Creator | None = None,
) -> Archive:
    """Create an archive from a directory tree.

    Formats default via format_for_filename; `masters` and the keys of
    `format_overrides` are locations of files in the tree, or NoSuchEntry
    is raised. A file name's `%` is written to its location as `%25`, so
    the location names the file. A root manifest.xml is ignored (it is
    regenerated). A link, FIFO, socket or device below `directory` raises
    UnsafePath naming its path in the tree, as extraction refuses a link; a
    directory that cannot be listed raises its OSError. The walk reads no
    file: each is read when the archive is written, and must then still be
    the file the walk saw, at the size it saw (see _TreeFile). `stamp` adds
    a creation block when the packed tree gives the archive no metadata file.
    """
    masters = {check_location(m) for m in (masters or set())}
    overrides = {check_location(k): v for k, v in (format_overrides or {}).items()}
    files = []
    paths = set()
    for file, rel, status in _walk(os.fspath(directory)):
        if not stat.S_ISREG(status.st_mode):
            raise UnsafePath(rel, "a link, FIFO, socket or device is not packed")
        if rel == MANIFEST_FILENAME:
            continue
        fmt = overrides.get(rel, format_for_filename(rel))
        files.append((rel.replace("%", "%25"), fmt, rel in masters,
                      partial(_TreeFile, file=file, status=status)))
        paths.add(rel)
    unknown = (masters | overrides.keys()) - paths
    if unknown:
        raise NoSuchEntry(sorted(unknown)[0])
    archive = create_archive(files)
    if stamp and archive.metadata_path is None:
        from .metadata import MetadataSet
        archive = set_metadata(archive, MetadataSet({".": stamp_block(creator)}))
    return archive


def _walk(top: str) -> Iterator[tuple[str, str, os.stat_result]]:
    """(path, path in the tree, lstat) of each non-directory below `top` in
    segment order, sorted(Path)'s on POSIX: a directory is listed once, its
    entries sorted by name, and entered at its place among them; a link to
    one is yielded. `os.lstat`, as `DirEntry.stat` gives Windows no inode.
    A stack of the directories entered, not recursion, so no depth is refused."""
    # (path in the tree of a directory entered, its entries not yet walked)
    stack = [("", iter(sorted(os.scandir(top), key=attrgetter("name"))))]  # closed when read
    while stack:
        prefix, entries = stack[-1]
        for entry in entries:
            status = os.lstat(entry.path)
            if stat.S_ISDIR(status.st_mode):  # walked before the entries after it
                stack.append((f"{prefix}{entry.name}/",
                              iter(sorted(os.scandir(entry.path), key=attrgetter("name")))))
                break
            yield entry.path, prefix + entry.name, status
        else:
            stack.pop()


# why a file of the tree is refused when it is written
_CHANGED = "the file changed after the tree was walked"


class _TreeFile(ContainerEntry):
    """A file of the tree pack_directory walks. It keeps only where it lies
    and the walk's lstat identity: device, inode and size, which is its
    `size`. It is read 64 KiB at a time when it is written, or whole when
    its `data` is read, reopened without following a link. A file that is
    no longer the one the walk saw, or that gives more or fewer bytes than
    its size, raises UnsafePath naming its path in the tree."""

    __slots__ = ("_file", "_identity")

    def __init__(self, path: str, file: str, status: os.stat_result):
        super().__init__(path, None)
        self._file, self._identity = file, (status.st_dev, status.st_ino, status.st_size)

    @property
    def size(self) -> int:
        return self._identity[2]

    def _pieces(self) -> Iterator[bytes]:
        try:
            fd = os.open(self._file, _READ)
        except OSError as exc:
            if exc.errno in _NOT_FOLLOWED or exc.errno in (errno.ENOENT, errno.EISDIR):
                raise UnsafePath(self.path, _CHANGED) from exc
            raise
        try:
            status = os.fstat(fd)
            if (status.st_dev, status.st_ino, status.st_size) != self._identity:
                raise UnsafePath(self.path, _CHANGED)
            done = 0
            while piece := os.read(fd, _PROBE):
                done += len(piece)
                if done > self.size:
                    raise UnsafePath(self.path, _CHANGED)
                yield piece
        finally:
            os.close(fd)
        if done < self.size:
            raise UnsafePath(self.path, _CHANGED)
