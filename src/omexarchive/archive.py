"""High-level archive API: create, open, mutate, validate, extract."""

from __future__ import annotations

import enum
import getpass
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path, PurePosixPath

from .container import _SHARED_PATH, Container, ContainerEntry, open_container, write_container
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
    check_location,
    parse_manifest,
    serialize_manifest,
    validate_manifest_against,
)
from .metadata import (
    Creator,
    DescriptionBlock,
    MetadataSet,
    Timestamp,
    check_minimum_information,
    parse_metadata,
    serialize_metadata,
)
from .report import Severity, ValidationReport

STRICT_ERRORS = frozenset({"unlisted-file", "invalid-format"})


class ValidationMode(enum.Enum):
    STRICT = "strict"
    LENIENT = "lenient"


@dataclass(frozen=True)
class Archive:
    """An archive as a value: edits return new archives and leave this one as it was.

    `container` holds every member, manifest.xml and the metadata file
    included; an edit that changes the manifest or the metadata swaps in a
    member that writes it when its bytes are first read. `metadata` and
    `metadata_error` are what the file at `metadata_path` says, read once.
    """
    container: Container
    manifest: Manifest

    @cached_property
    def metadata_path(self) -> str | None:
        """The manifest's omex-metadata entry wins; literal metadata.rdf is the fallback."""
        fallback = METADATA_FILENAME if METADATA_FILENAME in self.container else None
        return self.manifest.metadata_path or fallback

    @cached_property  # _build fills it with what it wrote or what its base read
    def _metadata(self) -> tuple[MetadataSet | None, str | None]:
        if self.metadata_path in self.container:
            try:
                return parse_metadata(self.container.get(self.metadata_path)), None
            except OmexError as exc:
                return None, str(exc)
        return None, None

    @property
    def metadata(self) -> MetadataSet | None:
        return self._metadata[0]

    @property
    def metadata_error(self) -> str | None:
        return self._metadata[1]

    def to_bytes(self) -> bytes:
        return write_container(self.container)


def default_creator() -> Creator:
    try:
        user = getpass.getuser()
    except (KeyError, OSError):
        user = "unknown"
    return Creator(family_name=user)


def stamp_block(creator: Creator | None = None,
                created: Timestamp | None = None) -> DescriptionBlock:
    """An archive-level metadata block recording creation date and creator."""
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
    ContentEntry and its bytes, or writes `metadata`, never both: the
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
        container.add(ContainerEntry(entry.path, bytes(data)))
        added.append(entry)
    new = [entry.path for entry in added]
    if metadata is not None:
        location = rdf or METADATA_FILENAME
        if location in container:
            container.remove(location)
        else:
            new.append(location)
        if manifest.find(location) is None:
            added.append(ContentEntry(location, OMEX_METADATA_FORMAT_URI))
        container.add(ContainerEntry(location, lambda: serialize_metadata(metadata)))
    if added or remove is not None:
        manifest = manifest.edited(added, remove)
    if manifest is not base.manifest or MANIFEST_FILENAME not in container:
        if MANIFEST_FILENAME in container:  # no longer the manifest read
            container.remove(MANIFEST_FILENAME)
        container.add(ContainerEntry(MANIFEST_FILENAME, lambda: serialize_manifest(manifest)))

    for path in new:
        if container.shares_path(path):
            raise InvalidLocation(path, _SHARED_PATH)
    archive = Archive(container, manifest)
    if metadata is not None:
        vars(archive)["_metadata"] = metadata, None
    elif "_metadata" in vars(base) and archive.metadata_path == rdf:  # the same file, read
        vars(archive)["_metadata"] = base._metadata
    return archive


def create_archive(files) -> Archive:
    """Build an archive from (location, format-URI, master, bytes) tuples.

    The `.` manifest entry is added automatically; `set_metadata` adds
    metadata.
    """
    entries = [(ContentEntry(location, format_uri, master or None), data)
               for location, format_uri, master, data in files]
    return _build(Archive(Container(), Manifest(())), entries)


def _load(data: bytes, strict: bool) -> tuple[Archive, ValidationReport]:
    """Read and check an archive: the one pipeline behind open and validate.

    Raises the first fatal OmexError (an unreadable container, a missing
    manifest, a manifest that fails to parse); every other finding goes
    into the report. `strict` makes the findings of STRICT_ERRORS errors.
    """
    container = open_container(data)
    if MANIFEST_FILENAME not in container:
        raise MissingManifest(
            f"every archive must contain {MANIFEST_FILENAME} at its root"
        )
    manifest = parse_manifest(container.get(MANIFEST_FILENAME))

    report = validate_manifest_against(manifest, set(container.paths()))
    if manifest.find(".") is None:
        report.warning(
            "no-archive-entry", ".",
            "the manifest lacks the entry for the archive itself",
        )

    for entry in manifest.entries:
        if classify_format(entry.format).kind is FormatKind.INVALID:
            report.warning("invalid-format", entry.path,
                           f"format URI is not recognized: {entry.format!r}")

    archive = Archive(container, manifest)
    if archive.metadata_error is not None:
        report.warning("metadata-unreadable", archive.metadata_path, archive.metadata_error)
    for rule, path, reason in container.clashes():
        report.warning(rule, path, reason)
    report.extend(check_minimum_information(archive.metadata or MetadataSet()))
    if strict:
        report.items = [replace(f, severity=Severity.ERROR) if f.rule in STRICT_ERRORS else f
                        for f in report.items]
    return archive, report.sorted()


def open_archive(data: bytes) -> Archive:
    """Read an archive; succeeds exactly when lenient validation finds no errors.

    Unreadable metadata is a validation warning, so it leaves
    `Archive.metadata` as None, and the reason in `metadata_error`,
    instead of failing the open.
    """
    archive, report = _load(data, strict=False)
    if report.errors:
        raise DanglingManifestEntry(report.errors[0].location)
    return archive


def validate_archive(
    data: bytes, mode: ValidationMode = ValidationMode.STRICT
) -> ValidationReport:
    """Full validation; never raises — all findings are report items."""
    try:
        return _load(data, mode is ValidationMode.STRICT)[1]
    except OmexError as exc:
        report = ValidationReport()
        report.error(exc.rule, exc.location, str(exc))
        return report


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
        blocks = {key: block for key, block in archive.metadata.blocks.items() if key != path}
        metadata = replace(archive.metadata, blocks=blocks)
    return _build(archive, metadata=metadata, remove=path)


def extract_all(archive: Archive, destination) -> list[Path]:
    """Write every container entry under `destination`, preserving paths.

    Every target is checked before the first file is written.
    """
    dest = Path(destination).resolve()
    clashes = archive.container.clashes()
    if clashes:
        _, path, reason = clashes[0]
        raise UnsafePath(path, reason)
    targets = []
    for entry in archive.container.entries:
        target = dest.joinpath(*PurePosixPath(entry.path).parts)
        # container invariants forbid traversal; keep a last-line check anyway
        if not target.resolve().is_relative_to(dest):
            raise UnsafePath(entry.path, "escapes the destination directory")
        targets.append((target, entry.data))
    dest.mkdir(parents=True, exist_ok=True)
    for target, data in targets:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)
    return sorted(target for target, _ in targets)


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
    regenerated). `stamp` adds a creation block when the packed tree
    gives the archive no metadata file.
    """
    root = Path(directory)
    masters = {check_location(m) for m in (masters or set())}
    overrides = {check_location(k): v for k, v in (format_overrides or {}).items()}
    files = []
    paths = set()
    for file in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = file.relative_to(root).as_posix()
        if rel == MANIFEST_FILENAME:
            continue
        fmt = overrides.get(rel, format_for_filename(rel))
        files.append((rel.replace("%", "%25"), fmt, rel in masters, file.read_bytes()))
        paths.add(rel)
    unknown = (masters | overrides.keys()) - paths
    if unknown:
        raise NoSuchEntry(sorted(unknown)[0])
    archive = create_archive(files)
    if stamp and archive.metadata_path is None:
        metadata = MetadataSet()
        metadata.add(stamp_block(creator))
        archive = set_metadata(archive, metadata)
    return archive
