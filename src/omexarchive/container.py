"""Byte-level ZIP container access with deterministic serialization.

Entries are kept in memory. Reading goes through `zipfile`, which
inflates each member and checks its CRC-32; for a stored or deflated
member the container also keeps that member's compressed bytes, as a
view of the input, and its CRC. A member's declared range, its central
compressed size counted from the end of its local header, must end by
the next local header or the central directory: members that overlap,
as in zip bombs, are refused on every interpreter, where `zipfile`
refuses them only from Python 3.13 on. Writing emits the ZIP itself with fixed
timestamps and a fixed entry order: an entry that still holds the bytes
it was read with is copied as stored, with its compression method;
any other is deflated with the stream `zipfile` uses. The layout and
the zip64 rules are those of `zipfile`, so identical containers
serialize to identical bytes, and a container read from an archive this
module wrote serializes to that archive again.
"""

from __future__ import annotations

import io
import re
import struct
import zipfile
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from .errors import CorruptEntry, NoSuchEntry, NotAZip, UnsafePath

# Fixed DOS date and time for every written entry: the ZIP epoch, 1980-01-01.
_DOS_DATE, _DOS_TIME = (1 << 5) | 1, 0
_DEFLATE_LEVEL = 6
# The longest path segment in UTF-8 bytes: the name limit of ext4, APFS, NTFS.
_SEGMENT_MAX = 255

# Looks like a URI scheme or a Windows drive letter at the start of a path.
_SCHEME_OR_DRIVE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")

# What zipfile and zlib raise on damaged input besides BadZipFile: unknown
# compression or encryption, undecodable names, bad deflate data, truncation.
_ZIP_FAILURES = (zipfile.BadZipFile, zlib.error, EOFError,
                 NotImplementedError, RuntimeError, ValueError)

# Records of PKWARE APPNOTE 4.3, packed as zipfile packs them.
_LOCAL_HEADER = struct.Struct("<4s2B4HL2L2H")
_CENTRAL_HEADER = struct.Struct("<4s4B4HL2L5H2L")
_END_RECORD = struct.Struct("<4s4H2LH")
_ZIP64_END_RECORD = struct.Struct("<4sQ2H2L4Q")
_ZIP64_LOCATOR = struct.Struct("<4sLQL")
_VERSION, _ZIP64_VERSION = 20, 45
_UTF8_NAME = 0x800
_UNIX = 3
_EXTERNAL_ATTR = 0o644 << 16
# A ZIP tree can hold `a` and `a/b`; a filesystem cannot.
_SHARED_PATH = "file and directory share a path"
# and one that ignores case cannot hold `a` and `A`, nor `a` and `A/b`
_CASE_COLLISION = "another path differs from it only in case"


def check_path(path: str) -> str:
    """Validate a container entry path; returns it unchanged.

    Raises UnsafePath unless the path is non-empty, slash-separated,
    relative, free of NUL and of `..`, empty and `.` segments, and no
    segment is longer than 255 UTF-8 bytes.
    """
    if not path:
        raise UnsafePath(path, "empty path")
    if "\\" in path:
        raise UnsafePath(path, "backslash separator")
    if "\x00" in path:
        raise UnsafePath(path, "NUL character")
    if path.startswith("/"):
        raise UnsafePath(path, "absolute path")
    if _SCHEME_OR_DRIVE.match(path):
        raise UnsafePath(path, "scheme or drive prefix")
    for segment in path.split("/"):
        if segment == "..":
            raise UnsafePath(path, "parent-directory segment")
        if segment == ".":
            raise UnsafePath(path, "dot segment")
        if segment == "":
            raise UnsafePath(path, "empty segment")
        # a character takes at most 4 bytes, so shorter segments fit
        if (len(segment) > _SEGMENT_MAX // 4
                and len(segment.encode("utf-8", "surrogatepass")) > _SEGMENT_MAX):
            raise UnsafePath(path, "segment too long")
    return path


def parents(path: str) -> Iterator[str]:
    """The directories above `path`, innermost first: `a/b/c` gives `a/b`, `a`."""
    end = path.rfind("/")
    while end > 0:
        yield path[:end]
        end = path.rfind("/", 0, end)


def case_collision(paths, directories) -> str | None:
    """A path of `paths`, or of the `directories` they need, equal under
    str.casefold to another path of `paths`, or None; a file system that
    ignores case can hold only one of the two."""
    files: dict[str, str] = {}
    for path in paths:
        if files.setdefault(path.casefold(), path) != path:
            return path
    return next((d for d in sorted(directories) if files.get(d.casefold(), d) != d), None)


@dataclass(frozen=True)
class ContainerEntry:
    path: str
    data: bytes
    # (compression method, CRC-32, bytes as stored in the archive read), set only
    # by open_container: write_container copies these bytes as they stand, and
    # dataclasses.replace, like __init__, leaves them unset.
    raw: tuple[int, int, memoryview] | None = field(default=None, init=False, compare=False,
                                                    repr=False)

    def __post_init__(self):
        check_path(self.path)


class Container:
    """An ordered set of entries with unique paths, and how many of them
    each directory holds at any depth. Value semantics."""

    def __init__(self, entries: list[ContainerEntry] | None = None):
        self._entries: dict[str, ContainerEntry] = {}
        self._directories: Counter[str] = Counter()
        for entry in entries or []:
            self.add(entry)

    @property
    def entries(self) -> list[ContainerEntry]:
        return list(self._entries.values())

    def paths(self) -> list[str]:
        return list(self._entries)

    def __contains__(self, path: str) -> bool:
        return path in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, entry: ContainerEntry) -> None:
        if entry.path in self._entries:
            raise UnsafePath(entry.path, "duplicate entry")
        self._entries[entry.path] = entry
        self._directories.update(parents(entry.path))

    def remove(self, path: str) -> None:
        if path not in self._entries:
            raise NoSuchEntry(path)
        del self._entries[path]
        self._directories.subtract(parents(path))

    def get(self, path: str) -> bytes:
        try:
            return self._entries[path].data
        except KeyError:
            raise NoSuchEntry(path) from None

    def copy(self) -> "Container":
        copy = Container()
        copy._entries = self._entries.copy()
        copy._directories = self._directories.copy()
        return copy

    def shares_path(self, path: str) -> bool:
        """Whether a file system would need `path` as a file and as a
        directory: members lie under it, or a directory above it is a member."""
        return self._directories[path] > 0 or any(d in self._entries for d in parents(path))

    def clashes(self) -> list[tuple[str, str, str]]:
        """What a file system may not hold, as (rule, path, reason): the first
        member, in container order, that others need as a directory, then the
        first case collision."""
        paths = self.paths()
        directories = +self._directories  # without those a removal emptied
        found = (("shared-path", next((p for p in paths if directories[p]), None), _SHARED_PATH),
                 ("case-collision", case_collision(paths, directories), _CASE_COLLISION))
        return [clash for clash in found if clash[1] is not None]

    def byte_map(self) -> dict[str, bytes]:
        return {e.path: e.data for e in self.entries}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Container):
            return NotImplemented
        return self.byte_map() == other.byte_map()


def open_container(data: bytes) -> Container:
    """Read a ZIP stream into a Container, rejecting unsafe entry names and
    members whose declared range reaches into the next one.

    Each stored or deflated member keeps its bytes as stored, a view of
    `data` taken after zipfile has inflated the member and checked its
    CRC-32.
    """
    data = bytes(data)  # a no-op for bytes; copies a bytearray the caller may change
    view = memoryview(data)
    try:
        zf = zipfile.ZipFile(io.BytesIO(data))
    except _ZIP_FAILURES as exc:
        raise NotAZip(str(exc)) from exc
    container = Container()
    with zf:
        # a member's bytes end where the next member or the central directory starts
        offsets = sorted(info.header_offset for info in zf.infolist())
        region_end = dict(zip(offsets, offsets[1:] + [zf.start_dir]))
        for info in zf.infolist():
            name = info.orig_filename  # as stored: `filename` is cut at a NUL
            if name.endswith("/"):  # a directory entry; ContainerEntry checks the others
                if name.rstrip("/"):
                    check_path(name.rstrip("/"))
                continue
            # the member's bytes follow its local header's name and extra
            # field, whose lengths are at offset 26 (zf.read checks the rest);
            # a truncated header puts `start` past the region
            at = info.header_offset
            start = (at + _LOCAL_HEADER.size + int.from_bytes(data[at + 26:at + 28], "little")
                     + int.from_bytes(data[at + 28:at + 30], "little"))
            if start + info.compress_size > region_end[at]:
                raise CorruptEntry(name, f"corrupt entry {name!r}: its declared size reaches "
                                         "into the next member or the central directory")
            try:
                payload = zf.read(info)
            except _ZIP_FAILURES as exc:
                raise CorruptEntry(name, f"corrupt entry {name!r}: {exc}") from exc
            entry = ContainerEntry(name, payload)
            if info.compress_type in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED):
                # zipfile reads a stored member's payload from its first bytes
                # and stops inflating at the end of the deflate stream
                size = (len(payload) if info.compress_type == zipfile.ZIP_STORED
                        else info.compress_size)
                object.__setattr__(entry, "raw",
                                   (info.compress_type, info.CRC, view[start:start + size]))
            container.add(entry)
    return container


def _write_order(paths: list[str]) -> list[str]:
    # manifest.xml first so readers can locate it early, then lexicographic.
    return sorted(paths, key=lambda p: (p != "manifest.xml", p))


def _member(entry: ContainerEntry) -> tuple[int, int, list[bytes | memoryview]]:
    """An entry's compression method, CRC-32 and bytes as stored, in parts."""
    if entry.raw is not None:
        method, crc, stored = entry.raw
        return method, crc, [stored]
    # the stream zipfile.writestr produces at this level
    deflater = zlib.compressobj(_DEFLATE_LEVEL, zlib.DEFLATED, -15)
    return (zipfile.ZIP_DEFLATED, zlib.crc32(entry.data),
            [deflater.compress(entry.data), deflater.flush()])


def write_container(container: Container) -> bytes:
    """Serialize deterministically: fixed timestamps, fixed entry order.

    The bytes are those zipfile.ZipFile.writestr writes for the same
    entries, zip64 records included, except that a member that still
    holds its raw bytes is copied instead of deflated again.
    """
    zip64_limit = zipfile.ZIP64_LIMIT  # read at call time, as zipfile does
    # Parts are joined once at the end: growing one buffer instead raised
    # the peak RSS of `omex meta set` on a 20 MiB archive by 11 MiB.
    local: list[bytes | memoryview] = []
    central: list[bytes] = []
    offset = 0
    for path in _write_order(container.paths()):
        entry = container._entries[path]
        method, crc, parts = _member(entry)
        size, stored_size = len(entry.data), sum(map(len, parts))
        try:
            name, flags = path.encode("ascii"), 0
        except UnicodeEncodeError:
            name, flags = path.encode("utf-8"), _UTF8_NAME

        # zipfile picks the local zip64 extra from the size alone, before compressing
        zip64 = size * 1.05 > zip64_limit
        version = _ZIP64_VERSION if zip64 else _VERSION
        extra = struct.pack("<HHQQ", 1, 16, size, stored_size) if zip64 else b""
        sizes = (0xFFFFFFFF, 0xFFFFFFFF) if zip64 else (stored_size, size)
        header = _LOCAL_HEADER.pack(b"PK\x03\x04", version, 0, flags, method,
                                    _DOS_TIME, _DOS_DATE, crc, *sizes,
                                    len(name), len(extra))
        local += (header, name, extra, *parts)

        # and the central zip64 extra from the values over the limit
        over = [size, stored_size] if max(size, stored_size) > zip64_limit else []
        sizes = (0xFFFFFFFF, 0xFFFFFFFF) if over else (stored_size, size)
        header_offset = offset
        if offset > zip64_limit:
            over.append(offset)
            header_offset = 0xFFFFFFFF
        if over:
            version = _ZIP64_VERSION
        central_extra = (struct.pack(f"<HH{len(over)}Q", 1, 8 * len(over), *over)
                         if over else b"")
        central += (_CENTRAL_HEADER.pack(b"PK\x01\x02", version, _UNIX, version, 0,
                                         flags, method, _DOS_TIME, _DOS_DATE, crc,
                                         *sizes, len(name), len(central_extra), 0, 0,
                                         0, _EXTERNAL_ATTR, header_offset),
                    name, central_extra)
        offset += len(header) + len(name) + len(extra) + stored_size

    count, directory_offset = len(container), offset
    directory_size = sum(map(len, central))
    end: list[bytes] = []
    if (count > zipfile.ZIP_FILECOUNT_LIMIT or directory_offset > zip64_limit
            or directory_size > zip64_limit):
        end += (_ZIP64_END_RECORD.pack(b"PK\x06\x06", 44, _ZIP64_VERSION,
                                       _ZIP64_VERSION, 0, 0, count, count,
                                       directory_size, directory_offset),
                _ZIP64_LOCATOR.pack(b"PK\x06\x07", 0,
                                    directory_offset + directory_size, 1))
        count = min(count, 0xFFFF)
        directory_size = min(directory_size, 0xFFFFFFFF)
        directory_offset = min(directory_offset, 0xFFFFFFFF)
    end.append(_END_RECORD.pack(b"PK\x05\x06", 0, 0, count, count,
                                directory_size, directory_offset, 0))
    return b"".join(local + central + end)
