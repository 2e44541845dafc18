"""Byte-level ZIP container access with deterministic serialization.

Entries are kept in memory. Reading parses the archive with `struct` and
`zlib`, and takes and refuses what `zipfile` does: the end record, the
zip64 records and prepended bytes are found as it finds them, names are
taken as stored, and each member's local header must carry its signature
and name. A member's declared range must end by the next local header or
the central directory, so overlapping members, as in zip bombs, are
refused. Stored, deflated, bzip2 and LZMA members are inflated, holding at
most their declared size, and CRC-checked; where `zipfile` let a damaged
bzip2 or LZMA stream raise, or took a stream that ends before the declared
size, the member is refused. A stored or deflated member keeps its bytes
as stored, a view of the input. Writing emits the ZIP itself with fixed
timestamps and a fixed entry order: an entry that still holds the bytes it
was read with is copied as stored, with its compression method; an entry
longer than 64 KiB whose first 64 KiB deflate no smaller is stored; any
other is deflated with the stream `zipfile` uses. The layout and the zip64
rules are those of `zipfile`: the bytes are those `zipfile.writestr` writes
except for the members copied or stored, identical containers serialize to
identical bytes, and a container read from an archive this module wrote
serializes to that archive again.
"""

from __future__ import annotations

import re
import struct
import sys
import zlib
from collections import Counter
from typing import Iterator

from .errors import CorruptEntry, NoSuchEntry, NotAZip, UnsafePath

# Fixed DOS date and time for every written entry: the ZIP epoch, 1980-01-01.
_DOS_DATE, _DOS_TIME = (1 << 5) | 1, 0
_DEFLATE_LEVEL = 6
# A new member longer than this is stored when deflating its first this many
# bytes does not shrink them, as already compressed data does not shrink; a
# shorter one is always deflated, as zipfile.writestr deflates it.
_PROBE = 1 << 16
# The longest path segment in UTF-8 bytes: the name limit of ext4, APFS, NTFS.
_SEGMENT_MAX = 255

# Looks like a URI scheme or a Windows drive letter at the start of a path.
_SCHEME_OR_DRIVE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")

# Records of PKWARE APPNOTE 4.3, packed as zipfile packs them.
_LOCAL_HEADER = struct.Struct("<4s2B4HL2L2H")
_CENTRAL_HEADER = struct.Struct("<4s4B4HL2L5H2L")
_END_RECORD = struct.Struct("<4s4H2LH")
_ZIP64_END_RECORD = struct.Struct("<4sQ2H2L4Q")
_ZIP64_LOCATOR = struct.Struct("<4sLQL")
_VERSION, _ZIP64_VERSION = 20, 45
_MAX_EXTRACT_VERSION = 63  # the newest ZIP version zipfile reads
_STORED, _DEFLATED, _BZIP2, _LZMA = 0, 8, 12, 14
_UTF8_NAME = 0x800
# flags of members zipfile cannot read without a password or at all:
# encrypted, compressed patched data, strongly encrypted
_UNREADABLE = 0x1 | 0x20 | 0x40
# bytes inflated at a time past a member's declared size, from pieces of input
# so short that copying what is left of one costs little
_STEP, _PIECE = 1 << 16, 1 << 10
_UNIX = 3
# zipfile's ZIP64_LIMIT and ZIP_FILECOUNT_LIMIT: past them a record needs zip64
_ZIP64_LIMIT, _FILECOUNT_LIMIT = (1 << 31) - 1, (1 << 16) - 1
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


class ContainerEntry:
    """A member at a checked path. `data` is its bytes, or a callable that
    returns them, called once, when `data` is first read. `stored` is
    (compression method, CRC-32, bytes as stored) of a member read, which
    write_container copies as they stand. Entries compare, hash and print
    by path and bytes alone."""

    def __init__(self, path: str, data, stored: tuple[int, int, memoryview] | None = None):
        self.path, self._data, self.stored = check_path(path), data, stored

    @property
    def data(self) -> bytes:
        if callable(self._data):
            self._data = self._data()
        return self._data

    def __eq__(self, other) -> bool:
        if not isinstance(other, ContainerEntry):
            return NotImplemented
        return (self.path, self.data) == (other.path, other.data)

    def __hash__(self) -> int:
        return hash((self.path, self.data))

    def __repr__(self) -> str:
        return f"ContainerEntry(path={self.path!r}, data={self.data!r})"


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


def _zip64_fields(extra: bytes, size: int, stored: int, offset: int) -> tuple[int, int, int]:
    """A central record's size, stored size and local header offset, with
    those that max out read from its zip64 extra field, as zipfile reads them."""
    while len(extra) >= 4:
        kind, length = struct.unpack_from("<HH", extra)
        if length + 4 > len(extra):
            raise NotAZip(f"Corrupt extra field {kind:04x} (size={length})")
        if kind == 1:  # 8 bytes for each field that maxes out, in this order
            values, fields = extra[4:length + 4], [size, stored, offset]
            for i, maxed in enumerate((size in (0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF),
                                       stored == 0xFFFFFFFF, offset == 0xFFFFFFFF)):
                if maxed:
                    if len(values) < 8:
                        raise NotAZip("Corrupt zip64 extra field")
                    fields[i], values = int.from_bytes(values[:8], "little"), values[8:]
            size, stored, offset = fields
        extra = extra[length + 4:]
    return size, stored, offset


def _name(raw: bytes, flags: int) -> str:
    """A ZIP name as zipfile decodes it: UTF-8 when flag 0x800 is set, cp437
    otherwise; both read ASCII as ASCII, which UTF-8 decodes fastest."""
    return raw.decode("utf-8" if flags & _UTF8_NAME or raw.isascii() else "cp437")


def _directory(data: bytes) -> tuple[int, list[tuple]]:
    """Where the central directory starts, and its records in central order:
    (name, flags, method, CRC-32, stored size, size, local header offset).

    The end record, its zip64 records and any bytes prepended to the
    archive are found as zipfile finds them.
    """
    end = len(data) - _END_RECORD.size
    if not (end >= 0 and data.startswith(b"PK\x05\x06", end) and data.endswith(b"\0\0")):
        # a comment follows the end record: take the last signature within 64 KiB
        end = data.rfind(b"PK\x05\x06", max(end - (1 << 16), 0))
        if end < 0 or end + _END_RECORD.size > len(data):
            raise NotAZip("File is not a zip file")
    *_, length, offset, _ = _END_RECORD.unpack_from(data, end)
    start = end - length
    # a zip64 end record and its locator lie right before the end record
    zip64_end = end - _ZIP64_LOCATOR.size
    signature, disk, _, disks = _ZIP64_LOCATOR.unpack_from(data, max(zip64_end, 0))
    if signature == b"PK\x06\x07":
        if disk != 0 or disks > 1:
            raise NotAZip("zipfiles that span multiple disks are not supported")
        zip64_end -= _ZIP64_END_RECORD.size
        record = data[max(zip64_end, 0):max(zip64_end, 0) + _ZIP64_END_RECORD.size]
        if len(record) == _ZIP64_END_RECORD.size and record.startswith(b"PK\x06\x06"):
            *_, length, offset = _ZIP64_END_RECORD.unpack(record)
            start = zip64_end - length
    if start < 0:
        raise NotAZip("Bad offset for central directory")
    prepended = start - offset
    central, at, records = data[start:start + length], 0, []
    while at < length:
        if at + _CENTRAL_HEADER.size > length:
            raise NotAZip("Truncated central directory")
        (signature, _, _, version, _, flags, method, _, _, crc, stored, size, name_length,
         extra_length, comment_length, _, _, _, offset) = _CENTRAL_HEADER.unpack_from(central, at)
        if signature != b"PK\x01\x02":
            raise NotAZip("Bad magic number for central directory")
        at += _CENTRAL_HEADER.size
        try:
            name = _name(central[at:at + name_length], flags)
        except UnicodeDecodeError as exc:
            raise NotAZip(str(exc)) from exc
        if version > _MAX_EXTRACT_VERSION:
            raise NotAZip(f"zip file version {version / 10:.1f}")
        at += name_length
        size, stored, offset = _zip64_fields(central[at:at + extra_length], size, stored, offset)
        records.append((name, flags, method, crc, stored, size, offset + prepended))
        at += extra_length + comment_length
    return start, records


def _inflate(method: int, stored: memoryview, size: int) -> bytes | memoryview:
    """The first `size` bytes a member inflates to, or all of them when fewer.

    zipfile inflates a whole stream and keeps its first `size` bytes, so
    damage anywhere in it refuses the member: what lies past `size` is
    inflated a step at a time and dropped, which keeps memory bounded.
    Damaged data raises ValueError.
    """
    # what the decompressors raise on damaged data; the except clause reads it
    # when one raises, so the LZMA branch can add its own
    damaged: tuple[type[Exception], ...] = (zlib.error, OSError)  # bz2 raises OSError
    limit = min(size + 1, sys.maxsize)
    try:
        if method == _STORED:
            return stored[:size]
        if method == _DEFLATED:
            inflater = zlib.decompressobj(-15)
            payload = inflater.decompress(stored, limit)
            if len(payload) > size:  # fed in pieces, so the input left is never copied whole
                rest = memoryview(inflater.unconsumed_tail)
                for at in range(0, len(rest), _PIECE):
                    piece = rest[at:at + _PIECE]
                    while piece and not inflater.eof:
                        inflater.decompress(piece, _STEP)
                        piece = inflater.unconsumed_tail
            return payload[:size]
        if method == _BZIP2:
            import bz2
            inflater = bz2.BZ2Decompressor()
        else:  # LZMA: a version and the length of the LZMA1 properties that follow
            import lzma
            damaged += (lzma.LZMAError,)
            end = 4 + int.from_bytes(stored[2:4], "little")
            if len(stored) <= end:  # zipfile reads no bytes from such a member
                return b""
            inflater = lzma.LZMADecompressor(lzma.FORMAT_RAW, filters=[
                lzma._decode_filter_properties(lzma.FILTER_LZMA1, bytes(stored[4:end]))])
            stored = stored[end:]
        payload = inflater.decompress(stored, limit)
        while len(payload) > size and not inflater.eof and not inflater.needs_input:
            inflater.decompress(b"", _STEP)
        return payload[:size]
    except damaged as exc:
        raise ValueError(str(exc)) from exc


def _entry(data: bytes, view: memoryview, record: tuple, end: int) -> ContainerEntry:
    """The member a central record describes, whose bytes must end by `end`,
    where the next member or the central directory starts."""
    name, flags, method, crc, stored_size, size, at = record

    def refuse(reason: str) -> CorruptEntry:
        return CorruptEntry(name, f"corrupt entry {name!r}: {reason}")

    if not 0 <= at <= len(data) - _LOCAL_HEADER.size:
        raise refuse("its local header lies outside the archive")
    (signature, _, _, local_flags, *_, name_length,
     extra_length) = _LOCAL_HEADER.unpack_from(data, at)
    start = at + _LOCAL_HEADER.size + name_length + extra_length
    if start + stored_size > end:
        raise refuse("its declared size reaches into the next member or the central directory")
    try:
        local_name = _name(data[at + _LOCAL_HEADER.size:start - extra_length], local_flags)
    except UnicodeDecodeError:
        local_name = None
    if signature != b"PK\x03\x04" or local_name != name:
        raise refuse("its local header does not match its central record")
    if flags & _UNREADABLE:
        raise refuse("encrypted or patched data")
    if method not in (_STORED, _DEFLATED, _BZIP2, _LZMA):
        raise refuse(f"compression type {method}")
    stored = view[start:start + stored_size]
    try:
        payload = _inflate(method, stored, size)
    except ValueError as exc:
        raise refuse(str(exc)) from exc
    # bytes missing at the end of the archive are refused unless the member
    # got all it needs without them
    if len(stored) < stored_size and not (stored and len(payload) == size):
        raise refuse("its data runs past the end of the archive")
    if len(payload) < size:
        raise refuse("its data ends before its declared size")
    if zlib.crc32(payload) != crc:
        raise refuse(f"Bad CRC-32 for file {name!r}")
    if method == _STORED:  # its payload is a view of the input, copied when first read
        return ContainerEntry(name, payload.tobytes, (method, crc, payload))
    return ContainerEntry(name, payload, (method, crc, stored) if method == _DEFLATED else None)


def open_container(data: bytes) -> Container:
    """Read a ZIP stream into a Container, rejecting unsafe entry names and
    members whose declared range reaches into the next one.

    Each stored or deflated member keeps its bytes as stored, a view of
    `data`, once they have been inflated and their CRC-32 checked.
    """
    data = bytes(data)  # a no-op for bytes; copies a bytearray the caller may change
    view = memoryview(data)
    directory, records = _directory(data)
    # a member's bytes end where the next member or the central directory starts
    offsets = sorted({record[-1] for record in records})
    ends = dict(zip(offsets, offsets[1:] + [directory]))
    container = Container()
    for record in records:
        name = record[0]
        if name.endswith("/"):  # a directory entry; ContainerEntry checks the others
            if name.rstrip("/"):
                check_path(name.rstrip("/"))
            continue
        container.add(_entry(data, view, record, ends[record[-1]]))
    return container


def _write_order(paths: list[str]) -> list[str]:
    # manifest.xml first so readers can locate it early, then lexicographic.
    return sorted(paths, key=lambda p: (p != "manifest.xml", p))


def _member(entry: ContainerEntry) -> tuple[int, int, list[bytes | memoryview]]:
    """An entry's compression method, CRC-32 and bytes as stored, in parts."""
    if entry.stored is not None:
        method, crc, stored = entry.stored
        return method, crc, [stored]
    data = entry.data
    if len(data) > _PROBE:
        probe = zlib.compressobj(_DEFLATE_LEVEL, zlib.DEFLATED, -15)
        if len(probe.compress(memoryview(data)[:_PROBE])) + len(probe.flush()) >= _PROBE:
            return _STORED, zlib.crc32(data), [data]
    # the stream zipfile.writestr produces at this level
    deflater = zlib.compressobj(_DEFLATE_LEVEL, zlib.DEFLATED, -15)
    return _DEFLATED, zlib.crc32(data), [deflater.compress(data), deflater.flush()]


def write_container(container: Container) -> bytes:
    """Serialize deterministically: fixed timestamps, fixed entry order.

    The bytes are those zipfile.ZipFile.writestr writes for the same
    entries, zip64 records included, except that a member that still
    holds its bytes as stored is copied instead of deflated again, and a
    member longer than 64 KiB whose first 64 KiB deflate no smaller is
    written ZIP_STORED, as writestr would write it stored.
    """
    # Parts are joined once at the end: growing one buffer instead raised
    # the peak RSS of `omex meta set` on a 20 MiB archive by 11 MiB.
    local: list[bytes | memoryview] = []
    central: list[bytes] = []
    offset = 0
    for path in _write_order(container.paths()):
        entry = container._entries[path]
        method, crc, parts = _member(entry)
        stored_size = sum(map(len, parts))
        size = stored_size if method == _STORED else len(entry.data)
        try:
            name, flags = path.encode("ascii"), 0
        except UnicodeEncodeError:
            name, flags = path.encode("utf-8"), _UTF8_NAME

        # zipfile picks the local zip64 extra from the size alone, before compressing
        zip64 = size * 1.05 > _ZIP64_LIMIT
        version = _ZIP64_VERSION if zip64 else _VERSION
        extra = struct.pack("<HHQQ", 1, 16, size, stored_size) if zip64 else b""
        sizes = (0xFFFFFFFF, 0xFFFFFFFF) if zip64 else (stored_size, size)
        header = _LOCAL_HEADER.pack(b"PK\x03\x04", version, 0, flags, method,
                                    _DOS_TIME, _DOS_DATE, crc, *sizes,
                                    len(name), len(extra))
        local += (header, name, extra, *parts)

        # and the central zip64 extra from the values over the limit
        over = [size, stored_size] if max(size, stored_size) > _ZIP64_LIMIT else []
        sizes = (0xFFFFFFFF, 0xFFFFFFFF) if over else (stored_size, size)
        header_offset = offset
        if offset > _ZIP64_LIMIT:
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
    if (count > _FILECOUNT_LIMIT or directory_offset > _ZIP64_LIMIT
            or directory_size > _ZIP64_LIMIT):
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
