"""Byte-level ZIP container access with deterministic serialization.

Reading parses the archive with `struct` and `zlib`, and takes and
refuses what `zipfile` does: the end record, the zip64 records and
prepended bytes are found as it finds them, names are taken as stored,
and each member's local header must carry its signature and name. A
member's declared range must end by the next local header or the central
directory, so overlapping members, as in zip bombs, are refused. Stored,
deflated, bzip2 and LZMA members are inflated in 64 KiB steps to at most
one byte past their declared size, and must come out at exactly that size
and pass their CRC-32: where `zipfile` let a damaged bzip2 or LZMA stream
raise, or took a stream shorter or longer than declared, the member is
refused. A member of at most one step, and manifest.xml, keep the bytes
that check inflated; a longer one keeps only where its bytes as stored lie
in the input, and is inflated again, step by step, when it is read: in
`meta set`, its only check where it is read from a file. Writing emits
the ZIP itself with fixed timestamps and a fixed entry order: a stored or
deflated member read is copied as stored, with its compression method; an
entry longer than 64 KiB whose first 64 KiB deflate no smaller is stored;
any other is deflated with the stream `zipfile` uses. One writer emits the
archive piece by piece, member by member, into a write function:
`write_container` joins the pieces once, `Archive.write` hands them to a
file. A member read from bytes is copied as one view; a long one read from
a file is copied 64 KiB at a time, each piece read once, written once and
fed to the member's check of its size and CRC-32, so a file changed since
the open raises CorruptEntry. A new entry of at most 64 KiB is deflated in
memory before its header is written; a longer one streams through one
CRC-32 and one deflater, its pieces written as they come, and its local
header is patched with its CRC-32 and sizes once they are known. The
layout and the zip64 rules are those of `zipfile`: the bytes are those
`zipfile.writestr` writes except for the members copied or stored,
identical containers serialize to identical bytes, and a container read
from an archive this module wrote serializes to that archive again.
"""

from __future__ import annotations

import io
import re
import struct
import zlib
from collections import Counter
from itertools import chain
from typing import Callable, Iterable, Iterator

from .errors import CorruptEntry, NoSuchEntry, NotAZip, UnsafePath

# Fixed DOS date and time for every written entry: the ZIP epoch, 1980-01-01.
_DOS_DATE, _DOS_TIME = (1 << 5) | 1, 0
_DEFLATE_LEVEL = 6
# A new member longer than this is stored when deflating its first this many
# bytes does not shrink them, as already compressed data does not shrink; a
# shorter one is always deflated, as zipfile.writestr deflates it. Reading
# inflates in steps of this many bytes, and keeps a member no longer.
_PROBE = 1 << 16
# The longest path segment in UTF-8 bytes: the name limit of ext4, APFS, NTFS.
_SEGMENT_MAX = 255

# Looks like a URI scheme or a Windows drive letter at the start of a path.
_SCHEME_OR_DRIVE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
# A path every rule of check_path accepts at a glance: ASCII segments of at
# most 255 letters, digits, `_`, `-` and `.`, none starting with a `.`.
_PLAIN_PATH = re.compile(r"(?:[\w-][\w.-]{0,254}/)*[\w-][\w.-]{0,254}", re.ASCII)

# Records of PKWARE APPNOTE 4.3, packed as zipfile packs them.
_LOCAL_HEADER = struct.Struct("<4s2B4HL2L2H")
_CENTRAL_HEADER = struct.Struct("<4s4B4HL2L5H2L")
_END_RECORD = struct.Struct("<4s4H2LH")
_ZIP64_END_RECORD = struct.Struct("<4sQ2H2L4Q")
_ZIP64_LOCATOR = struct.Struct("<4sLQL")
# The end record, the comment of up to 64 KiB after it, and the zip64 end
# record and locator before it: the tail of an archive that _directory reads.
_TAIL = _END_RECORD.size + (1 << 16) + _ZIP64_END_RECORD.size + _ZIP64_LOCATOR.size
# A local header with the longest name and extra field, and one step of bytes
# as stored: the most that _entry reads of a member at once.
_HEAD = _LOCAL_HEADER.size + 2 * 0xFFFF + _PROBE
_VERSION, _ZIP64_VERSION = 20, 45
_MAX_EXTRACT_VERSION = 63  # the newest ZIP version zipfile reads
_STORED, _DEFLATED, _BZIP2, _LZMA = 0, 8, 12, 14
_UTF8_NAME = 0x800
# flags of members zipfile cannot read without a password or at all:
# encrypted, compressed patched data, strongly encrypted
_UNREADABLE = 0x1 | 0x20 | 0x40
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
    if _PLAIN_PATH.fullmatch(path):
        return path
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
    returns them, called once, when `data` is first read, and `size` its
    length. A member read has a `_source`, which holds its bytes as stored,
    and the other private slots, all set by `_entry` alone. One longer than
    one step keeps only those: its `data` is inflated when first read and
    kept, and `steps()` inflates it anew, 64 KiB at a time, without keeping
    it; from a file each such read checks the size and CRC-32 again. A
    subclass may leave `_data` None and give its pieces by `_pieces` and its
    length by `size`, as the files `pack_directory` reads only when they
    are written do. Entries compare by path and bytes, sizes and
    CRC-32s first, and hash and print by path and size."""

    __slots__ = ("path", "_data", "_source", "_method", "_crc", "_start", "_stored_size",
                 "_size")

    def __init__(self, path: str, data):
        self.path, self._data, self._source = check_path(path), data, None

    @property
    def data(self) -> bytes:
        if self._data is None:
            # one growing buffer: a join would hold every piece and the result
            buffer = io.BytesIO()
            buffer.writelines(self._pieces())
            self._data = buffer.getvalue()
        elif callable(self._data):
            self._data = self._data()
        return self._data

    @property
    def size(self) -> int:
        """Its length: as declared when read, which the read checked, or len(data)."""
        return len(self.data) if self._source is None else self._size

    def steps(self) -> Iterable[bytes | memoryview]:
        """Its bytes in pieces: from `_pieces`, 64 KiB at a time, while
        `data` was not read, as for a long member read, else `data` whole."""
        return self._pieces() if self._data is None else [self.data]

    def _pieces(self) -> Iterator[bytes | memoryview]:
        # bytes cannot change after the open; a file can
        return _steps(self) if isinstance(self._source, bytes) else _checked(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ContainerEntry):
            return NotImplemented
        if (self.path, self.size) != (other.path, other.size):
            return False
        if self._source is not None and other._source is not None and self._crc != other._crc:
            return False
        return self.data == other.data

    def __hash__(self) -> int:
        return hash((self.path, self.size))

    def __repr__(self) -> str:
        return f"ContainerEntry(path={self.path!r}, size={self.size})"


class Container:
    """An ordered set of entries with unique paths, and how many of them
    each directory holds at any depth. Value semantics."""

    def __init__(self, entries: Iterable[ContainerEntry] = ()):
        """Hold `entries`, taken one at a time: a duplicate path is refused
        before a later entry is drawn."""
        self._entries: dict[str, ContainerEntry] = {}
        for entry in entries:
            self._hold(entry)
        self._directories: Counter[str] = Counter(
            directory for path in self._entries for directory in parents(path))

    @property
    def entries(self) -> list[ContainerEntry]:
        return list(self._entries.values())

    def paths(self) -> list[str]:
        return list(self._entries)

    def __contains__(self, path: str) -> bool:
        return path in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def _hold(self, entry: ContainerEntry) -> None:
        if entry.path in self._entries:
            raise UnsafePath(entry.path, "duplicate entry")
        self._entries[entry.path] = entry

    def add(self, entry: ContainerEntry) -> None:
        self._hold(entry)
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

    def __eq__(self, other) -> bool:
        """Paths and sizes are compared before any entry."""
        if not isinstance(other, Container):
            return NotImplemented
        mine, theirs = self._entries, other._entries
        return ({p: e.size for p, e in mine.items()} == {p: e.size for p, e in theirs.items()}
                and mine == theirs)


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


def _at(source, start: int, size: int) -> bytes | memoryview:
    """The `size` bytes of `source` from offset `start`, or as many as it
    holds: of bytes a view, of a binary file what a seek and a read give,
    as FileIO, BufferedReader and BytesIO give them on every platform."""
    if isinstance(source, bytes):
        return memoryview(source)[start:start + size]
    source.seek(start)
    return source.read(size)


def _directory(source, archive_size: int) -> tuple[int, list[tuple]]:
    """Where the central directory starts, and its records in central order:
    (name, flags, method, CRC-32, stored size, size, local header offset).

    The end record, its zip64 records and any bytes prepended to the
    archive are found as zipfile finds them, in one read of the archive's
    tail, and the central directory is read in one more.
    """
    base = max(archive_size - _TAIL, 0)
    tail = bytes(_at(source, base, _TAIL))
    end = len(tail) - _END_RECORD.size
    if not (end >= 0 and tail.startswith(b"PK\x05\x06", end) and tail.endswith(b"\0\0")):
        # a comment follows the end record: take the last signature within 64 KiB
        end = tail.rfind(b"PK\x05\x06", max(end - (1 << 16), 0))
        if end < 0 or end + _END_RECORD.size > len(tail):
            raise NotAZip("File is not a zip file")
    *_, length, offset, _ = _END_RECORD.unpack_from(tail, end)
    start = base + end - length
    # a zip64 end record and its locator lie right before the end record
    zip64_end = end - _ZIP64_LOCATOR.size
    signature, disk, _, disks = _ZIP64_LOCATOR.unpack_from(tail, max(zip64_end, 0))
    if signature == b"PK\x06\x07":
        if disk != 0 or disks > 1:
            raise NotAZip("zipfiles that span multiple disks are not supported")
        zip64_end -= _ZIP64_END_RECORD.size
        record = tail[max(zip64_end, 0):max(zip64_end, 0) + _ZIP64_END_RECORD.size]
        if len(record) == _ZIP64_END_RECORD.size and record.startswith(b"PK\x06\x06"):
            *_, length, offset = _ZIP64_END_RECORD.unpack(record)
            start = base + zip64_end - length
    if start < 0:
        raise NotAZip("Bad offset for central directory")
    prepended = start - offset
    central, at, records = bytes(_at(source, start, length)), 0, []
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


def _steps(entry: ContainerEntry, read=_at) -> Iterator[bytes | memoryview]:
    """What the member read `entry` inflates to, in steps of at most 64 KiB,
    from its bytes as stored, taken by `read` (as `_at` takes them) 64 KiB
    at a time, those of a stored or deflated member in order and each once,
    and cut at one byte past its declared size, so a stream that runs on
    costs that byte and no more. Damaged data raises CorruptEntry; what
    reading a file raises propagates.
    """
    method, stored_size, limit = entry._method, entry._stored_size, entry._size + 1
    source, start = entry._source, entry._start
    if method == _STORED:
        for at in range(0, min(limit, stored_size), _PROBE):
            wanted = min(_PROBE, limit - at, stored_size - at)
            piece = read(source, start + at, wanted)
            if piece:
                yield piece
            if len(piece) < wanted:  # the archive ends here
                return
        return
    # what the decompressors raise on damaged data; the LZMA branch adds its own
    damaged: tuple[type[Exception], ...] = (zlib.error, OSError)  # bz2 raises OSError
    if method == _DEFLATED:
        inflater = zlib.decompressobj(-15)
    elif method == _BZIP2:
        import bz2
        inflater = bz2.BZ2Decompressor()
    else:  # LZMA: a version and the length of the LZMA1 properties that follow
        import lzma
        damaged += (lzma.LZMAError,)
        end = 4 + int.from_bytes(read(source, start, min(stored_size, 4))[2:4], "little")
        header = read(source, start, min(stored_size, end + 1))
        if len(header) <= end:  # zipfile reads no bytes from such a member
            return
        try:
            inflater = lzma.LZMADecompressor(lzma.FORMAT_RAW, filters=[
                lzma._decode_filter_properties(lzma.FILTER_LZMA1, bytes(header[4:end]))])
        except damaged as exc:
            raise CorruptEntry(entry.path, str(exc)) from exc
        start, stored_size = start + end, stored_size - end
    done = at = 0
    while done < limit and not inflater.eof:
        # zlib hands back the input a full step left; bz2 and lzma keep it
        given = inflater.unconsumed_tail if method == _DEFLATED else b""
        if not given and at < stored_size and (method == _DEFLATED or inflater.needs_input):
            given, at = read(source, start + at, min(_PROBE, stored_size - at)), at + _PROBE
        try:
            piece = inflater.decompress(given, min(_PROBE, limit - done))
        except damaged as exc:
            raise CorruptEntry(entry.path, str(exc)) from exc
        # zlib can hold output past a full step with all its input taken,
        # so only a call that is given nothing and gives nothing ends it
        if not (given or piece):
            break
        done += len(piece)
        yield piece


def _judge(entry: ContainerEntry, done: int, check: int) -> None:
    """Refuse the member read `entry` unless the `done` bytes of CRC-32
    `check` inflated from it are exactly its declared size and pass its
    CRC-32."""
    if done != entry._size:
        raise CorruptEntry(entry.path, "its data ends before its declared size"
                           if done < entry._size else "its data runs past its declared size")
    if check != entry._crc:
        raise CorruptEntry(entry.path, f"Bad CRC-32 for file {entry.path!r}")


def _checked(entry: ContainerEntry, read=_at) -> Iterator[bytes | memoryview]:
    """_steps(entry, read), passed on as they come, and judged when they
    end: a wrong size or CRC-32 raises CorruptEntry naming the member."""
    done = check = 0
    for piece in _steps(entry, read):
        done += len(piece)
        check = zlib.crc32(piece, check)
        yield piece
    _judge(entry, done, check)


def _entry(source, archive_size: int, record: tuple, end: int, copied: bool) -> ContainerEntry:
    """The member a central record describes, whose bytes must end by `end`,
    where the next member or the central directory starts. It keeps the
    bytes its check inflated when they fit in one step or it is manifest.xml,
    and otherwise inflates them again when read. Of a file it keeps the bytes
    as stored when they fit in one step, else reads them again, which where
    `copied` is their only check."""
    name, flags, method, crc, stored_size, size, at = record
    if not 0 <= at <= archive_size - _LOCAL_HEADER.size:
        raise CorruptEntry(name, "its local header lies outside the archive")
    # one read of the local header, its name and extra field, and the bytes as
    # stored where they fit in one step; where they do not, the header comes first
    wanted = min(end - at, _HEAD) if stored_size <= _PROBE else _LOCAL_HEADER.size
    head = _at(source, at, max(_LOCAL_HEADER.size, wanted))
    (signature, _, _, local_flags, *_, name_length,
     extra_length) = _LOCAL_HEADER.unpack_from(head)
    offset = _LOCAL_HEADER.size + name_length + extra_length
    start = at + offset
    if start + stored_size > end:
        raise CorruptEntry(name, "its declared size reaches into the next member or the "
                                 "central directory")
    if len(head) < offset:
        head = _at(source, at, offset)
    try:
        local_name = _name(bytes(head[_LOCAL_HEADER.size:offset - extra_length]), local_flags)
    except UnicodeDecodeError:
        local_name = None
    if signature != b"PK\x03\x04" or local_name != name:
        raise CorruptEntry(name, "its local header does not match its central record")
    if flags & _UNREADABLE:
        raise CorruptEntry(name, "encrypted or patched data")
    if method not in (_STORED, _DEFLATED, _BZIP2, _LZMA):
        raise CorruptEntry(name, f"compression type {method}")
    if stored_size and not size and start >= archive_size:
        raise CorruptEntry(name, "its data runs past the end of the archive")
    entry = ContainerEntry(name, None)
    entry._source, entry._method, entry._crc = source, method, crc
    entry._start, entry._stored_size, entry._size = start, stored_size, size
    if stored_size <= _PROBE:
        stored = head[offset:offset + stored_size]
        if not isinstance(source, bytes):  # read from a file: kept, not read again
            entry._source, entry._start = stored, 0
    if size > _PROBE:  # checked step by step, and not kept
        if name == "manifest.xml":  # but parsed at once: the bytes checked are kept
            buffer = io.BytesIO()  # as `data` gathers them
            buffer.writelines(_checked(entry))
            entry._data = buffer.getvalue()
        elif not copied or isinstance(entry._source, bytes):
            for _ in _checked(entry):
                pass
        return entry
    # at most one step and a byte: held whole, and kept
    if method == _DEFLATED and stored_size <= _PROBE:
        try:  # the one call _steps would make, without its generator's cost
            entry._data = zlib.decompressobj(-15).decompress(stored, size + 1)
        except zlib.error as exc:
            raise CorruptEntry(name, str(exc)) from exc
    else:
        entry._data = b"".join(_steps(entry))
    _judge(entry, len(entry._data), zlib.crc32(entry._data))
    return entry


def open_container(source) -> Container:
    """Read a ZIP archive into a Container, rejecting unsafe entry names and
    members whose declared range reaches into the next one.

    `source` is the archive's bytes, or a binary file open for reading that
    can seek, which the caller keeps open while long members are read and
    closes. Every member's size and CRC-32 are checked here, in 64 KiB
    steps, and it keeps where its bytes as stored lie in `source`; a member
    of a file keeps those bytes instead where they fit in one step.
    """
    return _open_container(source, copied=False)


def _open_container(source, copied: bool) -> Container:
    """open_container; where `copied`, a member of a file longer than 64 KiB
    as stored is checked only when the caller copies or reads it."""
    try:
        buffer = memoryview(source)
    except TypeError:  # no buffer: a binary file
        archive_size = source.seek(0, io.SEEK_END)
    else:  # bytes as they are; a copy of anything else, a bytearray the caller may change
        source = source if isinstance(source, bytes) else buffer.tobytes()
        archive_size = len(source)
    directory, records = _directory(source, archive_size)
    # a member's bytes end where the next member or the central directory starts
    offsets = sorted({record[-1] for record in records})
    ends = dict(zip(offsets, offsets[1:] + [directory]))

    def members() -> Iterator[ContainerEntry]:
        for record in records:
            name = record[0]
            if name.endswith("/"):  # a directory entry; ContainerEntry checks the others
                if name.rstrip("/"):
                    check_path(name.rstrip("/"))
                continue
            yield _entry(source, archive_size, record, ends[record[-1]], copied)
    return Container(members())


def _write_order(paths: list[str]) -> list[str]:
    # manifest.xml first so readers can locate it early, then lexicographic.
    return sorted(paths, key=lambda p: (p != "manifest.xml", p))


def _copy(entry: ContainerEntry, write: Callable[[bytes | memoryview], object]) -> None:
    """Pass the bytes as stored of the stored or deflated member read `entry`
    to `write`: of bytes, which cannot change after the open, one view; of a
    file, exactly its stored size, read 64 KiB at a time, each piece written
    once and fed to the member's check as it passes. The check is judged at
    the member's end, so a file changed since the open raises CorruptEntry."""
    source, start, stored_size = entry._source, entry._start, entry._stored_size
    if isinstance(source, bytes):
        write(_at(source, start, stored_size))
        return
    copied = 0

    def read(source, at: int, size: int) -> bytes | memoryview:
        nonlocal copied
        piece = _at(source, at, size)
        write(piece)
        copied += len(piece)
        return piece
    for _ in _checked(entry, read):
        pass
    while copied < stored_size:  # a deflate stream may end before its bytes as stored
        if not read(source, start + copied, min(_PROBE, stored_size - copied)):
            raise CorruptEntry(entry.path, "its data ends before its declared size")


def _local_header(name: bytes, flags: int, method: int, crc: int, size: int,
                  stored_size: int) -> bytes:
    """A member's local header, name and extra field, as zipfile writes them."""
    # zipfile picks the local zip64 extra from the size alone, before compressing
    zip64 = size * 1.05 > _ZIP64_LIMIT
    extra = struct.pack("<HHQQ", 1, 16, size, stored_size) if zip64 else b""
    sizes = (0xFFFFFFFF, 0xFFFFFFFF) if zip64 else (stored_size, size)
    return _LOCAL_HEADER.pack(b"PK\x03\x04", _ZIP64_VERSION if zip64 else _VERSION, 0, flags,
                              method, _DOS_TIME, _DOS_DATE, crc, *sizes, len(name),
                              len(extra)) + name + extra


def _probed(entry: ContainerEntry) -> tuple[int, Iterator[bytes | memoryview]]:
    """How the new entry `entry`, longer than 64 KiB, is written: stored
    when its first 64 KiB deflate no smaller, else deflated; and all its
    pieces, those drawn from `steps()` for that probe included."""
    pieces, head, held = iter(entry.steps()), [], 0
    for piece in pieces:  # one piece holds the 64 KiB unless steps are shorter
        head.append(piece)
        held += len(piece)
        if held >= _PROBE:
            break
    probe = zlib.compressobj(_DEFLATE_LEVEL, zlib.DEFLATED, -15)
    first = memoryview(head[0] if len(head) == 1 else b"".join(head))[:_PROBE]
    stored = len(probe.compress(first)) + len(probe.flush()) >= _PROBE
    return _STORED if stored else _DEFLATED, chain(head, pieces)


def _stream(pieces: Iterable[bytes | memoryview], method: int,
            write: Callable[[bytes | memoryview], object]) -> tuple[int, int]:
    """Write `pieces` through `write` as a member stored or deflated, by
    `method`, each as it comes: all feed one CRC-32 and, when deflated, one
    deflater. Returns their CRC-32 and the member's stored size."""
    # the stream zipfile.writestr produces at this level
    deflater = (zlib.compressobj(_DEFLATE_LEVEL, zlib.DEFLATED, -15) if method == _DEFLATED
                else None)
    crc = stored_size = 0
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
        if deflater is not None:
            piece = deflater.compress(piece)
        write(piece)
        stored_size += len(piece)
    if deflater is not None:
        piece = deflater.flush()
        write(piece)
        stored_size += len(piece)
    return crc, stored_size


def _write(container: Container, write: Callable[[bytes | memoryview], object],
           seek: Callable[..., int] | None = None) -> None:
    """Emit the archive write_container returns through `write`, in order:
    each member's local header and bytes as stored, then the central
    directory and the end records. A stored or deflated member read is
    copied by _copy, and a new entry of at most 64 KiB deflated in memory.
    A longer one is probed by _probed and streamed by _stream. Its local
    header goes first, as a bytearray with a CRC-32 and stored size of 0,
    and is filled in once they are known: in place, which a `write` that
    keeps what it is given holds, as write_container's list does, and,
    when `seek` (that of the file `write` writes into) is given, in the
    file through a seek back."""
    central: list[bytes] = []
    offset = 0
    start = 0 if seek is None else seek(0, io.SEEK_CUR)  # where the archive starts
    for path in _write_order(container.paths()):
        entry = container._entries[path]
        size = entry.size
        try:
            name, flags = path.encode("ascii"), 0
        except UnicodeEncodeError:
            name, flags = path.encode("utf-8"), _UTF8_NAME
        if entry._source is not None and entry._method in (_STORED, _DEFLATED):
            method, crc, stored_size = entry._method, entry._crc, entry._stored_size
            header = _local_header(name, flags, method, crc, size, stored_size)
            write(header)
            _copy(entry, write)
        elif size <= _PROBE:  # deflated before its header is written
            parts = []
            method, (crc, stored_size) = _DEFLATED, _stream(entry.steps(), _DEFLATED, parts.append)
            header = _local_header(name, flags, method, crc, size, stored_size)
            write(header)
            for part in parts:
                write(part)
        else:  # its header is filled in once its bytes are written
            method, pieces = _probed(entry)
            header = bytearray(_local_header(name, flags, method, 0, size, 0))
            write(header)
            crc, stored_size = _stream(pieces, method, write)
            header[:] = _local_header(name, flags, method, crc, size, stored_size)
            if seek is not None:
                seek(start + offset)
                write(header)
                seek(start + offset + len(header) + stored_size)

        # and the central zip64 extra from the values over the limit
        over = [size, stored_size] if max(size, stored_size) > _ZIP64_LIMIT else []
        sizes = (0xFFFFFFFF, 0xFFFFFFFF) if over else (stored_size, size)
        header_offset = offset
        if offset > _ZIP64_LIMIT:
            over.append(offset)
            header_offset = 0xFFFFFFFF
        version = _ZIP64_VERSION if over or size * 1.05 > _ZIP64_LIMIT else _VERSION
        central_extra = (struct.pack(f"<HH{len(over)}Q", 1, 8 * len(over), *over)
                         if over else b"")
        central += (_CENTRAL_HEADER.pack(b"PK\x01\x02", version, _UNIX, version, 0,
                                         flags, method, _DOS_TIME, _DOS_DATE, crc,
                                         *sizes, len(name), len(central_extra), 0, 0,
                                         0, _EXTERNAL_ATTR, header_offset),
                    name, central_extra)
        offset += len(header) + stored_size

    count, directory_offset = len(container), offset
    directory_size = sum(map(len, central))
    if (count > _FILECOUNT_LIMIT or directory_offset > _ZIP64_LIMIT
            or directory_size > _ZIP64_LIMIT):
        central += (_ZIP64_END_RECORD.pack(b"PK\x06\x06", 44, _ZIP64_VERSION,
                                           _ZIP64_VERSION, 0, 0, count, count,
                                           directory_size, directory_offset),
                    _ZIP64_LOCATOR.pack(b"PK\x06\x07", 0,
                                        directory_offset + directory_size, 1))
        count = min(count, 0xFFFF)
        directory_size = min(directory_size, 0xFFFFFFFF)
        directory_offset = min(directory_offset, 0xFFFFFFFF)
    central.append(_END_RECORD.pack(b"PK\x05\x06", 0, 0, count, count,
                                    directory_size, directory_offset, 0))
    for part in central:
        write(part)


def write_container(container: Container) -> bytes:
    """Serialize deterministically: fixed timestamps, fixed entry order.

    The bytes are those zipfile.ZipFile.writestr writes for the same
    entries, zip64 records included, except that a stored or deflated
    member read is copied as stored instead of deflated again, and a
    member longer than 64 KiB whose first 64 KiB deflate no smaller is
    written ZIP_STORED, as writestr would write it stored. A member read
    from a file is read again and checked, as `data` is. A new member
    longer than 64 KiB is deflated in steps, as it is written into a file,
    and its local header, appended before its bytes, is filled in after
    them.
    """
    # Parts are joined once at the end: growing one buffer instead raised
    # the peak RSS of writing a 20 MiB archive by 11 MiB.
    parts: list[bytes | memoryview] = []
    _write(container, parts.append)
    return b"".join(parts)
