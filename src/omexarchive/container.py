"""Byte-level ZIP container access with deterministic serialization.

Entries are kept in memory; writing always rebuilds the whole ZIP with
fixed timestamps and a fixed entry order so identical containers
serialize to identical bytes.
"""

from __future__ import annotations

import enum
import io
import re
import zipfile
import zlib
from dataclasses import dataclass

from .errors import (
    CorruptEntry,
    InvalidContainer,
    NoSuchEntry,
    NotAZip,
    UnsafePath,
)

# Fixed DOS timestamp for every written entry (the ZIP epoch).
_FIXED_DATE_TIME = (1980, 1, 1, 0, 0, 0)
_DEFLATE_LEVEL = 6

# Looks like a URI scheme or a Windows drive letter at the start of a path.
_SCHEME_OR_DRIVE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")

# What zipfile and zlib raise on damaged input besides BadZipFile: unknown
# compression or encryption, undecodable names, bad deflate data, truncation.
_ZIP_FAILURES = (zipfile.BadZipFile, zlib.error, EOFError,
                 NotImplementedError, RuntimeError, ValueError)


class Compression(enum.Enum):
    DEFLATE = "deflate"
    STORE = "store"


def check_path(path: str) -> str:
    """Validate a container entry path; returns it unchanged.

    Raises UnsafePath unless the path is non-empty, slash-separated,
    relative, and free of `..`, empty and `.` segments.
    """
    if not path:
        raise UnsafePath(path, "empty path")
    if "\\" in path:
        raise UnsafePath(path, "backslash separator")
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
    return path


@dataclass(frozen=True)
class ContainerEntry:
    path: str
    data: bytes
    compression: Compression = Compression.DEFLATE

    def __post_init__(self):
        check_path(self.path)


class Container:
    """An ordered set of entries with unique paths. Value semantics."""

    def __init__(self, entries: list[ContainerEntry] | None = None):
        self._entries: dict[str, ContainerEntry] = {}
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
            raise InvalidContainer(f"duplicate entry path {entry.path!r}")
        self._entries[entry.path] = entry

    def put(self, path: str, data: bytes,
            compression: Compression = Compression.DEFLATE) -> None:
        """Add or replace the entry at `path`."""
        self._entries[path] = ContainerEntry(path, data, compression)

    def remove(self, path: str) -> None:
        if path not in self._entries:
            raise NoSuchEntry(path)
        del self._entries[path]

    def get(self, path: str) -> bytes:
        try:
            return self._entries[path].data
        except KeyError:
            raise NoSuchEntry(path) from None

    def copy(self) -> "Container":
        return Container(self.entries)

    def byte_map(self) -> dict[str, bytes]:
        return {e.path: e.data for e in self.entries}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Container):
            return NotImplemented
        return self.byte_map() == other.byte_map()


def open_container(data: bytes) -> Container:
    """Read a ZIP stream into a Container, rejecting unsafe entry names."""
    try:
        zf = zipfile.ZipFile(io.BytesIO(data))
    except _ZIP_FAILURES as exc:
        raise NotAZip(str(exc)) from exc
    container = Container()
    with zf:
        seen: set[str] = set()
        for info in zf.infolist():
            name = info.filename
            if name.rstrip("/"):
                check_path(name.rstrip("/"))
            if name.endswith("/"):
                continue  # directory entry
            if name in seen:
                raise UnsafePath(name, "duplicate entry")
            seen.add(name)
            try:
                payload = zf.read(info)
            except _ZIP_FAILURES as exc:
                raise CorruptEntry(name, f"corrupt entry {name!r}: {exc}") from exc
            compression = (
                Compression.STORE
                if info.compress_type == zipfile.ZIP_STORED
                else Compression.DEFLATE
            )
            container.add(ContainerEntry(name, payload, compression))
    return container


def _write_order(paths: list[str]) -> list[str]:
    # manifest.xml first so readers can locate it early, then lexicographic.
    return sorted(paths, key=lambda p: (p != "manifest.xml", p))


def write_container(container: Container) -> bytes:
    """Serialize deterministically: fixed timestamps, fixed entry order."""
    entries = {e.path: e for e in container.entries}
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", allowZip64=True) as zf:
        for path in _write_order(list(entries)):
            entry = entries[path]
            info = zipfile.ZipInfo(path, date_time=_FIXED_DATE_TIME)
            info.create_system = 3  # unix, irrespective of host platform
            info.external_attr = 0o644 << 16
            if entry.compression is Compression.STORE:
                info.compress_type = zipfile.ZIP_STORED
            else:
                info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, entry.data, compresslevel=_DEFLATE_LEVEL)
    return buf.getvalue()
