"""open_container against the zipfile-based reader it replaced.

`zipfile_open_container` below is that reader, kept here as the oracle and
used nowhere else. Both give the same outcome on every input here: the
same refusal (exception class, rule and path), or the same members, bytes
and bytes as stored in the same order. Two disagreements are kept on
purpose: a damaged bzip2 or LZMA stream, whose error the oracle lets out,
and a stream that ends before its member's declared size, whose shorter
bytes the oracle takes.
"""

import io
import lzma
import struct
import subprocess
import sys
import tracemalloc
import zipfile
import zlib
from pathlib import Path

import pytest

from omexarchive import (
    Container,
    ContainerEntry,
    ValidationMode,
    open_container,
    validate_archive,
    write_container,
)
from omexarchive.container import check_path
from omexarchive.errors import CorruptEntry, NotAZip, OmexError

from conftest import FOREIGN_MANIFESTS, GOLDEN_FILES, build_container, raw_zip
from test_acceptance import _criterion_9_inputs

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"

# What zipfile and zlib raise on damaged input besides BadZipFile: unknown
# compression or encryption, undecodable names, bad deflate data, truncation.
_ZIP_FAILURES = (zipfile.BadZipFile, zlib.error, EOFError,
                 NotImplementedError, RuntimeError, ValueError)


def zipfile_open_container(data: bytes) -> Container:
    """The oracle: open_container as it read archives through zipfile."""
    data = bytes(data)
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
            if name.endswith("/"):
                if name.rstrip("/"):
                    check_path(name.rstrip("/"))
                continue
            # the member's bytes follow its local header's name and extra
            # field, whose lengths are at offset 26 (zf.read checks the rest)
            at = info.header_offset
            start = (at + 30 + int.from_bytes(data[at + 26:at + 28], "little")
                     + int.from_bytes(data[at + 28:at + 30], "little"))
            if start + info.compress_size > region_end[at]:
                raise CorruptEntry(name, f"corrupt entry {name!r}: its declared size reaches "
                                         "into the next member or the central directory")
            try:
                payload = zf.read(info)
            except _ZIP_FAILURES as exc:
                raise CorruptEntry(name, f"corrupt entry {name!r}: {exc}") from exc
            stored = None
            if info.compress_type in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED):
                size = (len(payload) if info.compress_type == zipfile.ZIP_STORED
                        else info.compress_size)
                stored = info.compress_type, info.CRC, view[start:start + size]
            container.add(ContainerEntry(name, payload, stored))
    return container


def outcome(read, data: bytes):
    """What `read` makes of `data`: its refusal, or every member it read."""
    try:
        container = read(data)
    except OmexError as exc:
        return type(exc), exc.rule, getattr(exc, "path", None)
    return [(e.path, e.data, e.stored and (e.stored[0], e.stored[1], bytes(e.stored[2])))
            for e in container.entries]


def assert_agree(named_inputs) -> int:
    """Assert both readers agree on each (name, bytes); returns how many opened."""
    opened = 0
    for name, data in named_inputs:
        new, old = outcome(open_container, data), outcome(zipfile_open_container, data)
        assert new == old, name
        opened += isinstance(new, list)
    return opened


# Criterion-9 byte flips in which a member's stream ends before its declared
# size, with that member. The oracle takes the shorter bytes when their CRC-32
# matches: it opens 228, 277 and 516, and refuses the others at a later member.
# open_container refuses the short member, so what it opens holds every byte
# its records declare.
_SHORT_STREAMS = {104: "manifest.xml", 168: "doc/article.pdf", 177: "manifest.xml",
                  228: "manifest.xml", 277: "simulation.xml", 516: "simulation.xml",
                  524: "doc/article.pdf"}


def test_the_readers_agree_on_the_criterion_9_inputs(golden_archive_bytes):
    inputs = _criterion_9_inputs(golden_archive_bytes)
    # the 10 corpus fixtures and 23 byte flips open; both readers refuse the rest alike
    assert assert_agree((f"criterion-9 input {i}", data) for i, data in enumerate(inputs)
                        if i not in _SHORT_STREAMS) == 33
    opened = []
    for i, path in _SHORT_STREAMS.items():
        with zipfile.ZipFile(io.BytesIO(inputs[i])) as zf:
            info = zf.getinfo(path)
            assert len(zf.read(info)) < info.file_size, i
        with pytest.raises(CorruptEntry, match="ends before its declared size") as refusal:
            open_container(inputs[i])
        assert refusal.value.path == path, i
        old = outcome(zipfile_open_container, inputs[i])
        if isinstance(old, list):
            opened.append(i)
        else:
            assert old[:2] == (CorruptEntry, "corrupt-entry"), i
    assert opened == [228, 277, 516]


def test_the_readers_agree_on_foreign_manifests():
    assert assert_agree(
        (name, write_container(build_container({**GOLDEN_FILES, "manifest.xml": manifest})))
        for name, manifest in FOREIGN_MANIFESTS.items()) == len(FOREIGN_MANIFESTS)


@pytest.mark.parametrize("workload", ["many-small", "edit-session"])
def test_the_readers_agree_on_generated_workloads(tmp_path, workload):
    subprocess.run([sys.executable, str(GEN), "--workload", workload, "--seed", "1",
                    "--out", str(tmp_path)], check=True, capture_output=True)
    names = ["base.omex", "variant.omex"]
    assert assert_agree((name, (tmp_path / name).read_bytes()) for name in names) == 2


def test_the_readers_agree_on_a_zip64_archive_of_65536_entries():
    count = zipfile.ZIP_FILECOUNT_LIMIT + 1
    written = write_container(Container([ContainerEntry(f"{i:05x}", b"") for i in range(count)]))
    assert written[-98:-94] == b"PK\x06\x06"  # the zip64 end record
    assert assert_agree([("zip64", written)]) == 1


def _zipfile_archive(compression: int, force_zip64: bool = False) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression) as zf:
        zf.writestr("manifest.xml", b"<omexManifest/>")
        with zf.open("a.txt", "w", force_zip64=force_zip64) as member:
            member.write(b"a member's text " * 64)
    return buf.getvalue()


def _with_flag(data: bytes, name: bytes, flag: int) -> bytes:
    """`data` with `flag` set for member `name` in its local header and central record."""
    data = bytearray(data)
    local, central = data.find(name) - 30, data.find(name, data.find(b"PK\x01\x02")) - 46
    for at in (local + 6, central + 8):  # where each record keeps its flags
        struct.pack_into("<H", data, at, struct.unpack_from("<H", data, at)[0] | flag)
    return bytes(data)


def test_the_readers_agree_on_zip64_stubs_and_other_methods(golden_archive_bytes):
    inputs = {
        "force_zip64": _zipfile_archive(zipfile.ZIP_DEFLATED, force_zip64=True),
        "stub prepended": b"#!/bin/sh\nexec unzip \"$0\"\n" + golden_archive_bytes,
        "bzip2 member": _zipfile_archive(zipfile.ZIP_BZIP2),
        "LZMA member": _zipfile_archive(zipfile.ZIP_LZMA),
        "encrypted member": _with_flag(_zipfile_archive(zipfile.ZIP_DEFLATED), b"a.txt", 0x1),
        "stored members": raw_zip([("manifest.xml", b"<m/>"), ("a.txt", b"stored")]),
    }
    assert b"\x01\x00\x10\x00" in inputs["force_zip64"]  # a local zip64 extra field
    assert assert_agree(inputs.items()) == 5  # all but the encrypted member


@pytest.mark.parametrize("compression, crash", [(zipfile.ZIP_BZIP2, OSError),
                                                (zipfile.ZIP_LZMA, lzma.LZMAError)])
def test_a_damaged_bzip2_or_lzma_member_is_corrupt_entry(compression, crash):
    # a disagreement kept on purpose: the oracle lets the decompressor's error
    # out, and validate_archive raised it
    data = bytearray(_zipfile_archive(compression))
    at = data.find(b"a.txt") + len(b"a.txt") + 8
    data[at:at + 2] = bytes(b ^ 0xA5 for b in data[at:at + 2])
    with pytest.raises(crash):
        zipfile_open_container(bytes(data))
    with pytest.raises(CorruptEntry) as refusal:
        open_container(bytes(data))
    assert refusal.value.path == "a.txt"
    [finding] = validate_archive(bytes(data), ValidationMode.LENIENT)
    assert (finding.rule, finding.location) == ("corrupt-entry", "a.txt")


def test_a_member_inflating_past_its_declared_size_is_refused_in_bounded_memory():
    payload = bytes(1 << 20)
    data = bytearray(write_container(Container([ContainerEntry("bomb.bin", payload)])))
    assert len(data) < 4096
    central = data.find(b"PK\x01\x02")
    struct.pack_into("<L", data, 22, 10)  # the declared size, in the local header
    struct.pack_into("<L", data, central + 24, 10)  # and in the central record
    data = bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptEntry) as refusal:
            open_container(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (refusal.value.rule, refusal.value.path) == ("corrupt-entry", "bomb.bin")
    assert peak < (1 << 20) // 4, peak


def test_open_container_makes_no_zipfile_call(monkeypatch, golden_archive_bytes):
    monkeypatch.delattr(zipfile, "ZipFile")
    assert open_container(golden_archive_bytes) == build_container(GOLDEN_FILES)
