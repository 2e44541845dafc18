"""open_container against the zipfile-based reader it replaced.

`zipfile_open_container` below is that reader, kept here as the oracle and
used nowhere else. Both give the same outcome on every input here: the
same refusal (exception class, rule and path), or the same members, bytes
and bytes as stored in the same order. Three disagreements are kept on
purpose, as open_container takes a member only when exactly its declared
size comes out: a damaged bzip2 or LZMA stream, whose error the oracle lets
out; a stream that ends before its member's declared size, whose shorter
bytes the oracle takes; and a stream that runs past it, whose first
declared bytes the oracle takes.
"""

import io
import lzma
import os
import random
import struct
import subprocess
import sys
import tracemalloc
import zipfile
import zlib
from collections import Counter
from pathlib import Path

import pytest

from omexarchive import (
    Archive,
    Container,
    ContainerEntry,
    Manifest,
    ValidationMode,
    open_container,
    validate_archive,
    write_container,
)
from omexarchive.container import _copy, check_path
from omexarchive.errors import CorruptEntry, NotAZip, OmexError

from conftest import FOREIGN_MANIFESTS, GOLDEN_FILES, build_container, raw_zip
from test_acceptance import _criterion_9_inputs

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"

# What zipfile and zlib raise on damaged input besides BadZipFile: unknown
# compression or encryption, undecodable names, bad deflate data, truncation.
_ZIP_FAILURES = (zipfile.BadZipFile, zlib.error, EOFError,
                 NotImplementedError, RuntimeError, ValueError)


class _Expected(ContainerEntry):
    """A member as the oracle reads it: `stored` is the (method, CRC-32,
    bytes as stored) it expects the writer to copy of open_container's."""

    __slots__ = ("stored",)

    def __init__(self, path: str, data: bytes, stored):
        super().__init__(path, data)
        self.stored = stored


def zipfile_open_container(data: bytes) -> Container:
    """The oracle: open_container as it read archives through zipfile."""
    data = bytes(data)
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
                raise CorruptEntry(name, "its declared size reaches "
                                         "into the next member or the central directory")
            try:
                payload = zf.read(info)
            except _ZIP_FAILURES as exc:
                raise CorruptEntry(name, str(exc)) from exc
            stored = None
            if info.compress_type in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED):
                size = (len(payload) if info.compress_type == zipfile.ZIP_STORED
                        else info.compress_size)
                stored = info.compress_type, info.CRC, data[start:start + size]
            container.add(_Expected(name, payload, stored))
    return container


def copied(entry: ContainerEntry):
    """(method, CRC-32, bytes as stored) that the writer copies of the
    member read `entry`, or None where it writes the member anew."""
    if isinstance(entry, _Expected):
        return entry.stored
    if entry._method not in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED):
        return None
    parts = []
    _copy(entry, parts.append)
    return entry._method, entry._crc, b"".join(parts)


def outcome(read, data: bytes):
    """What `read` makes of `data`: its refusal, or every member it read."""
    try:
        container = read(data)
    except OmexError as exc:
        return type(exc), exc.rule, getattr(exc, "path", None)
    return [(e.path, e.data, copied(e)) for e in container.entries]


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


# Criterion-9 byte flips in which a member's stream runs past its declared
# size, with that member. The oracle keeps its first declared bytes, which pass
# the CRC-32, and refuses at a later member.
_LONG_STREAMS = {169: ("manifest.xml", "metadata.rdf")}


def test_the_readers_agree_on_the_criterion_9_inputs(golden_archive_bytes):
    inputs = _criterion_9_inputs(golden_archive_bytes)
    # the 10 corpus fixtures and 23 byte flips open; both readers refuse the rest alike
    assert assert_agree((f"criterion-9 input {i}", data) for i, data in enumerate(inputs)
                        if i not in _SHORT_STREAMS and i not in _LONG_STREAMS) == 33
    for i, (path, oracle_path) in _LONG_STREAMS.items():
        with pytest.raises(CorruptEntry, match="runs past its declared size") as refusal:
            open_container(inputs[i])
        assert refusal.value.path == path, i
        assert outcome(zipfile_open_container, inputs[i]) == (
            CorruptEntry, "corrupt-entry", oracle_path), i
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


def _declaring(data: bytes, name: bytes, size: int, crc: int) -> bytes:
    """`data` with member `name`'s declared size and CRC-32 set to these, in
    its local header and its central record."""
    data = bytearray(data)
    local, central = data.find(name) - 30, data.find(name, data.find(b"PK\x01\x02")) - 46
    for at in (local + 14, central + 16):  # where each record keeps its CRC-32
        struct.pack_into("<L", data, at, crc)
        struct.pack_into("<L", data, at + 8, size)  # after the stored size
    return bytes(data)


@pytest.mark.parametrize("compression", [zipfile.ZIP_DEFLATED, zipfile.ZIP_STORED],
                         ids=["deflated", "stored"])
def test_a_member_longer_than_declared_is_refused_though_its_prefix_passes(compression):
    # a disagreement kept on purpose: the oracle, like zipfile, opens the
    # member as the bytes it declares and drops the rest unseen
    text = b"abc" + b"the rest " * 333
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression) as zf:
        zf.writestr("manifest.xml", b"<omexManifest/>")
        zf.writestr("a.txt", text)
    data = _declaring(buf.getvalue(), b"a.txt", 3, zlib.crc32(b"abc"))
    assert zipfile_open_container(data).get("a.txt") == b"abc"
    with pytest.raises(CorruptEntry, match="runs past its declared size") as refusal:
        open_container(data)
    assert refusal.value.path == "a.txt"
    [finding] = validate_archive(data, ValidationMode.LENIENT)
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
    assert "runs past its declared size" in str(refusal.value)
    # zlib's inflate state and 32 KiB window take about 40 KB of this; inflating
    # 64 KiB more of the stream would pass it
    assert peak < 1 << 16, peak


def _record_bytes(data: bytes) -> list[int]:
    """Where `data`'s ZIP records lie: each local header with its name and
    extra field, then the central directory and the end records."""
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        infos, start = zf.infolist(), zf.start_dir
    records = []
    for info in infos:  # a local header's name and extra field lengths are at 26
        at = info.header_offset
        records += range(at, at + 30 + sum(struct.unpack_from("<HH", data, at + 26)))
    return records + list(range(start, len(data)))


def _record_mutants(data: bytes, count: int, seed: int):
    """Seeded mutants of `data`, each with 1-4 bytes changed, three in four of
    them within a ZIP record: set at random, a bit flipped, or one up or down."""
    rng, records = random.Random(seed), _record_bytes(data)
    for _ in range(count):
        mutant = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            at = rng.choice(records) if rng.random() < 0.75 else rng.randrange(len(data))
            mutant[at] = rng.choice((rng.randrange(256), mutant[at] ^ 1 << rng.randrange(8),
                                     (mutant[at] + 1) % 256, (mutant[at] - 1) % 256))
        yield bytes(mutant)


def _departure(data: bytes, old) -> str:
    """Which named departure explains the readers' disagreement on `data`,
    judged by what zipfile reads of the member open_container refused; `old`
    is the oracle's outcome, or the error it let out."""
    try:
        open_container(data)
    except CorruptEntry as exc:
        path, reason = exc.path, str(exc)
    else:
        return "open_container opened it"
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        infos = zf.infolist()
        names = [info.orig_filename for info in infos]
        info = infos[names.index(path)]
        if not (isinstance(old, (list, Exception)) or old[2] in names[names.index(path) + 1:]):
            return f"the oracle refused {old} before reaching {path!r}"
        try:
            read = len(zf.read(info))
        except (OSError, lzma.LZMAError):  # what bz2 and lzma raise on damaged data
            if info.compress_type in (zipfile.ZIP_BZIP2, zipfile.ZIP_LZMA):
                return "damaged bzip2 or LZMA"
            raise
    if read < info.file_size and "ends before its declared size" in reason:
        return "short stream"
    if read == info.file_size and "runs past its declared size" in reason:
        return "long stream"
    return f"{path!r}: {reason}; zipfile reads {read} of {info.file_size} bytes"


def test_the_readers_differ_on_record_mutants_only_by_named_departures(golden_archive_bytes):
    bases = {
        "golden": golden_archive_bytes,
        "bzip2 member": _zipfile_archive(zipfile.ZIP_BZIP2),
        "LZMA member": _zipfile_archive(zipfile.ZIP_LZMA),
        "zip64 stub": b"#!/bin/sh\nexec unzip \"$0\"\n"
                      + _zipfile_archive(zipfile.ZIP_DEFLATED, force_zip64=True),
    }
    seen = Counter()
    for base, data in bases.items():
        for i, mutant in enumerate(_record_mutants(data, 2000, seed=19)):
            new = outcome(open_container, mutant)
            try:
                old = outcome(zipfile_open_container, mutant)
            except (OSError, lzma.LZMAError) as exc:  # a damaged bzip2 or LZMA stream
                old = exc
            seen["open" if isinstance(new, list) else "refused"] += 1
            if new != old:
                departure = _departure(mutant, old)
                assert departure in ("short stream", "long stream",
                                     "damaged bzip2 or LZMA"), (base, i, departure)
                seen[departure] += 1
    # every outcome and every departure occurs
    assert all(seen[key] for key in ("open", "refused", "short stream", "long stream",
                                     "damaged bzip2 or LZMA")), seen


def test_open_container_makes_no_zipfile_call(monkeypatch, golden_archive_bytes):
    monkeypatch.delattr(zipfile, "ZipFile")
    assert open_container(golden_archive_bytes) == build_container(GOLDEN_FILES)


def _local(name: bytes, method: int, crc: int, stored: int, size: int,
           extra_length: int = 0, flags: int = 0) -> bytes:
    """A local header for `name` as zipfile packs it, with the name."""
    return struct.pack("<4s2B4HL2L2H", b"PK\x03\x04", 20, 0, flags, method, 0, 0x21,
                       crc, stored, size, len(name), extra_length) + name


def _handmade(local: bytes, records: list[tuple]) -> bytes:
    """The bytes `local`, then a central record for each (name, method,
    CRC-32, stored size, size, extra field, local header offset) and the
    end record."""
    central = b"".join(
        struct.pack("<4s4B4HL2L5H2L", b"PK\x01\x02", 20, 3, 20, 0, 0, method, 0, 0x21, crc,
                    stored, size, len(name), len(extra), 0, 0, 0, 0, offset) + name + extra
        for name, method, crc, stored, size, extra, offset in records)
    return local + central + struct.pack("<4s4H2LH", b"PK\x05\x06", 0, 0, len(records),
                                         len(records), len(central), len(local), 0)


def _past_the_end() -> bytes:
    """148 bytes: stored member `a`, empty, whose 5 stored bytes start past
    the archive's end, as its local header declares a 200-byte extra field
    the archive lacks; directory `d/`'s header offset makes `a`'s range end
    at 1,000,000."""
    data = _handmade(_local(b"a", 0, 0, 5, 0, extra_length=200),
                     [(b"a", 0, 0, 5, 0, b"", 0), (b"d/", 0, 0, 0, 0, b"", 1_000_000)])
    assert len(data) == 148
    return data


def _local_name_not_utf8() -> bytes:
    """Member `a.txt` whose local header flags its name UTF-8 and holds a
    byte that is not."""
    data = bytearray(raw_zip([("a.txt", b"abc")]))
    assert data.startswith(b"PK\x03\x04") and data[30:35] == b"a.txt"
    struct.pack_into("<H", data, 6, 0x800)
    data[30] = 0xFF
    return bytes(data)


@pytest.mark.parametrize("data, refusal, match", [
    (_past_the_end(), CorruptEntry, "runs past the end of the archive"),
    (_handmade(_local(b"a.txt", 0, zlib.crc32(b"abc"), 3, 3) + b"abc",
               [(b"a.txt", 0, zlib.crc32(b"abc"), 3, 0xFFFFFFFF,
                 struct.pack("<HH4s", 1, 4, b"\0" * 4), 0)]),
     NotAZip, "Corrupt zip64 extra field"),
    (_local_name_not_utf8(), CorruptEntry, "local header does not match"),
], ids=["past the end", "short zip64 field", "local name not UTF-8"])
def test_a_malformed_record_is_refused_as_zipfile_refuses_it(data, refusal, match):
    with pytest.raises(refusal, match=match):
        open_container(data)
    assert_agree([(match, data)])


@pytest.mark.parametrize("disk, disks", [(1, 1), (0, 2)])
def test_a_zip64_locator_of_more_than_one_disk_is_refused(monkeypatch, disk, disks):
    monkeypatch.setattr("omexarchive.container._FILECOUNT_LIMIT", 0)  # a zip64 end record
    data = bytearray(write_container(build_container({"a.txt": b"abc"})))
    monkeypatch.undo()
    locator = len(data) - 22 - 20
    assert data[locator:locator + 4] == b"PK\x06\x07"
    assert open_container(bytes(data)).get("a.txt") == b"abc"
    struct.pack_into("<L", data, locator + 4, disk)
    struct.pack_into("<L", data, locator + 16, disks)
    with pytest.raises(NotAZip, match="span multiple disks"):
        open_container(bytes(data))
    assert_agree([("spanning", bytes(data))])


@pytest.mark.parametrize("method", [zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED],
                         ids=["stored", "deflated"])
def test_a_member_declaring_2_to_the_64_minus_1_bytes_ends_short(method):
    text = b"abc"
    stored = text if method == zipfile.ZIP_STORED else zlib.compress(text)[2:-4]
    crc, size = zlib.crc32(text), (1 << 64) - 1
    data = _handmade(_local(b"a.txt", method, crc, len(stored), 0xFFFFFFFF) + stored,
                     [(b"a.txt", method, crc, len(stored), 0xFFFFFFFF,
                       struct.pack("<HHQ", 1, 8, size), 0)])
    with pytest.raises(CorruptEntry, match="ends before its declared size") as refusal:
        open_container(data)
    assert refusal.value.path == "a.txt"


def _from_file(data: bytes) -> Container:
    """open_container of `data` given as a binary file."""
    return open_container(io.BytesIO(data))


def test_a_file_reads_as_its_bytes_on_every_reader_input(golden_archive_bytes):
    # the criterion-9 inputs, the bases of the record mutants and of the other
    # methods, the malformed records above, and the 8,000 record mutants
    bases = [golden_archive_bytes,
             _zipfile_archive(zipfile.ZIP_BZIP2),
             _zipfile_archive(zipfile.ZIP_LZMA),
             b"#!/bin/sh\nexec unzip \"$0\"\n"
             + _zipfile_archive(zipfile.ZIP_DEFLATED, force_zip64=True)]
    inputs = [*_criterion_9_inputs(golden_archive_bytes), *bases,
              _with_flag(_zipfile_archive(zipfile.ZIP_DEFLATED), b"a.txt", 0x1),
              raw_zip([("manifest.xml", b"<m/>"), ("a.txt", b"stored")]),
              _past_the_end(), _local_name_not_utf8()]
    for base in bases:
        inputs += _record_mutants(base, 2000, seed=19)
    seen = Counter()
    for i, data in enumerate(inputs):
        from_bytes = outcome(open_container, data)
        assert outcome(_from_file, data) == from_bytes, i
        seen[isinstance(from_bytes, list)] += 1
    assert seen[True] > 1000 and seen[False] > 1000, seen


def test_every_corrupt_entry_the_reader_raises_gives_its_reason(golden_archive_bytes):
    # the criterion-9 inputs and the 8,000 record mutants
    bases = [golden_archive_bytes,
             _zipfile_archive(zipfile.ZIP_BZIP2),
             _zipfile_archive(zipfile.ZIP_LZMA),
             b"#!/bin/sh\nexec unzip \"$0\"\n"
             + _zipfile_archive(zipfile.ZIP_DEFLATED, force_zip64=True)]
    inputs = [*_criterion_9_inputs(golden_archive_bytes),
              *(mutant for base in bases for mutant in _record_mutants(base, 2000, seed=19))]
    reasons = set()
    for i, data in enumerate(inputs):
        try:
            open_container(data)
        except CorruptEntry as exc:
            assert exc.reason and exc.location == exc.path, i
            assert str(exc) == f"corrupt entry {exc.path!r}: {exc.reason}", i
            reasons.add(exc.reason.replace(repr(exc.path), "NAME"))
        except OmexError:
            pass
    # the reader's own reasons occur, beside the decompressors'
    assert {"its local header lies outside the archive",
            "its declared size reaches into the next member or the central directory",
            "its local header does not match its central record",
            "encrypted or patched data",
            "its data ends before its declared size",
            "its data runs past its declared size",
            "Bad CRC-32 for file NAME",
            "Invalid data stream"} < reasons, reasons


def _long_members() -> dict[str, bytes]:
    """Members whose bytes as stored run past 64 KiB, so a file source reads
    them again, and one whose bytes as stored fit in 64 KiB though it does not."""
    rng = random.Random(23)
    return {"manifest.xml": b"<omexManifest/>",
            "blob.bin": rng.randbytes(300_000),
            "text.txt": b"".join(b"line %d\n" % rng.randrange(10 ** 6) for _ in range(60_000)),
            "zeros.bin": bytes(1 << 20)}


@pytest.mark.parametrize("buffering", [0, -1], ids=["FileIO", "BufferedReader"])
def test_an_open_file_reads_as_its_bytes(tmp_path, golden_archive_bytes, buffering):
    long = write_container(build_container(_long_members()))
    with zipfile.ZipFile(io.BytesIO(long)) as zf:
        members = {info.filename: info for info in zf.infolist()}
    assert members["text.txt"].compress_size > 1 << 16 > members["zeros.bin"].compress_size
    path = tmp_path / "a.zip"
    for i, data in enumerate([long, *_criterion_9_inputs(golden_archive_bytes)]):
        path.write_bytes(data)
        with open(path, "rb", buffering=buffering) as file:
            assert outcome(lambda _: open_container(file), data) == outcome(open_container, data), i


def _changed_after_the_open(path: Path, name: str, change: str) -> None:
    """Change the file at `path` in place, as another process might: flip the
    middle byte of member `name`'s bytes as stored, or cut the file there."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(name)
    with open(path, "rb") as file:
        file.seek(info.header_offset + 26)
        start = info.header_offset + 30 + sum(struct.unpack("<HH", file.read(4)))
        middle = start + info.compress_size // 2
        file.seek(middle)
        byte = file.read(1)[0]
    if change == "truncated":
        os.truncate(path, middle)
        return
    fd = os.open(path, os.O_WRONLY)
    try:
        assert os.pwrite(fd, bytes([byte ^ 0xFF]), middle) == 1
    finally:
        os.close(fd)


@pytest.mark.parametrize("change", ["rewritten", "truncated"])
@pytest.mark.parametrize("read", ["data", "steps", "write_container", "Archive.write"])
@pytest.mark.parametrize("name", ["blob.bin", "text.txt"], ids=["stored", "deflated"])
def test_a_long_member_changed_after_the_open_is_refused_when_read(tmp_path, change, read, name):
    path = tmp_path / "a.zip"
    path.write_bytes(write_container(build_container(_long_members())))
    with open(path, "rb") as file:
        container = open_container(file)
        [entry] = [e for e in container.entries if e.path == name]
        _changed_after_the_open(path, name, change)
        with pytest.raises(CorruptEntry) as refusal:
            if read == "data":
                entry.data
            elif read == "steps":
                for _ in entry.steps():
                    pass
            elif read == "write_container":
                write_container(container)
            else:
                with open(tmp_path / "out.zip", "wb") as out:
                    Archive(container, Manifest(())).write(out)
    assert (refusal.value.rule, refusal.value.path) == ("corrupt-entry", name)


def test_what_reading_a_file_raises_propagates(tmp_path):
    path = tmp_path / "a.zip"
    path.write_bytes(write_container(build_container(_long_members())))
    with open(path, "rb") as file:
        container = open_container(file)
    # the members whose bytes as stored fit in a step are held; the others are read
    assert container.get("zeros.bin") == bytes(1 << 20)
    with pytest.raises(ValueError, match="closed file"):
        container.get("blob.bin")


def _with_comment(data: bytes, comment: bytes) -> bytes:
    """`data`, whose end record ends it and has no comment, with `comment`."""
    assert data[-2:] == b"\0\0"
    return data[:-2] + struct.pack("<H", len(comment)) + comment


def test_the_end_records_are_found_before_the_longest_comment(monkeypatch, golden_archive_bytes):
    # the comment runs to 65,535 bytes, so the end record, and the zip64 records
    # before it, lie at the far end of the tail the reader looks in
    monkeypatch.setattr("omexarchive.container._FILECOUNT_LIMIT", 0)  # a zip64 end record
    zip64 = write_container(build_container({"a.txt": b"abc"}))
    monkeypatch.undo()
    comment = bytes(range(256)).replace(b"PK", b"pk") * 255 + b"x" * 255
    inputs = [(name, _with_comment(data, comment))
              for name, data in [("golden", golden_archive_bytes), ("zip64", zip64)]]
    assert len(comment) == 0xFFFF and b"PK\x06\x06" in inputs[1][1]
    assert assert_agree(inputs) == 2
    for name, data in inputs:
        assert outcome(_from_file, data) == outcome(open_container, data), name


class _CountedReads(io.BytesIO):
    def __init__(self, data: bytes):
        super().__init__(data)
        self.reads = 0

    def read(self, size=-1):
        self.reads += 1
        return super().read(size)


def test_a_member_declaring_a_tebibyte_stops_reading_where_the_archive_ends():
    text, size = b"abc", 1 << 40
    crc = zlib.crc32(text)
    data = _handmade(_local(b"a.txt", 0, crc, 0xFFFFFFFF, 0xFFFFFFFF) + text,
                     [(b"a.txt", 0, crc, 0xFFFFFFFF, 0xFFFFFFFF,
                       struct.pack("<HHQQ", 1, 16, size, size), 0),
                      # a directory entry far past the end, where a's range ends
                      (b"d/", 0, 0, 0, 0, struct.pack("<HHQ", 1, 8, 1 << 50), 0xFFFFFFFF)])
    for source in (data, _CountedReads(data)):
        with pytest.raises(CorruptEntry, match="ends before its declared size") as refusal:
            open_container(source)
        assert refusal.value.path == "a.txt"
    # the tail, the central directory, the local header, its name and extra
    # field, and the one short step
    assert source.reads == 5
