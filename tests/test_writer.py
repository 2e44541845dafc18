"""write_container against zipfile: byte parity and the raw-copy path."""

import io
import os
import random
import struct
import tracemalloc
import zipfile
import zlib

import pytest

from omexarchive import (
    Container,
    ContainerEntry,
    Creator,
    MetadataSet,
    Timestamp,
    ValidationMode,
    add_entry,
    create_archive,
    open_archive,
    open_container,
    remove_entry,
    set_metadata,
    validate_archive,
    write_container,
)
from omexarchive.archive import pack_directory, stamp_block
from omexarchive.container import _FILECOUNT_LIMIT, _ZIP64_LIMIT, _stream, _write_order
from omexarchive.formats import format_for_filename
from omexarchive.errors import CorruptEntry

TEXT = "http://purl.org/NET/mediatypes/text/plain"


def zipfile_write(container: Container, stored: frozenset[str] = frozenset()) -> bytes:
    """The oracle: what zipfile.writestr writes for the container's entries,
    those at `stored` as ZIP_STORED and the rest deflated."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", allowZip64=True) as zf:
        for path in _write_order(container.paths()):
            info = zipfile.ZipInfo(path, date_time=(1980, 1, 1, 0, 0, 0))
            info.create_system = 3
            info.external_attr = 0o644 << 16
            info.compress_type = zipfile.ZIP_STORED if path in stored else zipfile.ZIP_DEFLATED
            zf.writestr(info, container.get(path), compresslevel=6)
    return buf.getvalue()


def stored_bytes(data: bytes, name: str) -> bytes:
    """A member's bytes as stored in the ZIP `data`."""
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        info = zf.getinfo(name)
    start = info.header_offset + 30 + len(info.filename.encode()) + len(info.extra)
    # local and central extra fields are equal in the archives built here
    return data[start:start + info.compress_size]


def _entries(rng: random.Random) -> list[ContainerEntry]:
    entries = [
        ContainerEntry("manifest.xml", b"<omexManifest/>"),
        ContainerEntry("empty.txt", b""),
        ContainerEntry("modèles/中.xml", b"<sbml/>" * 50),
        ContainerEntry("blob.bin", rng.randbytes(3000)),
    ]
    for i in range(20):
        text = " ".join(rng.choice(["alpha", "beta", "gamma"]) for _ in range(rng.randrange(200)))
        entries.append(ContainerEntry(f"d{i % 3}/f{i}.txt", text.encode()))
    return entries


def test_fresh_entries_match_zipfile():
    container = Container(_entries(random.Random(1)))
    written = write_container(container)
    assert written == zipfile_write(container)
    assert open_container(written) == container
    with zipfile.ZipFile(io.BytesIO(written)) as zf:
        assert zf.getinfo("modèles/中.xml").flag_bits & 0x800  # UTF-8 name


def test_empty_container_matches_zipfile():
    assert write_container(Container()) == zipfile_write(Container())


def test_zip64_end_record_over_65535_entries():
    count = zipfile.ZIP_FILECOUNT_LIMIT + 1
    container = Container([ContainerEntry(f"{i:05x}", b"") for i in range(count)])
    written = write_container(container)
    assert written[-98:-94] == b"PK\x06\x06"  # the zip64 end record
    assert written == zipfile_write(container)


def test_zip64_extras_under_a_lowered_limit(monkeypatch):
    # sizes below, near (file_size * 1.05 over the limit) and above the
    # limit, and header offsets past it; the writer and its oracle share the limit
    monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 1000)
    monkeypatch.setattr("omexarchive.container._ZIP64_LIMIT", 1000)
    rng = random.Random(3)
    container = Container([
        ContainerEntry("a.bin", rng.randbytes(500)),
        ContainerEntry("b.bin", rng.randbytes(980)),
        ContainerEntry("c.bin", rng.randbytes(1500)),
        ContainerEntry("d.txt", b"small"),
        ContainerEntry("e.txt", b"x" * 4000),
    ])
    written = write_container(container)
    assert written == zipfile_write(container)
    reopened = open_container(written)
    assert reopened == container
    assert write_container(reopened) == written


def test_zip64_thresholds_are_those_of_zipfile():
    assert (_ZIP64_LIMIT, _FILECOUNT_LIMIT) == (zipfile.ZIP64_LIMIT, zipfile.ZIP_FILECOUNT_LIMIT)


def _level9_archive() -> tuple[bytes, bytes]:
    """An archive whose model.xml zipfile deflated at level 9, and that payload."""
    rng = random.Random(4)
    words = [bytes(rng.choices(b"abcdefgh", k=rng.randrange(3, 9))) for _ in range(400)]
    payload = b" ".join(rng.choice(words) for _ in range(20000))
    level6 = zlib.compressobj(6, zlib.DEFLATED, -15)
    level9 = zlib.compressobj(9, zlib.DEFLATED, -15)
    assert level6.compress(payload) + level6.flush() != level9.compress(payload) + level9.flush()
    return _zipfile_archive(payload, zipfile.ZIP_DEFLATED, 9), payload


def _zipfile_archive(payload: bytes, compression: int, level: int | None = None) -> bytes:
    """An archive zipfile wrote, listing model.xml with `payload`."""
    manifest = (
        '<omexManifest xmlns="http://identifiers.org/combine.specifications/omex-manifest">'
        '<content location="." format="http://identifiers.org/combine.specifications/omex"/>'
        f'<content location="model.xml" format="{TEXT}"/></omexManifest>'
    ).encode()
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression, compresslevel=level) as zf:
        zf.writestr("manifest.xml", manifest)
        zf.writestr("model.xml", payload)
    return buf.getvalue()


def test_unchanged_member_keeps_its_stored_bytes():
    data, payload = _level9_archive()
    archive = open_archive(data)
    kept = stored_bytes(data, "model.xml")
    written = archive.to_bytes()
    assert stored_bytes(written, "model.xml") == kept
    assert written != zipfile_write(archive.container)  # not re-deflated
    assert open_archive(written).container.get("model.xml") == payload
    # the edit session shares untouched entries, so they stay raw-copied
    edited = add_entry(archive, "b.txt", TEXT, b"b")
    edited = set_metadata(remove_entry(edited, "b.txt"), _metadata())
    assert stored_bytes(edited.to_bytes(), "model.xml") == kept


def test_stored_member_is_copied_stored():
    payload = b"<sbml/>" * 100
    data = _zipfile_archive(payload, zipfile.ZIP_STORED)
    written = add_entry(open_archive(data), "b.txt", TEXT, b"b").to_bytes()
    with zipfile.ZipFile(io.BytesIO(written)) as zf:
        assert zf.getinfo("model.xml").compress_type == zipfile.ZIP_STORED
        assert zf.getinfo("b.txt").compress_type == zipfile.ZIP_DEFLATED
    assert stored_bytes(written, "model.xml") == stored_bytes(data, "model.xml") == payload


def _metadata() -> MetadataSet:
    meta = MetadataSet()
    meta.add(stamp_block(Creator(family_name="Doe"),
                         Timestamp.parse("2020-01-01T00:00:00Z")))
    return meta


def test_replaced_member_is_deflated_again():
    data, payload = _level9_archive()
    container = open_container(data)
    container.remove("model.xml")
    container.add(ContainerEntry("model.xml", payload))
    written = write_container(container)
    assert stored_bytes(written, "model.xml") != stored_bytes(data, "model.xml")
    assert written == zipfile_write(container)


@pytest.mark.parametrize("compression", [zipfile.ZIP_BZIP2, zipfile.ZIP_LZMA])
def test_bzip2_member_is_deflated_again(compression):
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression) as zf:
        zf.writestr("manifest.xml", b"<omexManifest/>")
        zf.writestr("a.txt", b"bzip2 " * 100)
    container = open_container(buf.getvalue())
    assert {e._method for e in container.entries} == {compression}  # not copied
    written = write_container(container)
    assert written == zipfile_write(container)
    with zipfile.ZipFile(io.BytesIO(written)) as zf:
        assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_DEFLATED}


def test_declared_size_past_the_member_is_refused():
    # zipfile stops at the end of the deflate stream, and before Python 3.13
    # never looked at the bytes a central record claims beyond it
    container = Container([ContainerEntry("a.txt", b"abc" * 100)])
    written = write_container(container)
    grown = bytearray(written)
    at = grown.rfind(b"PK\x01\x02") + 20  # the central compressed size
    struct.pack_into("<L", grown, at, struct.unpack_from("<L", grown, at)[0] + 10)
    with pytest.raises(CorruptEntry, match="central directory") as refusal:
        open_container(bytes(grown))
    assert (refusal.value.rule, refusal.value.path) == ("corrupt-entry", "a.txt")


def test_archive_written_here_reads_back_to_the_same_bytes():
    container = Container(_entries(random.Random(5)))
    written = write_container(container)
    assert write_container(open_container(written)) == written


def test_mutating_the_input_after_open_changes_nothing():
    data, _ = _level9_archive()
    buf = bytearray(data)
    container = open_container(buf)
    before = write_container(container)
    buf[:] = bytes(len(buf))
    assert write_container(container) == before == write_container(open_container(data))


def test_raw_bytes_take_no_part_in_equality_or_repr():
    data, payload = _level9_archive()
    read = [e for e in open_container(data).entries if e.path == "model.xml"][0]
    fresh = ContainerEntry("model.xml", payload)
    assert read._source is not None and fresh._source is None
    assert read == fresh and hash(read) == hash(fresh)
    assert repr(read) == repr(fresh)


def test_replaced_data_is_written_not_the_bytes_read():
    read = open_container(write_container(Container([ContainerEntry("a.txt", b"old contents")])))
    entry = ContainerEntry(read.entries[0].path, b"new contents")
    assert entry._source is None
    written = write_container(Container([entry]))
    assert open_container(written).get("a.txt") == b"new contents"


def test_crc_corrupt_member_is_still_corrupt_entry():
    data, _ = _level9_archive()
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        info = zf.getinfo("model.xml")
    corrupt = bytearray(data)
    corrupt[info.header_offset + 14] ^= 0xFF  # the local header's CRC-32 ...
    at = corrupt.rfind(b"PK\x01\x02")  # ... and the central record's
    corrupt[at + 16] ^= 0xFF
    with pytest.raises(CorruptEntry) as exc:
        open_archive(bytes(corrupt))
    assert exc.value.path == "model.xml"
    report = validate_archive(bytes(corrupt), ValidationMode.LENIENT)
    assert [f.rule for f in report.errors] == ["corrupt-entry"]


def _methods(data: bytes) -> dict[str, int]:
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        return {info.filename: info.compress_type for info in zf.infolist()}


def test_a_long_member_deflate_cannot_shrink_is_stored():
    container = Container([ContainerEntry("manifest.xml", b"<omexManifest/>"),
                           ContainerEntry("blob.bin", random.Random(6).randbytes(200_000))])
    written = write_container(container)
    assert _methods(written) == {"manifest.xml": zipfile.ZIP_DEFLATED,
                                 "blob.bin": zipfile.ZIP_STORED}
    assert written == zipfile_write(container, stored=frozenset({"blob.bin"}))
    assert open_container(written) == container


def test_a_member_of_64_kib_is_not_probed():
    container = Container([ContainerEntry("blob.bin", random.Random(7).randbytes(1 << 16))])
    written = write_container(container)
    assert _methods(written) == {"blob.bin": zipfile.ZIP_DEFLATED}
    assert written == zipfile_write(container)


def test_the_probe_reads_only_the_first_64_kib():
    # the zeros after the probe would deflate to almost nothing, yet the
    # member is stored: the price of reading 64 KiB instead of the whole
    data = random.Random(8).randbytes(1 << 16) + bytes(500_000)
    written = write_container(Container([ContainerEntry("blob.bin", data)]))
    assert _methods(written) == {"blob.bin": zipfile.ZIP_STORED}
    assert stored_bytes(written, "blob.bin") == data


def test_a_stored_member_under_a_lowered_zip64_limit(monkeypatch):
    # the stored member is over the limit, and the member after it starts past it
    monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 70_000)
    monkeypatch.setattr("omexarchive.container._ZIP64_LIMIT", 70_000)
    container = Container([ContainerEntry("a.bin", random.Random(9).randbytes(80_000)),
                           ContainerEntry("b.txt", b"small")])
    written = write_container(container)
    assert _methods(written)["a.bin"] == zipfile.ZIP_STORED
    assert written == zipfile_write(container, stored=frozenset({"a.bin"}))
    assert write_container(open_container(written)) == written


def test_a_long_member_deflate_shrinks_is_deflated():
    text = (b"<species id='s1' compartment='c1' initialAmount='1'/>\n" * 4_000)[:200_000]
    container = Container([ContainerEntry("a.txt", text)])
    written = write_container(container)
    assert _methods(written) == {"a.txt": zipfile.ZIP_DEFLATED}
    assert written == zipfile_write(container)


def test_an_edit_copies_a_member_written_stored():
    data = random.Random(10).randbytes(200_000)
    packed = open_archive(_zipfile_archive(b"<sbml/>", zipfile.ZIP_DEFLATED))
    archive = open_archive(add_entry(packed, "blob.bin", TEXT, data).to_bytes())
    read = [e for e in archive.container.entries if e.path == "blob.bin"][0]
    assert read._method == zipfile.ZIP_STORED
    edited = add_entry(archive, "b.txt", TEXT, b"b").to_bytes()
    assert _methods(edited)["blob.bin"] == zipfile.ZIP_STORED
    assert stored_bytes(edited, "blob.bin") == stored_bytes(archive.to_bytes(), "blob.bin") == data


def test_a_member_read_stored_is_held_once_and_copied_as_read():
    # the entry holds a view of the input, not a copy, until its data is read
    data = random.Random(11).randbytes(4 << 20)
    written = write_container(Container([ContainerEntry("blob.bin", data)]))
    assert _methods(written) == {"blob.bin": zipfile.ZIP_STORED}
    tracemalloc.start()
    try:
        container = open_container(written)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert write_container(container) == written
    assert container.get("blob.bin") == data


@pytest.mark.parametrize("limit", [None, 70_000], ids=["zip64 limit", "lowered zip64 limit"])
@pytest.mark.parametrize("source", ["bytes", "FileIO", "BufferedReader"])
def test_writing_into_a_file_gives_the_bytes_of_to_bytes(tmp_path, monkeypatch, source, limit):
    # members read long and stored, long and deflated, long but stored in one
    # step, short, and one added after the open; under the lowered limit the
    # long ones take zip64 extras and the later headers lie past it
    if limit is not None:
        monkeypatch.setattr("omexarchive.container._ZIP64_LIMIT", limit)
    rng = random.Random(12)
    text = b"".join(b"line %d\n" % rng.randrange(10 ** 6) for _ in range(60_000))
    data = create_archive([("blob.bin", TEXT, False, rng.randbytes(300_000)),
                           ("text.txt", TEXT, False, text),
                           ("zeros.bin", TEXT, False, bytes(1 << 20)),
                           ("small.txt", TEXT, False, b"small")]).to_bytes()
    assert (b"PK\x06\x06" in data) == (limit is not None)  # a zip64 end record
    path, out = tmp_path / "a.omex", tmp_path / "out.omex"
    path.write_bytes(data)
    with open(path, "rb", buffering=0 if source == "FileIO" else -1) as file:
        opened = open_archive(data if source == "bytes" else file)
        for archive, expected in [(opened, data),
                                  (add_entry(opened, "new.txt", TEXT, b"new"), None)]:
            with open(out, "wb") as written:
                archive.write(written)
            assert out.read_bytes() == (expected or archive.to_bytes())


def test_bytes_as_stored_past_the_end_of_a_deflate_stream_are_copied(tmp_path):
    # the reader stops inflating at the end of the stream, as zipfile does,
    # yet a member read from a file is copied to the end of its bytes as stored
    payload = b"<species id='s1'/>\n" * 5_000
    deflater = zlib.compressobj(6, zlib.DEFLATED, -15)
    stored = deflater.compress(payload) + deflater.flush() + random.Random(13).randbytes(100_000)
    crc, name = zlib.crc32(payload), b"a.txt"
    local = struct.pack("<4s2B4HL2L2H", b"PK\x03\x04", 20, 0, 0, 8, 0, 33, crc, len(stored),
                        len(payload), len(name), 0) + name
    central = struct.pack("<4s4B4HL2L5H2L", b"PK\x01\x02", 20, 3, 20, 0, 0, 8, 0, 33, crc,
                          len(stored), len(payload), len(name), 0, 0, 0, 0, 0o644 << 16,
                          0) + name
    data = local + stored + central + struct.pack(
        "<4s4H2LH", b"PK\x05\x06", 0, 0, 1, 1, len(central), len(local) + len(stored), 0)
    path = tmp_path / "a.zip"
    path.write_bytes(data)
    with open(path, "rb") as file:
        from_file = write_container(open_container(file))
    assert from_file == write_container(open_container(data))
    assert stored_bytes(from_file, "a.txt") == stored
    with zipfile.ZipFile(io.BytesIO(from_file)) as zf:
        assert zf.read("a.txt") == payload
    with open(path, "rb") as file:  # cut within those bytes after the open
        container = open_container(file)
        os.truncate(path, len(local) + len(stored) - 50_000)
        with pytest.raises(CorruptEntry, match="ends before its declared size"):
            write_container(container)


def _long_files() -> dict[str, bytes]:
    """A file deflate cannot shrink and one it can, both longer than 64 KiB."""
    rng = random.Random(14)
    text = b"".join(b"%d,%d,%.6f\n" % (i, rng.randrange(1000), rng.random())
                    for i in range(30_000))
    return {"data/blob.bin": rng.randbytes(300_000), "data/table.csv": text}


@pytest.mark.parametrize("limit", [None, 70_000], ids=["zip64 limit", "lowered zip64 limit"])
def test_a_packed_long_file_streams_to_the_bytes_of_create_archive(tmp_path, monkeypatch,
                                                                   limit):
    # under the lowered limit the local headers take zip64 extras from the
    # size alone, and the header patched after the stream keeps their length
    if limit is not None:
        monkeypatch.setattr(zipfile, "ZIP64_LIMIT", limit)
        monkeypatch.setattr("omexarchive.container._ZIP64_LIMIT", limit)
    files = {**_long_files(), "small.txt": b"small"}
    tree = tmp_path / "tree"
    for path, data in files.items():
        (tree / path).parent.mkdir(parents=True, exist_ok=True)
        (tree / path).write_bytes(data)
    created = create_archive([(path, format_for_filename(path), False, data)
                              for path, data in files.items()])
    expected = zipfile_write(created.container, stored=frozenset({"data/blob.bin"}))
    assert created.to_bytes() == expected
    assert pack_directory(tree, stamp=False).to_bytes() == expected
    out = tmp_path / "out.omex"
    for archive in (pack_directory(tree, stamp=False), created):
        with open(out, "wb") as file:
            archive.write(file)
        assert out.read_bytes() == expected
    assert _methods(expected) == {"manifest.xml": zipfile.ZIP_DEFLATED,
                                  "data/blob.bin": zipfile.ZIP_STORED,
                                  "data/table.csv": zipfile.ZIP_DEFLATED,
                                  "small.txt": zipfile.ZIP_DEFLATED}


def test_an_archive_written_after_other_bytes_patches_its_own_headers(tmp_path):
    # the seek back is taken from where the archive starts in the file
    archive = create_archive([(path, TEXT, False, data) for path, data in _long_files().items()])
    out = tmp_path / "out.bin"
    with open(out, "wb") as file:
        file.write(b"prefix")
        archive.write(file)
    assert out.read_bytes() == b"prefix" + archive.to_bytes()


@pytest.mark.parametrize("mode", ["ab", "a+b"])
def test_a_file_opened_for_appending_is_refused_before_a_byte_is_written(tmp_path, mode):
    # the header patched through a seek would land at the end of the file
    archive = create_archive([(path, TEXT, False, data) for path, data in _long_files().items()])
    out = tmp_path / "out.omex"
    with open(out, mode) as file:
        with pytest.raises(ValueError, match="opened for appending"):
            archive.write(file)
    assert out.read_bytes() == b""


def test_a_descriptor_opened_for_appending_is_refused_whatever_its_mode(tmp_path):
    # wrapped by open(fd, "wb") it reports mode "wb"; its flags still hold O_APPEND
    pytest.importorskip("fcntl")
    archive = create_archive([(path, TEXT, False, data) for path, data in _long_files().items()])
    out = tmp_path / "out.omex"
    with open(os.open(out, os.O_WRONLY | os.O_CREAT | os.O_APPEND), "wb") as file:
        assert file.mode == "wb"
        with pytest.raises(ValueError, match="opened for appending"):
            archive.write(file)
    assert out.read_bytes() == b""


@pytest.mark.parametrize("step", [1 << 16, 12_345])
def test_deflating_in_steps_gives_the_bytes_of_one_deflate(step):
    rng = random.Random(15)
    words = [bytes(rng.choices(b"abcdefghij ,;", k=rng.randrange(2, 12))) for _ in range(2_000)]
    payload = b" ".join(rng.choice(words) for _ in range(600_000))
    assert len(payload) > 3 << 20
    whole = zlib.compressobj(6, zlib.DEFLATED, -15)
    deflated = whole.compress(payload) + whole.flush()
    pieces = []
    view = memoryview(payload)
    crc, stored_size = _stream((view[at:at + step] for at in range(0, len(payload), step)),
                               zipfile.ZIP_DEFLATED, pieces.append)
    assert b"".join(pieces) == deflated
    assert (crc, stored_size) == (zlib.crc32(payload), len(deflated))
