import io
import random
import struct
import tracemalloc
import zipfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omexarchive import (
    Container,
    ContainerEntry,
    ValidationMode,
    create_archive,
    open_archive,
    open_container,
    validate_archive,
    write_container,
)
from omexarchive.errors import (
    CorruptEntry,
    NoSuchEntry,
    NotAZip,
    OmexError,
    UnsafePath,
)
from omexarchive.manifest import MANIFEST_NS, OMEX_FORMAT_URI

from conftest import raw_zip
from test_acceptance import _criterion_9_inputs

MINIMAL_MANIFEST = (f'<omexManifest xmlns="{MANIFEST_NS}">'
                    f'<content location="." format="{OMEX_FORMAT_URI}"/></omexManifest>').encode()


def test_single_stored_entry():
    data = raw_zip([("manifest.xml", b"<x/>")])
    container = open_container(data)
    assert container.paths() == ["manifest.xml"]
    assert container.get("manifest.xml") == b"<x/>"


def test_empty_bytes_is_not_a_zip():
    with pytest.raises(NotAZip):
        open_container(b"")


def test_garbage_is_not_a_zip():
    with pytest.raises(NotAZip):
        open_container(b"this is definitely not a zip stream")


def _random_entries(rng, count):
    entries = []
    seen = set()
    for i in range(count):
        depth = rng.randint(0, 3)
        parts = [f"d{rng.randint(0, 5)}" for _ in range(depth)] + [f"f{i}.bin"]
        path = "/".join(parts)
        if path in seen:
            continue
        seen.add(path)
        payload = rng.randbytes(rng.randint(0, 2048))
        entries.append(ContainerEntry(path, payload))
    return entries


def test_round_trip_50_random_entries():
    rng = random.Random(42)
    entries = _random_entries(rng, 50)
    container = Container(entries)
    reopened = open_container(write_container(container))
    assert {e.path: e.data for e in reopened.entries} == {e.path: e.data for e in container.entries}


def test_empty_container_is_a_valid_empty_zip():
    data = write_container(Container())
    assert zipfile.ZipFile(io.BytesIO(data)).namelist() == []
    assert len(open_container(data)) == 0


def test_deflate_bound_on_repetitive_payload():
    payload = (b"x" * 63 + b"\n") * (1024 * 1024 // 64)
    # oracle: plain deflate on the payload confirms the bound is attainable
    assert len(zlib.compress(payload)) <= len(payload) * 0.20
    container = Container([ContainerEntry("big.txt", payload)])
    assert len(write_container(container)) <= len(payload) * 0.20


def test_reserialization_idempotence():
    rng = random.Random(7)
    original = write_container(Container(_random_entries(rng, 20)))
    reserialized = write_container(open_container(original))
    assert ({e.path: e.data for e in open_container(reserialized).entries}
            == {e.path: e.data for e in open_container(original).entries})


def test_get_after_add():
    container = Container()
    container.add(ContainerEntry("a/b.txt", b"x"))
    assert container.get("a/b.txt") == b"x"


def test_get_absent_path():
    with pytest.raises(NoSuchEntry):
        Container().get("missing.txt")


def test_get_after_remove():
    container = Container()
    container.add(ContainerEntry("a/b.txt", b"x"))
    container.remove("a/b.txt")
    with pytest.raises(NoSuchEntry):
        container.get("a/b.txt")


def test_write_determinism():
    rng = random.Random(99)
    container = Container(_random_entries(rng, 30))
    assert write_container(container) == write_container(container)


def test_manifest_written_first():
    container = Container()
    container.add(ContainerEntry("zebra.txt", b"z"))
    container.add(ContainerEntry("manifest.xml", b"<m/>"))
    container.add(ContainerEntry("aardvark.txt", b"a"))
    names = zipfile.ZipFile(io.BytesIO(write_container(container))).namelist()
    assert names == ["manifest.xml", "aardvark.txt", "zebra.txt"]


@pytest.mark.parametrize(
    "path",
    ["", "/abs.txt", "../up.txt", "a/../b", "a\\b.txt", "a//b", "./a", "C:/x",
     "http://host/x", ".."],
)
def test_entry_rejects_unsafe_paths(path):
    with pytest.raises(UnsafePath):
        ContainerEntry(path, b"")


@pytest.mark.parametrize("path,reason", [
    ("a" * 256, "segment too long"),
    ("x/" + "\u00e9" * 128 + "/y", "segment too long"),  # 256 UTF-8 bytes
    ("\U0001f600" * 64, "segment too long"),
    ("a\x00b", "NUL character"),  # zipfile would cut the name at the NUL
], ids=["ascii-256", "latin-256", "emoji-256", "nul"])
def test_entry_rejects_long_segments_and_nul(path, reason):
    with pytest.raises(UnsafePath, match=reason):
        ContainerEntry(path, b"")


@pytest.mark.parametrize("path", ["a" * 255, "x/" + "\u00e9" * 127 + "a",
                                  "\U0001f600" * 63 + "abc", "\ud800" * 85],
                         ids=["ascii", "latin", "emoji", "surrogate"])
def test_entry_accepts_segments_of_255_bytes(path):
    assert ContainerEntry(path, b"").path == path


def test_a_written_member_checks_its_path_before_it_writes():
    calls = []
    with pytest.raises(UnsafePath, match="parent-directory segment"):
        ContainerEntry("../x", lambda: calls.append(1) or b"x")
    assert calls == []


def test_a_written_member_writes_once_however_often_it_is_read():
    calls = []
    entry = ContainerEntry("a.txt", lambda: calls.append(1) or b"written")
    assert calls == []
    assert [entry.data, entry.data] == [b"written", b"written"]
    assert entry == ContainerEntry("a.txt", b"written")
    assert hash(entry) == hash(ContainerEntry("a.txt", b"written"))
    assert write_container(Container([entry])) == write_container(Container([entry]))
    assert calls == [1]


def test_open_rejects_a_long_zip_name():
    with pytest.raises(UnsafePath, match="segment too long"):
        open_container(raw_zip([("d/" + "a" * 256, b"")]))


@pytest.mark.parametrize(
    "name", ["../escape.txt", "/etc/passwd", "a\\b.txt", "C:/boot.ini"]
)
def test_open_rejects_unsafe_zip_names(name):
    data = raw_zip([(name, b"evil")])
    with pytest.raises(UnsafePath):
        open_container(data)


def test_duplicate_paths_rejected():
    container = Container()
    container.add(ContainerEntry("a.txt", b"1"))
    with pytest.raises(UnsafePath, match="duplicate entry"):
        container.add(ContainerEntry("a.txt", b"2"))


def test_duplicate_zip_entries_rejected():
    with pytest.warns(UserWarning, match="Duplicate name"):
        data = raw_zip([("a.txt", b"1"), ("a.txt", b"2")])
    with pytest.raises(UnsafePath):
        open_container(data)


def test_a_duplicate_whose_member_is_corrupt_is_corrupt_entry():
    # a duplicate name is refused when the member is added, after it is read
    with pytest.warns(UserWarning, match="Duplicate name"):
        data = bytearray(raw_zip([("a.txt", b"first-payload"), ("a.txt", b"second-payload")]))
    data[data.find(b"second-payload")] ^= 0xFF
    with pytest.raises(CorruptEntry, match="Bad CRC-32") as exc:
        open_container(bytes(data))
    assert exc.value.path == "a.txt"
    [finding] = validate_archive(bytes(data), ValidationMode.LENIENT)
    assert (finding.rule, finding.location) == ("corrupt-entry", "a.txt")


def test_crc_mismatch_names_the_entry():
    payload = b"SENTINEL-PAYLOAD-0123456789"
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        zf.writestr("victim.txt", payload)
    data = bytearray(buf.getvalue())
    at = data.find(payload)
    data[at] ^= 0xFF
    with pytest.raises(CorruptEntry) as exc:
        open_container(bytes(data))
    assert exc.value.path == "victim.txt"


_path_segment = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-\u00e9\u4e2d", min_size=1, max_size=8
).filter(lambda s: s not in (".", ".."))
_safe_path = st.lists(_path_segment, min_size=1, max_size=4).map("/".join)


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(_safe_path, st.binary(max_size=512), max_size=10),
)
def test_round_trip_property(tree):
    container = Container(
        [ContainerEntry(path, data) for path, data in tree.items()]
    )
    assert {e.path: e.data for e in open_container(write_container(container)).entries} == tree


def test_a_directory_entry_is_read_past_and_not_written():
    data = raw_zip([("models/", b""), ("models/model.xml", b"<m/>")])
    container = open_container(data)
    assert container.paths() == ["models/model.xml"]
    with zipfile.ZipFile(io.BytesIO(write_container(container))) as zf:
        assert zf.namelist() == ["models/model.xml"]


def test_an_unsafe_directory_entry_is_refused_by_open_and_validate():
    data = raw_zip([("manifest.xml", MINIMAL_MANIFEST), ("../x/", b"")])
    with pytest.raises(UnsafePath):
        open_archive(data)
    for mode in ValidationMode:
        assert [f.rule for f in validate_archive(data, mode)] == ["unsafe-path"]


def test_a_name_holding_nul_is_refused_as_stored():
    # zipfile cuts a name at its first NUL when writing it, so one is patched in
    # in both headers; zipfile cuts it when reading too, and would list `a.txt`
    data = raw_zip([("manifest.xml", MINIMAL_MANIFEST), ("a.txt#.exe", b"evil")])
    assert data.count(b"a.txt#.exe") == 2
    data = data.replace(b"a.txt#.exe", b"a.txt\x00.exe")
    with pytest.raises(UnsafePath, match="NUL character"):
        open_archive(data)
    for mode in ValidationMode:
        assert [(f.rule, f.location) for f in validate_archive(data, mode)] == [
            ("unsafe-path", "a.txt\x00.exe")]


def _overlapping_members() -> bytes:
    """Member `a.txt`, stored, whose bytes are member `b.txt`'s whole local entry."""
    inner = raw_zip([("b.txt", b"inner")])
    start = inner.find(b"PK\x01\x02")
    b_local = inner[:start]
    b_central = bytearray(inner[start:inner.find(b"PK\x05\x06")])
    outer = raw_zip([("manifest.xml", MINIMAL_MANIFEST), ("a.txt", b_local)])
    start, end = outer.find(b"PK\x01\x02"), outer.find(b"PK\x05\x06")
    # b.txt's local header is where a.txt's bytes start, just before the directory
    struct.pack_into("<L", b_central, 42, start - len(b_local))
    record = bytearray(outer[end:])
    struct.pack_into("<HHL", record, 8, 3, 3, end - start + len(b_central))
    return outer[:end] + bytes(b_central) + bytes(record)


def test_overlapping_members_are_refused_on_every_interpreter():
    data = _overlapping_members()
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        assert zf.namelist() == ["manifest.xml", "a.txt", "b.txt"]
    with pytest.raises(CorruptEntry, match="into the next member") as refusal:
        open_container(data)
    assert refusal.value.path == "a.txt"
    assert [(f.rule, f.location) for f in validate_archive(data, ValidationMode.LENIENT)] == [
        ("corrupt-entry", "a.txt")]


def _peak(call) -> tuple[object, int]:
    """What `call()` returns, and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _zipfile_deflated(name: str, size: int, chunk=bytes(1 << 16)):
    """A zipfile archive holding a manifest and a deflated member of `size`
    bytes, repeats of `chunk`, written without holding the member whole."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("manifest.xml", MINIMAL_MANIFEST)
        with zf.open(name, "w") as member:
            for at in range(0, size, len(chunk)):
                member.write(chunk[:size - at])
    return buf.getvalue()


def test_a_64_mib_zero_bomb_validates_in_bounded_memory():
    data = _zipfile_deflated("zeros.bin", 64 << 20)
    assert len(data) < 100_000
    report, peak = _peak(lambda: validate_archive(data, ValidationMode.LENIENT))
    assert not report.errors
    # each 64 KiB step is dropped once its CRC-32 is taken
    assert peak < 1 << 20, peak


def test_comparing_archives_that_differ_in_one_large_member_inflates_nothing():
    line = b"a line of text that repeats\n" * 2340
    first = open_container(_zipfile_deflated("big.txt", 16 << 20, line))
    second = open_container(_zipfile_deflated("big.txt", 16 << 20, line.replace(b"a", b"b")))
    assert first.entries[1].size == second.entries[1].size
    equal, peak = _peak(lambda: first == second)
    assert not equal
    assert peak < 1 << 20, peak
    assert open_container(write_container(first)) == first


def test_a_member_read_is_as_long_as_declared(golden_archive_bytes):
    inputs = [golden_archive_bytes, *_criterion_9_inputs(golden_archive_bytes)]
    opened = 0
    for data in inputs:
        try:
            container = open_container(data)
        except OmexError:
            continue
        opened += 1
        assert all(entry.size == len(entry.data) for entry in container.entries)
    assert opened > 20


def test_reading_a_long_member_twice_inflates_it_once(monkeypatch):
    text = b"inflated when read\n" * 10_000
    container = open_container(write_container(Container([ContainerEntry("a.txt", text)])))
    [entry] = container.entries
    inflaters = []
    decompressobj = zlib.decompressobj
    monkeypatch.setattr(zlib, "decompressobj", lambda *a: inflaters.append(1) or decompressobj(*a))
    assert entry.size == len(text)
    assert inflaters == []
    assert entry.data == text and entry.data is entry.data
    assert inflaters == [1]


@pytest.mark.parametrize("source", ["bytes", "file"])
def test_an_open_inflates_a_long_manifest_once(tmp_path, monkeypatch, source):
    # the manifest is parsed at once: the open keeps the bytes its check inflated
    archive = create_archive([(f"d/{i:04}.txt", "http://purl.org/NET/mediatypes/text/plain",
                               False, b"x") for i in range(1_000)])
    manifest = archive.container.get("manifest.xml")
    assert len(manifest) > 1 << 16
    path = tmp_path / "a.omex"
    path.write_bytes(archive.to_bytes())
    inflaters = []
    decompressobj = zlib.decompressobj
    monkeypatch.setattr(zlib, "decompressobj", lambda *a: inflaters.append(1) or decompressobj(*a))
    with open(path, "rb") as file:
        opened = open_archive(path.read_bytes() if source == "bytes" else file)
        assert len(inflaters) == len(archive.container)  # one per member, all deflated
        assert opened.container.get("manifest.xml") == manifest
        assert opened.to_bytes() == path.read_bytes()
    assert len(inflaters) == len(archive.container)


@pytest.mark.parametrize("chunk", [bytes(1), b"hello world repeated text "], ids=["zeros", "text"])
@pytest.mark.parametrize("steps", [1, 2])
def test_a_deflated_member_just_past_a_step_opens_whole(steps, chunk):
    # zlib may stop a capped call mid-match with all its input taken; the
    # output still held must come out of a further call with no input
    for extra in range(1, 1025):
        payload = (chunk * ((steps << 16) // len(chunk) + 1024))[:(steps << 16) + extra]
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
            zf.writestr("a.bin", payload)
        for data in (buf.getvalue(), write_container(Container([ContainerEntry("a.bin", payload)]))):
            [entry] = open_container(data).entries
            assert (entry.size, b"".join(entry.steps())) == (len(payload), payload), extra
            assert entry.data == payload, extra


def test_a_data_callable_is_called_once_and_its_result_kept():
    calls = []
    entry = ContainerEntry("a.bin", lambda: calls.append(1) or bytearray(b"abc"))
    assert entry.data == bytearray(b"abc") and entry.data is entry.data
    assert (entry.size, list(entry.steps()), calls) == (3, [bytearray(b"abc")], [1])
    with pytest.raises(TypeError):
        ContainerEntry("a.bin", b"abc", size=5)


def test_an_entry_takes_no_stored_bytes_and_holds_no_dict():
    # bytes as stored that did not match `data` wrote an archive that did not reopen
    with pytest.raises(TypeError):
        ContainerEntry("a.txt", b"hello", (0, 123, memoryview(b"xyz")))
    fresh = ContainerEntry("a.txt", b"hello")
    [read] = open_container(write_container(Container([fresh]))).entries
    for entry in (read, fresh):
        assert not hasattr(entry, "__dict__")
        with pytest.raises(AttributeError):
            entry.stored = (0, 123, memoryview(b"xyz"))


def test_a_member_read_holds_under_250_bytes():
    count = 50_000
    data = write_container(Container([ContainerEntry(f"{i:05x}", b"") for i in range(count)]))
    tracemalloc.start()
    try:
        container = open_container(data)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(container) == count
    assert held / count < 250, held / count


def test_the_repr_of_a_long_member_read_does_not_inflate_it():
    text = b"printed by path and size\n" * 10_000
    [entry] = open_container(write_container(Container([ContainerEntry("a.txt", text)]))).entries
    assert repr(entry) == f"ContainerEntry(path='a.txt', size={len(text)})"
    assert entry._data is None
    assert repr(ContainerEntry("a.txt", text)) == repr(entry)


def test_a_first_read_of_a_long_members_data_fills_one_buffer():
    csv = b"".join(b"%d,%d,%d\n" % (i, i * i % 9973, i * 7919 % 65521) for i in range(300_000))
    csv = csv[:4 << 20]
    data = _zipfile_deflated("data.csv", len(csv), csv)
    [_, entry] = open_container(data).entries
    assert entry._data is None and len(data) < len(csv) // 2
    read, peak = _peak(lambda: entry.data)
    assert read == csv
    # joining the steps held them and the result at once, 2.0x the member
    assert peak < 1.5 * len(csv), peak
