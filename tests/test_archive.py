import errno
import os
import random
import signal
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import omexarchive
import omexarchive.archive
import omexarchive.cli
import omexarchive.metadata
from omexarchive import (
    Creator,
    MetadataSet,
    Severity,
    Timestamp,
    ValidationMode,
    add_entry,
    create_archive,
    extract_all,
    master_entries,
    open_archive,
    parse_manifest,
    parse_metadata,
    remove_entry,
    set_metadata,
    validate_archive,
    write_container,
)
from omexarchive.archive import pack_directory, stamp_block
from omexarchive.container import _write
from omexarchive.errors import (
    CorruptEntry,
    DanglingManifestEntry,
    DuplicateLocation,
    InvalidFormatUri,
    InvalidLocation,
    MissingManifest,
    NoSuchEntry,
    NotAZip,
    OmexError,
    ReservedLocation,
    UnsafePath,
)
from omexarchive.formats import COMBINE_PREFIX, MEDIATYPE_PREFIX
from omexarchive.manifest import MANIFEST_NS, OMEX_FORMAT_URI, check_location

from conftest import build_container, raw_zip

SBML = COMBINE_PREFIX + "sbml"
SEDML = COMBINE_PREFIX + "sed-ml"
PDF = MEDIATYPE_PREFIX + "application/pdf"
TEXT = MEDIATYPE_PREFIX + "text/plain"


def _golden_like_files(golden_files):
    return [
        ("models/model.xml", SBML, False, golden_files["models/model.xml"]),
        ("simulation.xml", SEDML, True, golden_files["simulation.xml"]),
        ("doc/article.pdf", PDF, False, golden_files["doc/article.pdf"]),
    ]


def test_create_minimal():
    archive = create_archive([])
    assert [e.location for e in archive.manifest.entries] == ["."]
    assert archive.container.paths() == ["manifest.xml"]
    assert validate_archive(archive.to_bytes(), ValidationMode.STRICT).ok


def test_create_golden_like(golden_files, golden_metadata_xml, golden_manifest_xml):
    from omexarchive import parse_metadata

    archive = set_metadata(create_archive(_golden_like_files(golden_files)),
                           parse_metadata(golden_metadata_xml))
    expected = parse_manifest(golden_manifest_xml)
    got = {(e.path, e.format, bool(e.master))
           for e in archive.manifest.entries}
    want = {(e.path, e.format, bool(e.master))
            for e in expected.entries}
    assert got == want


def test_create_rejects_duplicates(golden_files):
    files = _golden_like_files(golden_files)
    files.append(("./models/model.xml", SBML, False, b"dup"))
    with pytest.raises(DuplicateLocation):
        create_archive(files)


def test_create_rejects_unsafe_location():
    with pytest.raises(InvalidLocation):
        create_archive([("../escape.xml", SBML, False, b"")])


@pytest.mark.parametrize("location", ["a//b.xml", "a/./b.xml"])
def test_create_rejects_empty_and_dot_segments(location):
    with pytest.raises(InvalidLocation):
        create_archive([(location, SBML, False, b"")])


@pytest.mark.parametrize("files", [
    [("a", TEXT, False, b"1"), ("a/b", TEXT, False, b"2")],
    [("x/y/z", TEXT, False, b"1"), ("x/y", TEXT, False, b"2")],
    [("manifest.xml/x", TEXT, False, b"")],
])
def test_create_refuses_file_and_directory_of_one_path(files):
    with pytest.raises(InvalidLocation, match="file and directory share a path"):
        create_archive(files)


def _stamp() -> MetadataSet:
    meta = MetadataSet()
    meta.add(stamp_block(Creator(family_name="Doe"),
                         Timestamp.parse("2020-01-01T00:00:00Z")))
    return meta


def test_create_refuses_a_directory_named_like_the_metadata():
    with pytest.raises(InvalidLocation, match="file and directory share a path"):
        set_metadata(create_archive([("metadata.rdf/x", TEXT, False, b"")]), _stamp())


def test_set_metadata_checks_only_the_paths_it_adds():
    held = open_archive(raw_zip([("manifest.xml", _manifest_for("metadata.rdf/x")),
                                 ("metadata.rdf/x", b"")]))
    with pytest.raises(InvalidLocation, match="file and directory share a path"):
        set_metadata(held, _stamp())
    # a pair the archive already holds, as opening allows, is no edit's doing
    pair = open_archive(raw_zip([("manifest.xml", _manifest_for("a", "a/b", "c")),
                                 ("a", b"1"), ("a/b", b"2"), ("c", b"3")]))
    edited = set_metadata(remove_entry(pair, "c"), _stamp())
    assert set(open_archive(edited.to_bytes()).container.paths()) == {
        "a", "a/b", "manifest.xml", "metadata.rdf"}


@pytest.mark.parametrize("location,accepted", [
    ("x/" + "a" * 255, True),
    ("x/" + "a" * 256, False),
    ("\u00e9" * 127 + "a", True),   # 255 UTF-8 bytes
    ("\u00e9" * 128, False),        # 256 UTF-8 bytes
    ("\U0001f600" * 63 + "abc", True),
    ("\U0001f600" * 64 + "/x", False),
], ids=["ascii-255", "ascii-256", "latin-255", "latin-256", "emoji-255", "emoji-256"])
def test_create_refuses_segment_over_255_bytes(location, accepted, tmp_path):
    files = [(location, TEXT, False, b"data")]
    if not accepted:
        with pytest.raises(InvalidLocation, match="segment too long"):
            create_archive(files)
        return
    reopened = open_archive(create_archive(files).to_bytes())
    extract_all(reopened, tmp_path)
    assert tmp_path.joinpath(*location.split("/")).read_bytes() == b"data"


def test_create_maps_percent_escapes_to_paths():
    archive = create_archive([("a%20b.xml", SBML, False, b"x")])
    assert archive.container.paths() == ["a b.xml", "manifest.xml"]
    assert [e.location for e in archive.manifest.entries] == [".", "a%20b.xml"]
    with pytest.raises(DuplicateLocation):
        create_archive([("a b.xml", SBML, False, b""), ("a%20b.xml", SBML, False, b"")])


def test_create_rejects_invalid_format():
    with pytest.raises(InvalidFormatUri):
        create_archive([("a.xml", "not a uri", False, b"")])
    with pytest.raises(InvalidFormatUri):
        create_archive([("a.xml", COMBINE_PREFIX + "sb ml", False, b"")])


@pytest.mark.parametrize("location", [".", "./", "manifest.xml", "./manifest.xml"])
def test_create_refuses_reserved_locations(location):
    with pytest.raises(ReservedLocation):
        create_archive([(location, TEXT, False, b"")])


@settings(max_examples=300, deadline=None)
@given(
    location=st.text(),
    prefix=st.sampled_from([COMBINE_PREFIX, MEDIATYPE_PREFIX]),
    suffix=st.text(),
)
@example(location="a\x01b.xml", prefix=COMBINE_PREFIX, suffix="sbml")
@example(location="a\ufffeb.xml", prefix=COMBINE_PREFIX, suffix="sbml")
@example(location="a\ud800b.xml", prefix=COMBINE_PREFIX, suffix="sbml")
@example(location="a.xml", prefix=COMBINE_PREFIX, suffix="sb\x01ml")
@example(location="a.xml", prefix=COMBINE_PREFIX, suffix="sb\uffffml")
@example(location="a%20b/c%2541.xml", prefix=COMBINE_PREFIX, suffix="sbml")
@example(location="./x/" + "\u00e9" * 200, prefix=COMBINE_PREFIX, suffix="sbml")
def test_whatever_create_accepts_open_reopens(location, prefix, suffix):
    try:
        archive = create_archive([(location, prefix + suffix, False, b"data")])
        data = archive.to_bytes()
    except OmexError:
        return
    reopened = open_archive(data)
    assert reopened == archive
    # ... and extracts to dest/<path> with its bytes, writing nothing outside
    # dest; a segment over 255 UTF-8 bytes, more than common filesystems
    # can name, was refused at create
    segments = check_location(location).split("/")
    assert max(len(os.fsencode(s)) for s in segments) <= 255
    with tempfile.TemporaryDirectory() as tmp:
        dest = Path(tmp, "dest")
        written = extract_all(reopened, dest)
        target = dest.joinpath(*segments)
        assert written == sorted([target, dest / "manifest.xml"])
        assert target.read_bytes() == b"data"
        assert all(p == dest or dest in p.parents for p in Path(tmp).rglob("*"))


@settings(max_examples=200, deadline=None)
@given(description=st.text())
@example(description="bad\x01text")
@example(description="a\ud800b")
def test_whatever_set_metadata_accepts_reads_back(description):
    archive = create_archive([("a.xml", SBML, False, b"<a/>")])
    meta = MetadataSet()
    meta.add(stamp_block(Creator(family_name="Doe"),
                         Timestamp.parse("2020-01-01T00:00:00Z")))
    meta.get(".").description = description
    try:
        data = set_metadata(archive, meta).to_bytes()
    except OmexError:
        return
    rules = [f.rule for f in validate_archive(data, ValidationMode.LENIENT)]
    assert "metadata-unreadable" not in rules


def test_unreadable_metadata_is_a_validation_warning(golden_files):
    data = write_container(build_container(dict(golden_files, **{"metadata.rdf": b"<x/>"})))
    for mode in ValidationMode:
        assert [(f.severity, f.location, f.message) for f in validate_archive(data, mode)
                if f.rule == "metadata-unreadable"] == [
            (Severity.WARNING, "metadata.rdf", "root element 'x', expected rdf:RDF")]


def test_percent_encoded_location_matches_its_member():
    manifest = (
        f'<omexManifest xmlns="{MANIFEST_NS}">'
        f'<content location="." format="{OMEX_FORMAT_URI}"/>'
        f'<content location="a%20b.xml" format="{SBML}"/>'
        "</omexManifest>"
    ).encode()
    data = raw_zip([("manifest.xml", manifest), ("a b.xml", b"<sbml/>")])
    rules = {f.rule for f in validate_archive(data, ValidationMode.STRICT)}
    assert not rules & {"missing-file", "unlisted-file"}
    assert open_archive(data).container.get("a b.xml") == b"<sbml/>"


def test_random_archives_self_validate():
    rng = random.Random(2024)
    formats = [SBML, SEDML, PDF, TEXT]
    for _ in range(25):
        files = []
        for i in range(rng.randint(0, 10)):
            loc = "/".join(
                [f"d{rng.randint(0, 3)}"] * rng.randint(0, 2) + [f"f{i}.xml"]
            )
            files.append((loc, rng.choice(formats), rng.random() < 0.2,
                          rng.randbytes(rng.randint(0, 256))))
        archive = create_archive(files)
        report = validate_archive(archive.to_bytes(), ValidationMode.STRICT)
        assert not report.errors, report.items


def test_open_round_trip(golden_files):
    archive = create_archive(_golden_like_files(golden_files))
    assert open_archive(archive.to_bytes()) == archive


def test_open_missing_manifest():
    with pytest.raises(MissingManifest):
        open_archive(raw_zip([("data.txt", b"x")]))


def test_open_not_a_zip():
    with pytest.raises(NotAZip):
        open_archive(b"plain text")


def test_open_dangling_entry(golden_files):
    files = dict(golden_files)
    del files["doc/article.pdf"]
    data = build_container(files)

    with pytest.raises(DanglingManifestEntry) as exc:
        open_archive(write_container(data))
    assert exc.value.location == "doc/article.pdf"


def test_open_names_the_first_missing_file_as_lenient_validation_does():
    manifest = (f'<omexManifest xmlns="{MANIFEST_NS}">'
                f'<content location="." format="{OMEX_FORMAT_URI}"/>'
                + "".join(f'<content location="{name}" format="{TEXT}"/>'
                          for name in ("z.txt", "b/c.txt", "m.txt", "b.txt"))
                + "</omexManifest>").encode()
    data = raw_zip([("manifest.xml", manifest), ("m.txt", b"m")])
    with pytest.raises(DanglingManifestEntry) as exc:
        open_archive(data)
    assert exc.value.location == "b.txt"
    assert validate_archive(data, ValidationMode.LENIENT).errors[0].location == "b.txt"


def test_open_parses_no_metadata_and_finds_no_clashes(golden_archive_bytes, monkeypatch):
    calls = []
    parse, clashes = omexarchive.metadata.parse_metadata, omexarchive.Container.clashes
    monkeypatch.setattr(omexarchive.metadata, "parse_metadata",
                        lambda data: calls.append("parse") or parse(data))
    monkeypatch.setattr(omexarchive.Container, "clashes",
                        lambda self: calls.append("clashes") or clashes(self))
    archive = open_archive(golden_archive_bytes)
    assert calls == []
    assert archive.metadata.get(".").created is not None and archive.metadata_error is None
    assert calls == ["parse"]


def test_validate_golden_strict(golden_archive_bytes):
    report = validate_archive(golden_archive_bytes, ValidationMode.STRICT)
    assert not report.errors
    assert [f.rule for f in report.warnings] == ["missing-modified"]


def test_validate_unlisted_file(golden_files):
    files = dict(golden_files)
    files["notes.txt"] = b"scratch"

    data = write_container(build_container(files))
    strict = validate_archive(data, ValidationMode.STRICT)
    assert [(f.rule, f.location) for f in strict.errors] == [
        ("unlisted-file", "notes.txt")
    ]
    lenient = validate_archive(data, ValidationMode.LENIENT)
    assert not lenient.errors
    assert ("unlisted-file", "notes.txt") in [
        (f.rule, f.location) for f in lenient.warnings
    ]


def test_validate_takes_a_mode_as_its_value(golden_files):
    data = write_container(build_container({**golden_files, "notes.txt": b"scratch"}))
    for mode in ValidationMode:
        assert validate_archive(data, mode.value) == validate_archive(data, mode)
    assert [f.rule for f in validate_archive(data, "strict").errors] == ["unlisted-file"]
    for archive in (data, b"not a zip at all"):  # refused before the archive is read
        with pytest.raises(ValueError):
            validate_archive(archive, "nonsense")


def test_validate_not_a_zip():
    report = validate_archive(b"not a zip at all")
    assert [f.rule for f in report] == ["not-a-zip"]
    assert report.items[0].severity is Severity.ERROR


def test_validate_is_deterministically_ordered(golden_files):
    files = dict(golden_files)
    files["notes.txt"] = b"scratch"
    files["also.txt"] = b"more"

    data = write_container(build_container(files))
    first = validate_archive(data, ValidationMode.STRICT)
    second = validate_archive(data, ValidationMode.STRICT)
    assert first.items == second.items
    assert first.items == first.sorted().items


def test_add_then_remove_is_identity(golden_files):
    archive = create_archive(_golden_like_files(golden_files))
    grown = add_entry(archive, "models/m2.xml", SBML, b"<sbml/>")
    assert len(grown.manifest.entries) == len(archive.manifest.entries) + 1
    back = remove_entry(grown, "models/m2.xml")
    assert back == archive
    assert back.to_bytes() == archive.to_bytes()


def test_add_changes_only_the_new_entry_and_manifest(golden_files):
    archive = create_archive(_golden_like_files(golden_files))
    grown = add_entry(archive, "models/m2.xml", SBML, b"<sbml/>")
    before = {e.path: e.data for e in archive.container.entries}
    after = {e.path: e.data for e in grown.container.entries}
    changed = {p for p in before if before[p] != after.get(p)}
    assert changed == {"manifest.xml"}
    assert set(after) - set(before) == {"models/m2.xml"}


def test_add_duplicate_rejected(golden_files):
    archive = create_archive(_golden_like_files(golden_files))
    with pytest.raises(DuplicateLocation):
        add_entry(archive, "simulation.xml", SEDML, b"")


@pytest.mark.parametrize("location", ["simulation.xml/x", "models"])
def test_add_refuses_file_and_directory_of_one_path(golden_files, location):
    archive = create_archive(_golden_like_files(golden_files))
    with pytest.raises(InvalidLocation, match="file and directory share a path"):
        add_entry(archive, location, TEXT, b"")
    with pytest.raises(InvalidLocation, match="file and directory share a path"):
        add_entry(archive, "manifest.xml/x", TEXT, b"")


def test_remove_reserved(golden_files):
    archive = create_archive(_golden_like_files(golden_files))
    with pytest.raises(ReservedLocation):
        remove_entry(archive, "manifest.xml")
    with pytest.raises(ReservedLocation):
        remove_entry(archive, ".")


def test_remove_missing(golden_files):
    archive = create_archive(_golden_like_files(golden_files))
    with pytest.raises(NoSuchEntry):
        remove_entry(archive, "ghost.xml")


def test_remove_drops_metadata_block(golden_files):
    from omexarchive import DescriptionBlock

    meta = MetadataSet()
    meta.add(stamp_block(Creator(family_name="Doe"),
                         Timestamp.parse("2020-01-01T00:00:00Z")))
    meta.add(DescriptionBlock(about="doc/article.pdf", description="the paper"))
    archive = set_metadata(create_archive(_golden_like_files(golden_files)), meta)
    trimmed = remove_entry(archive, "doc/article.pdf")
    assert trimmed.metadata.get("doc/article.pdf") is None
    assert archive.metadata.get("doc/article.pdf").description == "the paper"
    assert trimmed.metadata.get(".") is not None
    reopened = open_archive(trimmed.to_bytes())
    assert reopened.metadata == trimmed.metadata


def test_extract_all_golden(golden_archive_bytes, golden_files, tmp_path):
    archive = open_archive(golden_archive_bytes)
    written = extract_all(archive, tmp_path)
    assert len(written) == 5
    for path, data in golden_files.items():
        assert (tmp_path / path).read_bytes() == data


def test_extract_minimal(tmp_path):
    archive = create_archive([])
    written = extract_all(archive, tmp_path)
    assert [p.name for p in written] == ["manifest.xml"]


def _manifest_for(*locations) -> bytes:
    rows = "".join(f'<content location="{loc}" format="{TEXT}"/>' for loc in locations)
    return (f'<omexManifest xmlns="{MANIFEST_NS}">'
            f'<content location="." format="{OMEX_FORMAT_URI}"/>{rows}</omexManifest>'
            ).encode()


@pytest.mark.parametrize("members", [
    [("a", b"1"), ("a/b", b"2")],
    [("a/b", b"2"), ("a", b"1")],
    [("manifest.xml/x", b"")],
])
def test_extract_refuses_file_and_directory_before_writing(members, tmp_path):
    # the manifest lists only the first member; the rest are unlisted
    data = raw_zip([("manifest.xml", _manifest_for(members[0][0]))] + members)
    archive = open_archive(data)  # opening such an archive stays allowed
    assert validate_archive(data, ValidationMode.LENIENT).errors == []
    dest = tmp_path / "dest"
    with pytest.raises(UnsafePath, match="file and directory share a path"):
        extract_all(archive, dest)
    assert not dest.exists()


def test_extract_then_repack_full_cycle(golden_files, tmp_path):
    archive = create_archive(_golden_like_files(golden_files))
    first = archive.to_bytes()
    extract_all(open_archive(first), tmp_path)
    repacked = pack_directory(
        tmp_path, stamp=False,
        format_overrides={
            "models/model.xml": SBML,
            "simulation.xml": SEDML,
        },
    )
    repacked_bytes = {e.path: e.data for e in repacked.container.entries}
    assert repacked_bytes["models/model.xml"] == golden_files["models/model.xml"]
    assert {e.path: e.data for e in open_archive(repacked.to_bytes()).container.entries}.keys() == \
        {e.path: e.data for e in open_archive(first).container.entries}.keys()


def test_master_of(golden_files):
    archive = create_archive(_golden_like_files(golden_files))
    assert [e.path for e in master_entries(archive.manifest)] == ["simulation.xml"]


def test_pack_directory_stamps_by_default(tmp_path):
    (tmp_path / "model.sbml").write_bytes(b"<sbml/>")
    archive = pack_directory(tmp_path, creator=Creator(family_name="Doe"))
    assert archive.metadata is not None
    block = archive.metadata.get(".")
    assert block.created is not None
    assert block.creators == [Creator(family_name="Doe")]
    report = validate_archive(archive.to_bytes(), ValidationMode.STRICT)
    assert not report.errors


def test_pack_directory_existing_metadata_suppresses_stamp(
    tmp_path, golden_metadata_xml
):
    (tmp_path / "model.sbml").write_bytes(b"<sbml/>")
    (tmp_path / "metadata.rdf").write_bytes(golden_metadata_xml)
    archive = pack_directory(tmp_path, stamp=True)
    read = {e.path: e.data for e in archive.container.entries}
    assert read["metadata.rdf"] == golden_metadata_xml


@pytest.mark.parametrize("rdf", ["notes.rdf", "sub/metadata.rdf"])
def test_pack_directory_stamps_no_metadata_file_beside_the_one_packed(tmp_path, rdf,
                                                                      golden_metadata_xml):
    (tmp_path / "model.xml").write_bytes(b"<sbml/>")
    (tmp_path / rdf).parent.mkdir(exist_ok=True)
    (tmp_path / rdf).write_bytes(golden_metadata_xml)
    archive = open_archive(pack_directory(tmp_path, stamp=True).to_bytes())
    assert "metadata.rdf" not in archive.container
    assert archive.metadata_path == rdf
    assert archive.metadata == parse_metadata(golden_metadata_xml)


@pytest.mark.parametrize("make", [
    lambda at: os.symlink("../../outside/secret.txt", at),
    lambda at: os.symlink("../model.xml", at),
    lambda at: os.symlink("../models", at, target_is_directory=True),
    lambda at: os.mkfifo(at),
], ids=["link_to_a_file_outside", "link_to_a_file_inside", "link_to_a_directory", "fifo"])
def test_pack_directory_refuses_a_link_or_a_fifo_in_the_tree(make, tmp_path):
    # a link to a file outside was packed with that file's bytes, a link to a
    # directory dropped without a word
    tree, outside = tmp_path / "tree", tmp_path / "outside"
    (tree / "models").mkdir(parents=True)
    (tree / "sub").mkdir()
    outside.mkdir()
    (outside / "secret.txt").write_bytes(b"secret")
    (tree / "model.xml").write_bytes(b"<sbml/>")
    (tree / "models" / "a.xml").write_bytes(b"<sbml/>")
    try:
        make(tree / "sub" / "special.txt")
    except (AttributeError, NotImplementedError, OSError) as exc:
        pytest.skip(f"this system cannot make it: {exc!r}")
    with pytest.raises(UnsafePath, match="a link, FIFO, socket or device") as refusal:
        pack_directory(tree, stamp=False)
    assert refusal.value.path == "sub/special.txt"


def _grow(path: Path) -> None:
    with open(path, "ab") as file:
        file.write(b"more")


def _truncate(path: Path) -> None:
    os.truncate(path, path.stat().st_size // 2)


def _replace_by_a_file(path: Path) -> None:
    # another file of the same size, renamed over it
    other = path.with_name("other")
    other.write_bytes(path.read_bytes())
    os.replace(other, path)


def _replace_by_a_link(path: Path) -> None:
    # a link to a file of the same bytes outside the tree
    outside = path.parents[2] / "outside.bin"
    outside.write_bytes(path.read_bytes())
    path.unlink()
    os.symlink(outside, path)


# a file of the tree changed between pack_directory's walk and the write
TREE_CHANGES = pytest.mark.parametrize("change", [_grow, _truncate, _replace_by_a_file,
                                                  _replace_by_a_link, Path.unlink],
                                       ids=["grown", "truncated", "replaced", "linked",
                                            "removed"])


def _tree_with(root: Path, location: str, data: bytes) -> Path:
    """`root/tree`, holding model.xml and `data` at `location`; the file of the latter."""
    file = root / "tree" / location
    file.parent.mkdir(parents=True)
    (root / "tree" / "model.xml").write_bytes(b"<sbml/>")
    file.write_bytes(data)
    return file


def _long_file_tree(root: Path) -> Path:
    return _tree_with(root, "data/blob.bin", random.Random(16).randbytes(200_000))


def _short_file_tree(root: Path) -> Path:
    return _tree_with(root, "d/m.xml", b"<sbml>" + b"<model/>" * 250 + b"</sbml>")


def _refused_when_written(change, root: Path, location: str) -> None:
    archive = pack_directory(root / "tree", stamp=False)
    change(root / "tree" / location)
    with pytest.raises(UnsafePath, match="changed after the tree was walked") as refusal:
        archive.to_bytes()
    assert refusal.value.path == location
    with pytest.raises(UnsafePath) as refusal:  # data reads it through the same check
        archive.container.get(location)
    assert refusal.value.path == location


@TREE_CHANGES
def test_a_long_file_changed_after_the_walk_is_refused(change, tmp_path):
    _long_file_tree(tmp_path)
    _refused_when_written(change, tmp_path, "data/blob.bin")


@TREE_CHANGES
def test_a_short_file_changed_after_the_walk_is_refused(change, tmp_path):
    # a file of at most 64 KiB is read when written too, through the same check
    _short_file_tree(tmp_path)
    _refused_when_written(change, tmp_path, "d/m.xml")


def _pack_leaves_no_output(change, root: Path, location: str, monkeypatch, capsys) -> None:
    walk = omexarchive.cli.pack_directory

    def walk_then_change(*args, **kwargs):
        archive = walk(*args, **kwargs)
        change(root / "tree" / location)
        return archive
    monkeypatch.setattr(omexarchive.cli, "pack_directory", walk_then_change)
    out = root / "out"
    assert omexarchive.cli.main(["pack", str(root / "tree"), str(out), "--ext", "omex"]) == 2
    assert capsys.readouterr().err == (
        f"error: unsafe path '{location}': the file changed after the tree was walked\n")
    assert not list(root.glob("*.omex")) and not list(root.glob(".*.tmp"))


@TREE_CHANGES
def test_pack_leaves_no_output_when_a_long_file_changed_after_the_walk(change, tmp_path,
                                                                       monkeypatch, capsys):
    _long_file_tree(tmp_path)
    _pack_leaves_no_output(change, tmp_path, "data/blob.bin", monkeypatch, capsys)


@TREE_CHANGES
def test_pack_leaves_no_output_when_a_short_file_changed_after_the_walk(change, tmp_path,
                                                                        monkeypatch, capsys):
    _short_file_tree(tmp_path)
    _pack_leaves_no_output(change, tmp_path, "d/m.xml", monkeypatch, capsys)


@pytest.mark.parametrize("change", [_grow, _truncate], ids=["grown", "truncated"])
def test_a_long_file_changed_while_it_is_written_is_refused(change, tmp_path):
    long_file = _long_file_tree(tmp_path)
    archive = pack_directory(tmp_path / "tree", stamp=False)

    def write(piece):
        if isinstance(piece, bytearray):  # the header of the member streamed: its file is open
            change(long_file)
    with pytest.raises(UnsafePath, match="changed after the tree was walked") as refusal:
        _write(archive.container, write)
    assert refusal.value.path == "data/blob.bin"


def test_the_walk_reads_no_file(tmp_path, monkeypatch):
    long_file = _long_file_tree(tmp_path)
    read = []
    read_bytes = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda path: read.append(path) or read_bytes(path))
    archive = pack_directory(tmp_path / "tree", stamp=False)
    assert read == []
    members = [archive.container._entries[path] for path in ("data/blob.bin", "model.xml")]
    assert [member.size for member in members] == [200_000, 7]  # the sizes the walk saw
    assert all(member._data is None for member in members)
    # bytes changed in place, each file and its size kept, are the bytes written
    new = random.Random(17).randbytes(200_000)
    with open(long_file, "r+b") as file:
        file.write(new)
    (tmp_path / "tree" / "model.xml").write_bytes(b"<cellml")
    with open(tmp_path / "out.omex", "wb") as file:
        archive.write(file)
    assert all(member._data is None for member in members)  # written, not kept
    assert read == []
    with open(tmp_path / "out.omex", "rb") as file:
        written = open_archive(file).container
        assert written.get("data/blob.bin") == new and written.get("model.xml") == b"<cellml"


def test_the_walk_opens_no_file_and_the_write_reads_each_once(tmp_path, monkeypatch):
    _long_file_tree(tmp_path)
    real_open, real_read = os.open, os.read
    at, opened, read = {}, [], {}  # path of each descriptor, files opened, bytes read of each

    def counting_open(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            at[fd] = os.fspath(path)
            opened.append(at[fd])
        return fd

    def counting_read(fd, size):
        data = real_read(fd, size)
        read[at[fd]] = read.get(at[fd], 0) + len(data)
        return data
    monkeypatch.setattr(os, "open", counting_open)
    monkeypatch.setattr(os, "read", counting_read)
    archive = pack_directory(tmp_path / "tree", stamp=False)
    assert opened == [] and read == {}
    archive.to_bytes()
    tree = tmp_path / "tree"
    written = {str(tree / "data" / "blob.bin"): 200_000, str(tree / "model.xml"): 7}
    assert opened == list(written) and read == written


def test_a_directory_that_cannot_be_listed_is_refused_not_skipped(tmp_path, monkeypatch,
                                                                 capsys):
    # rglob skipped it and packed the rest; chmod cannot lock out root, so os.scandir refuses
    tree = tmp_path / "tree"
    locked = tree / "locked"
    (tree / "a").mkdir(parents=True)
    locked.mkdir()
    (tree / "a" / "x.txt").write_bytes(b"x")
    (locked / "y.txt").write_bytes(b"y")
    refusal = PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(locked))
    scandir = os.scandir

    def refuse_locked(path="."):
        if Path(path) == locked:
            raise refusal
        return scandir(path)
    monkeypatch.setattr(os, "scandir", refuse_locked)
    with pytest.raises(PermissionError) as raised:
        pack_directory(tree, stamp=False)
    assert raised.value is refusal
    assert omexarchive.cli.main(["pack", str(tree), str(tmp_path / "out.omex")]) == 2
    assert capsys.readouterr().err == f"error: {refusal}\n"
    assert list(tmp_path.iterdir()) == [tree]


def test_a_tree_deeper_than_the_frames_left_packs_and_unpacks(tmp_path):
    # a recursive walk needs a frame for each directory entered; the limit is
    # set from the frames in use, so the path stays short for any platform
    depth, tree = 120, tmp_path / "tree"
    tree.joinpath(*["a"] * depth).mkdir(parents=True)
    tree.joinpath(*["a"] * depth, "f.txt").write_bytes(b"deep")
    frames, frame = 0, sys._getframe()
    while frame is not None:
        frames, frame = frames + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frames + depth // 2)
    try:
        archive = pack_directory(tree, stamp=False)
    finally:
        sys.setrecursionlimit(limit)
    assert [entry.path for entry in archive.manifest.entries] == [".", "a/" * depth + "f.txt"]
    extract_all(open_archive(archive.to_bytes()), tmp_path / "out")
    assert (tmp_path / "out").joinpath(*["a"] * depth, "f.txt").read_bytes() == b"deep"
    assert pack_directory(tmp_path / "out", stamp=False).to_bytes() == archive.to_bytes()


_TREE_NAMES = st.text("aAzZ-._%é中", min_size=1, max_size=3).filter(lambda n: n not in (".", ".."))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.lists(_TREE_NAMES, min_size=1, max_size=3), st.booleans()),
                max_size=12))
@example([(["a", "y"], False), (["a-b", "x"], False), (["a.b", "z"], False), (["a_"], False),
          ([".dot"], False), (["A"], False), (["é"], False), (["%41"], False),
          (["e"], True), (["a", "n", "m"], True)])
def test_the_walk_packs_what_rglob_finds_in_its_order(nodes):
    # segment order: a/y before a-b/x, though "a-b/x" < "a/y" as strings
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for segments, is_directory in nodes:  # a directory, empty or not, or a file
            path = root.joinpath(*segments)
            if path.exists() or any(parent.is_file() for parent in path.parents):
                continue
            path.parent.mkdir(parents=True, exist_ok=True)
            if is_directory:
                path.mkdir()
            else:
                path.write_bytes("/".join(segments).encode())
        found = [path.relative_to(root).as_posix() for path in sorted(root.rglob("*"))
                 if not path.is_dir()]
        first, second = pack_directory(root, stamp=False), pack_directory(root, stamp=False)
        assert [entry.path for entry in first.manifest.entries] == [".", *found]
        assert first.to_bytes() == second.to_bytes()


def test_pack_directory_unknown_master(tmp_path):
    (tmp_path / "a.xml").write_bytes(b"<a/>")
    # a --format override of a file the tree lacks is refused as a --master is
    for unknown in ({"masters": {"missing.xml"}},
                    {"format_overrides": {"missing.xml": f"{MEDIATYPE_PREFIX}text/plain"}}):
        with pytest.raises(NoSuchEntry):
            pack_directory(tmp_path, stamp=False, **unknown)


def test_set_metadata_creates_entry(golden_files):
    archive = create_archive(_golden_like_files(golden_files))
    meta = MetadataSet()
    meta.add(stamp_block(Creator(family_name="Doe"),
                         Timestamp.parse("2020-01-01T00:00:00Z")))
    updated = set_metadata(archive, meta)
    assert updated.manifest.find("metadata.rdf") is not None
    assert open_archive(updated.to_bytes()).metadata == meta


def _with_metadata(golden_files, document: bytes):

    return write_container(build_container(dict(golden_files, **{"metadata.rdf": document})))


def test_the_metadata_error_is_kept_until_the_metadata_is_replaced_or_removed(golden_files):
    opened = open_archive(_with_metadata(golden_files, b"<x/>"))
    reason = "root element 'x', expected rdf:RDF"
    assert opened.metadata is None and opened.metadata_error == reason
    grown = add_entry(opened, "notes.txt", TEXT, b"n")
    assert grown.metadata_error == reason
    assert remove_entry(grown, "notes.txt").metadata_error == reason
    assert set_metadata(grown, _stamp()).metadata_error is None
    assert remove_entry(grown, "metadata.rdf").metadata_error is None
    assert open_archive(grown.to_bytes()).metadata_error == reason


PLAIN_PROPERTY_METADATA = b"""<rdf:RDF
  xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#">
  <rdf:Description rdf:about="."><is rdf:resource="http://example.org/plain"/></rdf:Description>
</rdf:RDF>"""


def test_a_property_outside_any_namespace_survives_set_metadata(golden_files):
    opened = open_archive(_with_metadata(golden_files, PLAIN_PROPERTY_METADATA))
    updated = set_metadata(opened, opened.metadata)
    data = updated.container.get("metadata.rdf")
    assert b'<is rdf:resource="http://example.org/plain"/>' in data
    assert open_archive(updated.to_bytes()).metadata == opened.metadata


# members, and the path or directory named as colliding
_CASE_COLLISIONS = [
    ([("a.txt", b"1"), ("A.txt", b"2")], "A.txt"),
    ([("a", b"1"), ("A/b", b"2")], "A"),
    ([("d/Straße", b"1"), ("d/STRASSE", b"2")], "d/STRASSE"),
]


def _listing_all(members) -> bytes:
    return raw_zip([("manifest.xml", _manifest_for(*(path for path, _ in members)))] + members)


@pytest.mark.parametrize("members,location", _CASE_COLLISIONS)
def test_case_collisions_are_reported(members, location):
    report = validate_archive(_listing_all(members), ValidationMode.LENIENT)
    assert [(f.rule, f.severity, f.location) for f in report if f.rule == "case-collision"] == [
        ("case-collision", Severity.WARNING, location)]


@pytest.mark.parametrize("members,location", _CASE_COLLISIONS)
def test_extract_refuses_case_collisions_before_writing(members, location, tmp_path):
    dest = tmp_path / "dest"
    with pytest.raises(UnsafePath, match="only in case") as refusal:
        extract_all(open_archive(_listing_all(members)), dest)
    assert refusal.value.path == location
    assert not dest.exists()


# three files that are directories too; a walk over a set of them would
# name one by the hash seed, and not the first
_SHARED_PATHS = [("a", b"1"), ("a/x", b"2"), ("b", b"3"), ("b/y", b"4"),
                 ("c", b"5"), ("c/z", b"6")]


def test_a_file_at_a_directory_path_is_reported_first_in_container_order():
    report = validate_archive(_listing_all(_SHARED_PATHS), ValidationMode.LENIENT)
    assert report.errors == []
    assert [(f.rule, f.severity, f.location) for f in report if f.rule == "shared-path"] == [
        ("shared-path", Severity.WARNING, "a")]


def test_extract_names_the_first_shared_path_under_every_hash_seed(tmp_path):
    path = tmp_path / "shared.omex"
    path.write_bytes(_listing_all(_SHARED_PATHS))
    code = ("import sys\n"
            "from omexarchive import extract_all, open_archive\n"
            "from omexarchive.errors import UnsafePath\n"
            "try:\n"
            "    extract_all(open_archive(open(sys.argv[1], 'rb').read()), sys.argv[2])\n"
            "except UnsafePath as exc:\n"
            "    print(exc.path)\n")
    src = Path(omexarchive.__file__).resolve().parents[1]
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(seed))
        result = subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / "d")],
                                capture_output=True, text=True, check=True, env=env)
        assert (seed, result.stdout) == (seed, "a\n")
    assert not (tmp_path / "d").exists()


def test_paths_that_differ_in_more_than_case_do_not_collide(tmp_path):
    data = _listing_all([("A/x", b"1"), ("a/y", b"2"), ("b", b"3")])
    assert "case-collision" not in [f.rule for f in validate_archive(data)]
    assert len(extract_all(open_archive(data), tmp_path / "dest")) == 4


def _descriptors() -> list[str] | None:
    """The descriptors this process holds open, where /proc lists them."""
    fds = Path("/proc/self/fd")
    return sorted(os.listdir(fds)) if fds.is_dir() else None


def _linked_archive():
    return create_archive([("a.txt", TEXT, False, b"new"),
                           ("models/model.xml", SBML, True, b"<sbml/>")])


@pytest.mark.parametrize("inside", [False, True], ids=["outside", "inside"])
def test_extract_refuses_a_link_at_a_members_directory(inside, tmp_path, tmp_path_factory):
    dest = tmp_path / "dest"
    dest.mkdir()
    target = dest / "elsewhere" if inside else tmp_path_factory.mktemp("outside")
    target.mkdir(exist_ok=True)
    (dest / "models").symlink_to(target, target_is_directory=True)
    before = _descriptors()
    with pytest.raises(UnsafePath, match="a link or a non-directory") as refusal:
        extract_all(_linked_archive(), dest)
    assert refusal.value.path == "models/model.xml"
    assert list(target.iterdir()) == []
    assert _descriptors() == before


@pytest.mark.parametrize("inside", [False, True], ids=["outside", "inside"])
def test_extract_refuses_a_link_at_a_members_file(inside, tmp_path, tmp_path_factory):
    dest = tmp_path / "dest"
    dest.mkdir()
    target = (dest / "elsewhere" if inside else tmp_path_factory.mktemp("outside")) / "a.txt"
    target.parent.mkdir(exist_ok=True)
    target.write_bytes(b"old")
    dangling = target.with_name("missing.txt")
    (dest / "a.txt").symlink_to(target)
    before = _descriptors()
    with pytest.raises(UnsafePath, match="a link or a non-directory") as refusal:
        extract_all(_linked_archive(), dest)
    assert refusal.value.path == "a.txt"
    assert target.read_bytes() == b"old"
    # nor is a file made through a link to nothing
    (dest / "a.txt").unlink()
    (dest / "a.txt").symlink_to(dangling)
    with pytest.raises(UnsafePath, match="a link or a non-directory"):
        extract_all(_linked_archive(), dest)
    assert not dangling.exists()
    assert _descriptors() == before


def test_extract_refuses_a_file_where_a_members_directory_goes(tmp_path):
    dest = tmp_path / "dest"
    dest.mkdir()
    (dest / "models").write_bytes(b"a file")
    with pytest.raises(UnsafePath, match="a link or a non-directory") as refusal:
        extract_all(_linked_archive(), dest)
    assert refusal.value.path == "models/model.xml"
    assert (dest / "models").read_bytes() == b"a file"


@pytest.mark.skipif(_descriptors() is None, reason="no /proc/self/fd to count descriptors")
def test_a_member_deeper_than_the_descriptor_limit_fails_and_leaks_nothing(tmp_path):
    # each directory on the way down holds a descriptor while its members are written
    code = ("import errno, os, resource, sys\n"
            "from omexarchive import create_archive, extract_all\n"
            "archive = create_archive([('d/' * 300 + 'x.txt', sys.argv[2], False, b'x')])\n"
            "before = sorted(os.listdir('/proc/self/fd'))\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)\n"
            "resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))\n"
            "try:\n"
            "    extract_all(archive, sys.argv[1])\n"
            "except OSError as exc:\n"
            "    print(errno.errorcode[exc.errno])\n"
            "print(sorted(os.listdir('/proc/self/fd')) == before)\n")
    src = Path(omexarchive.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path / "dest"), TEXT],
                            capture_output=True, text=True, check=True, env=env)
    assert result.stdout == "EMFILE\nTrue\n"


@pytest.mark.parametrize("dir_fd", [True, False], ids=["dir_fd", "by_path"])
def test_extract_returns_the_files_in_path_order(dir_fd, tmp_path, monkeypatch):
    if not dir_fd:
        monkeypatch.setattr(os, "supports_dir_fd", set())
    # "a-b" sorts before "a/" as a string and after "a" as a segment
    paths = ["a/b.c/d", "a-b/c", "a.txt", "A/x", "manifest.xml"]
    archive = create_archive([(p, TEXT, False, p.encode()) for p in paths[:-1]])
    dest = tmp_path / "dest"
    written = extract_all(archive, dest)
    assert written == sorted(dest.joinpath(*p.split("/")) for p in paths)
    assert [str(p) for p in written] != sorted(str(p) for p in written)
    assert [p.read_bytes() for p in written if p.name != "manifest.xml"] == [
        b"A/x", b"a/b.c/d", b"a-b/c", b"a.txt"]


def test_extract_without_directory_descriptors_refuses_a_link_out(tmp_path, tmp_path_factory,
                                                                  monkeypatch):
    monkeypatch.setattr(os, "supports_dir_fd", set())
    dest, outside = tmp_path / "dest", tmp_path_factory.mktemp("outside")
    dest.mkdir()
    (dest / "models").symlink_to(outside, target_is_directory=True)
    with pytest.raises(UnsafePath, match="escapes the destination") as refusal:
        extract_all(_linked_archive(), dest)
    assert refusal.value.path == "models/model.xml"
    assert list(outside.iterdir()) == [] and list(dest.iterdir()) == [dest / "models"]


@pytest.mark.parametrize("dir_fd", [True, False], ids=["dir_fd", "by_path"])
def test_extract_refuses_a_file_other_hard_links_share(dir_fd, tmp_path, tmp_path_factory,
                                                       monkeypatch):
    if not dir_fd:
        monkeypatch.setattr(os, "supports_dir_fd", set())
    dest, outside = tmp_path / "dest", tmp_path_factory.mktemp("outside") / "outside.txt"
    dest.mkdir()
    outside.write_bytes(b"old")
    os.link(outside, dest / "a.txt")
    with pytest.raises(UnsafePath, match="other hard links") as refusal:
        extract_all(_linked_archive(), dest)
    assert refusal.value.path == "a.txt"
    assert outside.read_bytes() == b"old"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
@pytest.mark.parametrize("reader", [False, True], ids=["no_reader", "reader"])
@pytest.mark.parametrize("dir_fd", [True, False], ids=["dir_fd", "by_path"])
def test_extract_refuses_a_fifo_where_a_members_file_goes(dir_fd, reader, tmp_path, monkeypatch):
    if not dir_fd:
        monkeypatch.setattr(os, "supports_dir_fd", set())
    os.mkfifo(tmp_path / "a.txt")
    opened = [os.open(tmp_path / "a.txt", os.O_RDONLY | os.O_NONBLOCK)] if reader else []

    def hung(signum, frame):
        raise TimeoutError("extract_all waited on the FIFO")

    # an open that waits for a reader fails the test instead of hanging it
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        with pytest.raises(UnsafePath, match="FIFO or other non-regular file") as refusal:
            extract_all(_linked_archive(), tmp_path)
        assert refusal.value.path == "a.txt"
        assert [os.read(fd, 16) for fd in opened] == [b""] * len(opened)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        for fd in opened:
            os.close(fd)
    assert stat.S_ISFIFO(os.lstat(tmp_path / "a.txt").st_mode)


@pytest.mark.parametrize("dir_fd", [True, False], ids=["dir_fd", "by_path"])
def test_extract_refuses_a_directory_where_a_members_file_goes(dir_fd, tmp_path, monkeypatch):
    if not dir_fd:
        monkeypatch.setattr(os, "supports_dir_fd", set())
    dest = tmp_path / "dest"
    (dest / "models" / "model.xml").mkdir(parents=True)
    with pytest.raises(UnsafePath, match="a directory lies where its file goes") as refusal:
        extract_all(_linked_archive(), dest)
    assert refusal.value.path == "models/model.xml"
    assert list((dest / "models" / "model.xml").iterdir()) == []


@pytest.mark.parametrize("dir_fd", [True, False], ids=["dir_fd", "by_path"])
def test_extract_replaces_all_of_a_longer_existing_file(dir_fd, tmp_path, monkeypatch):
    if not dir_fd:
        monkeypatch.setattr(os, "supports_dir_fd", set())
    (tmp_path / "a.txt").write_bytes(b"a much longer old content")
    extract_all(_linked_archive(), tmp_path)
    assert (tmp_path / "a.txt").read_bytes() == b"new"


@pytest.mark.parametrize("members,reason", [
    ([("a", b"1"), ("a/b", b"2")], "file and directory share a path"),
    ([("a.txt", b"1"), ("A.txt", b"2")], "only in case"),
], ids=["file_and_directory", "case"])
def test_extract_of_a_file_refuses_a_clash_before_making_anything(members, reason, tmp_path):
    # the long member read from the file is staged before the clash is
    # refused, in the nearest directory that exists, and leaves nothing there
    path = tmp_path / "a.omex"
    path.write_bytes(_listing_all([*members, ("z/blob.bin", random.Random(35).randbytes(300_000))]))
    dest = tmp_path / "missing" / "dest"
    with open(path, "rb") as file:
        archive = open_archive(file)
        with pytest.raises(UnsafePath, match=reason):
            extract_all(archive, dest)
    assert [p.name for p in tmp_path.iterdir()] == ["a.omex"]


@pytest.mark.parametrize("dir_fd", [True, False], ids=["dir_fd", "by_path"])
def test_extract_refuses_an_archive_file_changed_after_its_open_before_writing(
        dir_fd, tmp_path, monkeypatch):
    # the open checked every member; the file changed since, so its one long
    # member read from the file again is refused before a target is written
    if not dir_fd:
        monkeypatch.setattr(os, "supports_dir_fd", set())
    blob = random.Random(35).randbytes(300_000)
    path = tmp_path / "a.omex"
    path.write_bytes(create_archive([("a.txt", TEXT, False, b"a"),
                                     ("z/blob.bin", TEXT, False, blob)]).to_bytes())
    dest = tmp_path / "dest"
    (dest / "z").mkdir(parents=True)
    (dest / "z" / "blob.bin").write_bytes(b"8 bytes!")
    with open(path, "r+b") as file:
        archive = open_archive(file)
        file.seek(path.read_bytes().find(blob) + 200_000)
        file.write(bytes(byte ^ 0xFF for byte in blob[200_000:200_016]))
        file.flush()
        with pytest.raises(CorruptEntry) as refusal:
            extract_all(archive, dest)
    assert refusal.value.path == "z/blob.bin"
    assert sorted(p.relative_to(dest).as_posix() for p in dest.rglob("*")) == ["z", "z/blob.bin"]
    assert (dest / "z" / "blob.bin").read_bytes() == b"8 bytes!"


@pytest.mark.parametrize("dir_fd", [True, False], ids=["dir_fd", "by_path"])
def test_extract_into_a_fresh_directory_truncates_no_file(dir_fd, tmp_path, monkeypatch):
    # a fresh file has no bytes to cut; one with bytes is cut before it is written
    if not dir_fd:
        monkeypatch.setattr(os, "supports_dir_fd", set())
    truncated = []
    ftruncate = os.ftruncate
    monkeypatch.setattr(os, "ftruncate", lambda fd, size: truncated.append(size) or
                        ftruncate(fd, size))
    archive = open_archive(_linked_archive().to_bytes())
    written = extract_all(archive, tmp_path / "dest")
    assert truncated == []
    extract_all(archive, tmp_path / "dest")
    assert truncated == [0] * len(written)


def test_extract_writes_every_byte_when_writes_come_up_short(tmp_path, monkeypatch):
    long = bytes(range(256)) * 1024
    archive = open_archive(create_archive([("long.bin", TEXT, False, long),
                                           ("d/short.txt", TEXT, False, b"short")]).to_bytes())
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, bytes(data[:4099])))
    extract_all(archive, tmp_path)
    assert (tmp_path / "long.bin").read_bytes() == long
    assert (tmp_path / "d" / "short.txt").read_bytes() == b"short"


@pytest.mark.parametrize("damage", ["none", "no manifest", "not a zip", "truncated"])
def test_open_and_validate_take_a_file_as_they_take_bytes(tmp_path, golden_archive_bytes,
                                                          damage):
    data = {"none": golden_archive_bytes,
            "no manifest": write_container(omexarchive.Container(
                [omexarchive.ContainerEntry("a.txt", b"a")])),
            "not a zip": b"not a zip",
            "truncated": golden_archive_bytes[:-30]}[damage]
    path = tmp_path / "a.omex"
    path.write_bytes(data)
    with open(path, "rb") as file:
        assert validate_archive(file).items == validate_archive(data).items
        if damage == "none":
            assert open_archive(file) == open_archive(data)
