import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import omexarchive
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
)
from omexarchive.archive import pack_directory, stamp_block
from omexarchive.errors import (
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

    archive = create_archive(
        _golden_like_files(golden_files),
        metadata=parse_metadata(golden_metadata_xml),
    )
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
        create_archive([("metadata.rdf/x", TEXT, False, b"")], metadata=_stamp())


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
    from omexarchive import write_container

    with pytest.raises(DanglingManifestEntry) as exc:
        open_archive(write_container(data))
    assert exc.value.location == "doc/article.pdf"


def test_validate_golden_strict(golden_archive_bytes):
    report = validate_archive(golden_archive_bytes, ValidationMode.STRICT)
    assert not report.errors
    assert [f.rule for f in report.warnings] == ["missing-modified"]


def test_validate_unlisted_file(golden_files):
    files = dict(golden_files)
    files["notes.txt"] = b"scratch"
    from omexarchive import write_container

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


def test_validate_not_a_zip():
    report = validate_archive(b"not a zip at all")
    assert [f.rule for f in report] == ["not-a-zip"]
    assert report.items[0].severity is Severity.ERROR


def test_validate_is_deterministically_ordered(golden_files):
    files = dict(golden_files)
    files["notes.txt"] = b"scratch"
    files["also.txt"] = b"more"
    from omexarchive import write_container

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
    before = archive.container.byte_map()
    after = grown.container.byte_map()
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
    archive = create_archive(_golden_like_files(golden_files), metadata=meta)
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
    assert repacked.container.byte_map()["models/model.xml"] == golden_files["models/model.xml"]
    assert open_archive(repacked.to_bytes()).container.byte_map().keys() == \
        open_archive(first).container.byte_map().keys()


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
    assert archive.container.byte_map()["metadata.rdf"] == golden_metadata_xml


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


def test_pack_directory_unknown_master(tmp_path):
    (tmp_path / "a.xml").write_bytes(b"<a/>")
    with pytest.raises(NoSuchEntry):
        pack_directory(tmp_path, masters={"missing.xml"}, stamp=False)


def test_set_metadata_creates_entry(golden_files):
    archive = create_archive(_golden_like_files(golden_files))
    meta = MetadataSet()
    meta.add(stamp_block(Creator(family_name="Doe"),
                         Timestamp.parse("2020-01-01T00:00:00Z")))
    updated = set_metadata(archive, meta)
    assert updated.manifest.find("metadata.rdf") is not None
    assert open_archive(updated.to_bytes()).metadata == meta


def _with_metadata(golden_files, document: bytes):
    from omexarchive import write_container

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
