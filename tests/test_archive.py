import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omexarchive import (
    Creator,
    MetadataSet,
    Severity,
    Timestamp,
    ValidationMode,
    add_entry,
    create_archive,
    extract_all,
    master_of,
    open_archive,
    parse_manifest,
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
)
from omexarchive.formats import COMBINE_PREFIX, MEDIATYPE_PREFIX

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
    got = {(e.normalized_location, e.format, bool(e.master))
           for e in archive.manifest.entries}
    want = {(e.normalized_location, e.format, bool(e.master))
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


def test_create_rejects_invalid_format():
    with pytest.raises(InvalidFormatUri):
        create_archive([("a.xml", "not a uri", False, b"")])


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
def test_whatever_create_accepts_open_reopens(location, prefix, suffix):
    try:
        archive = create_archive([(location, prefix + suffix, False, b"data")])
        data = archive.to_bytes()
    except OmexError:
        return
    assert open_archive(data) == archive


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
    before = archive.byte_map()
    after = grown.byte_map()
    changed = {p for p in before if before[p] != after.get(p)}
    assert changed == {"manifest.xml"}
    assert set(after) - set(before) == {"models/m2.xml"}


def test_add_duplicate_rejected(golden_files):
    archive = create_archive(_golden_like_files(golden_files))
    with pytest.raises(DuplicateLocation):
        add_entry(archive, "simulation.xml", SEDML, b"")


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
    assert repacked.byte_map()["models/model.xml"] == golden_files["models/model.xml"]
    assert open_archive(repacked.to_bytes()).byte_map().keys() == \
        open_archive(first).byte_map().keys()


def test_master_of(golden_files):
    archive = create_archive(_golden_like_files(golden_files))
    assert [e.normalized_location for e in master_of(archive)] == ["simulation.xml"]


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
    assert archive.byte_map()["metadata.rdf"] == golden_metadata_xml


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
