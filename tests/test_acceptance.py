"""Acceptance suite: one test per release criterion, with timing gates.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion.
"""

import random
import time
import zlib
from contextlib import contextmanager
from datetime import datetime, timezone

import pytest

from omexarchive import (
    ContentEntry,
    Creator,
    Manifest,
    MetadataSet,
    Severity,
    ValidationMode,
    add_entry,
    create_archive,
    extract_all,
    infer_extension,
    master_entries,
    open_archive,
    parse_manifest,
    parse_metadata,
    remove_entry,
    serialize_manifest,
    serialize_metadata,
    set_metadata,
    validate_archive,
    write_container,
)
from omexarchive.archive import RESERVED_LOCATIONS, pack_directory
from omexarchive.errors import OmexError, UnsafePath
from omexarchive.formats import COMBINE_PREFIX, MEDIATYPE_PREFIX
from omexarchive.manifest import OMEX_FORMAT_URI
from omexarchive.metadata import DescriptionBlock

from conftest import FOREIGN_MANIFESTS, GOLDEN_FILES, build_container, raw_zip


@contextmanager
def criterion(name, limit_seconds):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"FAIL {name}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, f"{name} took {elapsed:.2f}s (limit {limit_seconds}s)"
    print(f"PASS {name} ({elapsed:.2f}s)")


def test_criterion_1_golden_manifest_fidelity(golden_manifest_xml):
    with criterion("1 golden-manifest fidelity", 1.0):
        manifest = parse_manifest(golden_manifest_xml)
        assert len(manifest.entries) == 5
        masters = master_entries(manifest)
        assert [e.path for e in masters] == ["simulation.xml"]
        assert manifest.find(".").format == OMEX_FORMAT_URI
        assert parse_manifest(serialize_manifest(manifest)) == manifest


def test_criterion_2_golden_metadata_fidelity(golden_metadata_xml):
    with criterion("2 golden-metadata fidelity", 1.0):
        meta = parse_metadata(golden_metadata_xml)
        block = meta.get(".")
        assert block.creators == [
            Creator(
                family_name="Le Novere",
                given_name="Nicolas",
                email="lenov@babraham.ac.uk",
                organization="Babraham Institute",
                url="http://orcid.org/0000-0002-6309-7327",
            )
        ]
        assert block.created.instant == datetime(
            2014, 6, 26, 10, 29, tzinfo=timezone.utc
        )
        bq = "{http://biomodels.net/model-qualifiers/}"
        resource = "{http://www.w3.org/1999/02/22-rdf-syntax-ns#}resource"
        kept = [(e.tag, e.get(resource)) for e in block.kept]
        assert kept == [
            (bq + "is", "http://identifiers.org/biomodels.db/MODEL1311110001"),
            (bq + "isDescribedBy", "http://identifiers.org/arxiv/1311.5696"),
        ]
        assert parse_metadata(serialize_metadata(meta)) == meta


_SEGMENTS = ["data", "models", "sim", "résultats", "模型", "βeta", "a b", "x_y"]


def _random_tree(rng, root, index):
    files = {}
    for i in range(rng.randint(1, 50)):
        parts = [rng.choice(_SEGMENTS) for _ in range(rng.randint(0, 3))]
        parts.append(f"file{index}_{i}.dat")
        rel = "/".join(parts)
        roll = rng.random()
        if roll < 0.70:
            size = rng.randint(0, 512)
        elif roll < 0.95:
            size = rng.randint(512, 8192)
        else:
            size = rng.randint(64 * 1024, 1024 * 1024)
        files[rel] = rng.randbytes(size)
    for rel, data in files.items():
        target = root.joinpath(*rel.split("/"))
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)
    return files


def test_criterion_3_full_cycle_property(tmp_path):
    with criterion("3 full-cycle property (100 trees)", 60.0):
        rng = random.Random(20140626)
        for index in range(100):
            src = tmp_path / f"tree{index}"
            src.mkdir()
            files = _random_tree(rng, src, index)
            first = pack_directory(src, stamp=False).to_bytes()
            archive = open_archive(first)
            expected = dict(files)
            expected["manifest.xml"] = archive.container.byte_map()["manifest.xml"]
            assert archive.container.byte_map() == expected
            dest = tmp_path / f"out{index}"
            extract_all(archive, dest)
            second = pack_directory(dest, stamp=False).to_bytes()
            assert second == first
            assert open_archive(second).container.byte_map() == expected


def test_criterion_4_compression_property():
    with criterion("4 compression property", 1.0):
        payload = (b"Lorem ipsum dolor sit amet consectetur adipiscing el#\n") \
            * (1024 * 1024 // 54 + 1)
        payload = payload[: 1024 * 1024]
        assert len(payload) == 1024 * 1024
        # independent oracle: raw deflate confirms the bound is attainable
        assert len(zlib.compress(payload)) <= 0.20 * len(payload)
        archive = create_archive(
            [("big.txt", MEDIATYPE_PREFIX + "text/plain", False, payload)]
        )
        assert len(archive.to_bytes()) <= 0.20 * len(payload)


def test_criterion_5_extension_inference_table():
    with criterion("5 extension-inference table", 1.0):
        sbml = COMBINE_PREFIX + "sbml"
        cellml = COMBINE_PREFIX + "cellml"
        sedml = COMBINE_PREFIX + "sed-ml"

        def manifest_for(*uris):
            entries = [ContentEntry(".", OMEX_FORMAT_URI)]
            entries += [ContentEntry(f"f{i}.xml", u) for i, u in enumerate(uris)]
            return Manifest(entries)

        assert infer_extension(manifest_for(sbml, sedml)) == "sedx"
        assert infer_extension(manifest_for(sbml)) == "sbex"
        assert infer_extension(manifest_for(cellml)) == "cmex"
        assert infer_extension(manifest_for(sbml, cellml)) == "omex"


def _mutate(xml, old, new):
    assert old in xml
    return xml.replace(old, new)


def _corpus():
    golden = dict(GOLDEN_FILES)
    manifest = golden["manifest.xml"]
    sbml_entry = (
        b'<content location="models/model.xml"\n'
        b'    format="http://identifiers.org/combine.specifications/sbml"/>'
    )

    # missing manifest
    no_manifest = {k: v for k, v in golden.items() if k != "manifest.xml"}
    yield "missing-manifest", no_manifest, \
        [(Severity.ERROR, "missing-manifest")]

    # dangling manifest entry
    dangling = {k: v for k, v in golden.items() if k != "doc/article.pdf"}
    yield "dangling-entry", dangling, \
        [(Severity.ERROR, "missing-file"), (Severity.WARNING, "missing-modified")]

    # unlisted file
    unlisted = dict(golden)
    unlisted["notes.txt"] = b"scratch"
    yield "unlisted-file", unlisted, \
        [(Severity.ERROR, "unlisted-file"), (Severity.WARNING, "missing-modified")]

    # duplicate location
    dup = dict(golden)
    dup["manifest.xml"] = _mutate(
        manifest, b"</omexManifest>", sbml_entry + b"</omexManifest>"
    )
    yield "duplicate-location", dup, [(Severity.ERROR, "duplicate-location")]

    # absolute-path location
    absolute = dict(golden)
    absolute["manifest.xml"] = _mutate(
        manifest, b'location="models/model.xml"', b'location="/etc/passwd"'
    )
    yield "absolute-location", absolute, [(Severity.ERROR, "invalid-location")]

    # parent-directory traversal
    traversal = dict(golden)
    traversal["manifest.xml"] = _mutate(
        manifest, b'location="models/model.xml"', b'location="../../escape.xml"'
    )
    yield "traversal-location", traversal, [(Severity.ERROR, "invalid-location")]

    # invalid format URI
    badformat = dict(golden)
    badformat["manifest.xml"] = _mutate(
        manifest,
        b'format="http://purl.org/NET/mediatypes/application/pdf"',
        b'format="ftp:bad uri"',
    )
    yield "invalid-format", badformat, \
        [(Severity.ERROR, "invalid-format"), (Severity.WARNING, "missing-modified")]

    # wrong manifest namespace
    wrongns = dict(golden)
    wrongns["manifest.xml"] = _mutate(
        manifest,
        b"http://identifiers.org/combine.specifications/omex-manifest",
        b"http://example.org/bogus-namespace",
    )
    yield "wrong-namespace", wrongns, [(Severity.ERROR, "wrong-namespace")]

    # two master entries
    twomasters = dict(golden)
    twomasters["manifest.xml"] = _mutate(
        manifest,
        b'<content location="models/model.xml"',
        b'<content location="models/model.xml" master="true"',
    )
    yield "two-masters", twomasters, \
        [(Severity.WARNING, "multiple-masters"),
         (Severity.WARNING, "missing-modified")]

    # metadata missing both dates
    nodates = dict(golden)
    meta = MetadataSet()
    meta.add(DescriptionBlock(about=".", creators=[Creator(family_name="Doe")]))
    nodates["metadata.rdf"] = serialize_metadata(meta)
    yield "missing-dates", nodates, \
        [(Severity.WARNING, "missing-created"),
         (Severity.WARNING, "missing-modified")]


def test_criterion_6_validation_corpus():
    with criterion("6 validation corpus (10 fixtures)", 5.0):
        count = 0
        for name, files, expected in _corpus():
            count += 1
            data = write_container(build_container(files))
            report = validate_archive(data, ValidationMode.STRICT)
            got = sorted((f.severity.value, f.rule) for f in report)
            want = sorted((sev.value, rule) for sev, rule in expected)
            assert got == want, f"fixture {name}: {report.items}"
        assert count == 10


HOSTILE_NAMES = [
    "../a.txt", "..", "../../b.txt", "a/../c.txt", "a/../../d.txt",
    "/abs.txt", "//x.txt", "/etc/passwd", "a\\b.txt", "..\\e.txt",
    "C:/boot.ini", "C:\\win.ini", "c:/x.txt", "./f.txt", "a/./g.txt",
    "a//h.txt", "file:///etc/passwd", "http://host/i.txt", "..../..",
    "\\\\server\\share\\j.txt",
]


def test_criterion_7_path_safety(tmp_path):
    with criterion("7 path-safety corpus (20 cases)", 5.0):
        assert len(HOSTILE_NAMES) == 20
        before = set(tmp_path.parent.rglob("*"))
        for i, name in enumerate(HOSTILE_NAMES):
            data = raw_zip([("manifest.xml", b"<m/>"), (name, b"evil")])
            with pytest.raises(UnsafePath):
                open_archive(data)
            report = validate_archive(data, ValidationMode.STRICT)
            assert [f.rule for f in report] == ["unsafe-path"]
        # nothing was written anywhere near the working directory
        assert set(tmp_path.parent.rglob("*")) == before
        assert list(tmp_path.iterdir()) == []


def test_criterion_8_determinism(tmp_path, golden_files):
    with criterion("8 determinism", 5.0):
        src = tmp_path / "src"
        for path, data in golden_files.items():
            if path == "manifest.xml":
                continue
            target = src / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
        first = pack_directory(src, stamp=False).to_bytes()
        second = pack_directory(src, stamp=False).to_bytes()
        assert first == second

        mutated = dict(golden_files)
        mutated["notes.txt"] = b"scratch"
        mutated["zz.txt"] = b"more"
        data = write_container(build_container(mutated))
        report_a = validate_archive(data, ValidationMode.STRICT)
        report_b = validate_archive(data, ValidationMode.STRICT)
        assert report_a.items == report_b.items
        assert report_a.items == report_a.sorted().items


def _byte_flips(data, count, seed=1):
    """Seeded mutants of `data`, each with 1-4 random byte overwrites."""
    rng = random.Random(seed)
    for _ in range(count):
        mutant = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            mutant[rng.randrange(len(mutant))] = rng.randrange(256)
        yield bytes(mutant)


def _criterion_9_inputs(golden_archive_bytes):
    inputs = [write_container(build_container(files)) for _, files, _ in _corpus()]
    inputs += [raw_zip([("manifest.xml", b"<m/>"), (name, b"evil")])
               for name in HOSTILE_NAMES]
    inputs += _byte_flips(golden_archive_bytes, 500)
    inputs += [golden_archive_bytes[:n] for n in range(len(golden_archive_bytes))]
    return inputs


def test_criterion_9_open_agrees_with_lenient_validation(golden_archive_bytes):
    with criterion("9 open/validate agreement (corpora, 500 byte-flips, "
                   "every truncation)", 20.0):
        for data in _criterion_9_inputs(golden_archive_bytes):
            # validation never raises, in either mode
            validate_archive(data, ValidationMode.STRICT)
            errors = validate_archive(data, ValidationMode.LENIENT).errors
            # open raises only OmexError, and exactly when lenient validation
            # finds an error, under one of those errors' rule ids
            try:
                open_archive(data)
            except OmexError as exc:
                assert exc.rule in {f.rule for f in errors}, (exc, errors)
            else:
                assert not errors, errors


def test_every_archive_open_accepts_can_be_edited(golden_archive_bytes):
    meta = MetadataSet()
    meta.add(DescriptionBlock(about=".", creators=[Creator(family_name="Doe")]))
    inputs = _criterion_9_inputs(golden_archive_bytes)
    inputs += [write_container(build_container({**GOLDEN_FILES, "manifest.xml": manifest}))
               for manifest in FOREIGN_MANIFESTS.values()]
    opened = 0
    for data in inputs:
        try:
            archive = open_archive(data)
        except OmexError:
            continue
        opened += 1
        edits = [add_entry(archive, "added.txt", MEDIATYPE_PREFIX + "text/plain", b"new"),
                 set_metadata(archive, meta)]
        listed = [e.path for e in archive.manifest.entries
                  if e.path not in RESERVED_LOCATIONS]
        if listed:
            edits.append(remove_entry(archive, listed[0]))
        for edited in edits:
            open_archive(edited.to_bytes())
    # 4 corpus fixtures, 21 byte flips, 2 foreign manifests; 2 more byte flips
    # declare a member range that reaches into the next member, and 3 a member
    # whose data ends before its declared size, and are refused
    assert opened == 27
