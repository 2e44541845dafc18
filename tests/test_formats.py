import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omexarchive import (
    ContentEntry,
    FormatKind,
    Manifest,
    classify_format,
    format_for_filename,
    infer_extension,
    parse_manifest,
)
from omexarchive.formats import COMBINE_PREFIX, EXTENSIONS, MEDIATYPE_PREFIX
from omexarchive.manifest import OMEX_FORMAT_URI


def test_classify_combine():
    fc = classify_format(COMBINE_PREFIX + "sbml")
    assert fc.kind is FormatKind.COMBINE_REGISTERED
    assert fc.key == "sbml"


def test_classify_combine_versioned():
    fc = classify_format(COMBINE_PREFIX + "sed-ml.level-1.version-2")
    assert fc.kind is FormatKind.COMBINE_REGISTERED
    assert fc.key == "sed-ml.level-1.version-2"


def test_classify_registered_media_type():
    fc = classify_format(MEDIATYPE_PREFIX + "application/pdf")
    assert fc.kind is FormatKind.REGISTERED_MEDIA_TYPE
    assert fc.key == "application/pdf"


def test_classify_unregistered_media_type():
    fc = classify_format(MEDIATYPE_PREFIX + "application/x.copasi")
    assert fc.kind is FormatKind.UNREGISTERED_MEDIA_TYPE
    assert fc.key == "application/x.copasi"


@pytest.mark.parametrize(
    "uri",
    ["ftp:bad uri", "", "sbml", "http://example.org/format",
     MEDIATYPE_PREFIX + "notamediatype", MEDIATYPE_PREFIX + "a/b/c",
     COMBINE_PREFIX, COMBINE_PREFIX + "sb\x01ml", COMBINE_PREFIX + "sb\uffffml"],
)
def test_classify_invalid(uri):
    fc = classify_format(uri)
    assert fc.kind is FormatKind.INVALID
    assert fc.key == uri


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=60))
def test_classify_is_total(uri):
    fc = classify_format(uri)
    assert fc.kind in FormatKind


def _manifest(*format_uris):
    entries = [ContentEntry(".", OMEX_FORMAT_URI)]
    for i, uri in enumerate(format_uris):
        entries.append(ContentEntry(f"f{i}.xml", uri))
    return Manifest(entries)


SBML = COMBINE_PREFIX + "sbml"
CELLML = COMBINE_PREFIX + "cellml"
SEDML = COMBINE_PREFIX + "sed-ml"
SBOL = COMBINE_PREFIX + "sbol"
PDF = MEDIATYPE_PREFIX + "application/pdf"


def test_golden_manifest_infers_sedx(golden_manifest_xml):
    assert infer_extension(parse_manifest(golden_manifest_xml)) == "sedx"


@pytest.mark.parametrize(
    "uris,expected",
    [
        ((SBML,), "sbex"),
        ((CELLML,), "cmex"),
        ((SBOL,), "sbox"),
        ((COMBINE_PREFIX + "neuroml",), "neux"),
        ((COMBINE_PREFIX + "pharmml",), "phex"),
        ((SBML, CELLML), "omex"),
        ((SBML, SEDML), "sedx"),
        ((SBML, PDF), "sbex"),
        ((PDF,), "omex"),
        ((), "omex"),
        ((COMBINE_PREFIX + "sbml.level-3.version-1",), "sbex"),
        ((COMBINE_PREFIX + "sed-ml.level-1.version-2",), "sedx"),
    ],
)
def test_infer_extension_table(uris, expected):
    assert infer_extension(_manifest(*uris)) == expected


def test_sedml_dominance():
    for uris in [(), (SBML,), (SBML, CELLML), (PDF, SBOL)]:
        assert infer_extension(_manifest(*uris, SEDML)) == "sedx"


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([SBML, CELLML, SEDML, SBOL, PDF]), max_size=6))
def test_inferred_extension_is_in_the_known_set(uris):
    assert infer_extension(_manifest(*uris)) in EXTENSIONS


@pytest.mark.parametrize(
    "name,expected",
    [
        ("doc/article.pdf", MEDIATYPE_PREFIX + "application/pdf"),
        ("metadata.rdf", COMBINE_PREFIX + "omex-metadata"),
        ("data.bin", MEDIATYPE_PREFIX + "application/octet-stream"),
        ("model.sbml", SBML),
        ("sim.sedml", SEDML),
        ("notes.txt", MEDIATYPE_PREFIX + "text/plain"),
        ("model.xml", MEDIATYPE_PREFIX + "application/xml"),
        ("no_extension", MEDIATYPE_PREFIX + "application/octet-stream"),
    ],
)
def test_format_for_filename(name, expected):
    assert format_for_filename(name) == expected
