import re
from xml.sax import saxutils

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import omexarchive.container
import omexarchive.manifest
from omexarchive import (
    ContentEntry,
    Manifest,
    Severity,
    master_entries,
    parse_manifest,
    serialize_manifest,
    validate_manifest_against,
)
from omexarchive.errors import (
    DuplicateLocation,
    InvalidLocation,
    InvalidManifest,
    MalformedXml,
    MissingAttribute,
    UnsafePath,
    WrongNamespace,
    WrongRootElement,
)
from omexarchive.container import _PLAIN_PATH, check_path
from omexarchive.manifest import (
    MANIFEST_NS,
    NON_XML_CHAR,
    OMEX_FORMAT_URI,
    check_location,
    escape_text,
    non_xml_char,
    quote_attribute,
)

MINIMAL = (
    f'<omexManifest xmlns="{MANIFEST_NS}">'
    f'<content location="." format="{OMEX_FORMAT_URI}"/>'
    "</omexManifest>"
).encode()


def test_parse_golden(golden_manifest_xml):
    manifest = parse_manifest(golden_manifest_xml)
    assert len(manifest.entries) == 5
    sim = manifest.find("simulation.xml")
    assert sim.master is True
    dot = manifest.find(".")
    assert dot.format == OMEX_FORMAT_URI
    assert [e.location for e in master_entries(manifest)] == ["simulation.xml"]


def test_parse_minimal():
    manifest = parse_manifest(MINIMAL)
    assert len(manifest.entries) == 1
    assert manifest.entries[0].master is None


def test_duplicate_location_rejected(golden_manifest_xml):
    doubled = golden_manifest_xml.replace(
        b"</omexManifest>",
        b'<content location="models/model.xml" '
        b'format="http://identifiers.org/combine.specifications/sbml"/>'
        b"</omexManifest>",
    )
    with pytest.raises(DuplicateLocation):
        parse_manifest(doubled)


def test_dot_prefixed_duplicate_detected():
    xml = (
        f'<omexManifest xmlns="{MANIFEST_NS}">'
        f'<content location="." format="{OMEX_FORMAT_URI}"/>'
        f'<content location="a/b" format="{OMEX_FORMAT_URI}"/>'
        f'<content location="./a/b" format="{OMEX_FORMAT_URI}"/>'
        "</omexManifest>"
    ).encode()
    with pytest.raises(DuplicateLocation):
        parse_manifest(xml)


def test_wrong_namespace_rejected(golden_manifest_xml):
    wrong = golden_manifest_xml.replace(
        MANIFEST_NS.encode(), b"http://example.org/not-the-manifest-ns", 1
    )
    with pytest.raises(WrongNamespace):
        parse_manifest(wrong)


def test_wrong_root_rejected():
    with pytest.raises(WrongRootElement):
        parse_manifest(f'<manifest xmlns="{MANIFEST_NS}"/>'.encode())


def test_malformed_xml_rejected():
    with pytest.raises(MalformedXml):
        parse_manifest(b"<omexManifest")


def test_missing_attribute_names_entry_and_attribute():
    xml = (
        f'<omexManifest xmlns="{MANIFEST_NS}">'
        f'<content location="."/>'
        "</omexManifest>"
    ).encode()
    with pytest.raises(MissingAttribute) as exc:
        parse_manifest(xml)
    assert exc.value.attribute == "format"
    assert exc.value.entry_index == 0


@pytest.mark.parametrize("content,refusal,attribute", [
    (f'<content format="{OMEX_FORMAT_URI}"/>', MissingAttribute, "location"),
    (f'<content location="." format="{OMEX_FORMAT_URI}" master="yes"/>', MalformedXml, None),
], ids=["no-location", "master-yes"])
def test_content_refusals(content, refusal, attribute):
    xml = f'<omexManifest xmlns="{MANIFEST_NS}">{content}</omexManifest>'.encode()
    with pytest.raises(refusal) as exc:
        parse_manifest(xml)
    assert getattr(exc.value, "attribute", None) == attribute


@pytest.mark.parametrize("raw,expected", [("true", True), ("1", True),
                                          ("false", False), ("0", False)])
def test_master_boolean_forms(raw, expected):
    xml = (
        f'<omexManifest xmlns="{MANIFEST_NS}">'
        f'<content location="." format="{OMEX_FORMAT_URI}" master="{raw}"/>'
        "</omexManifest>"
    ).encode()
    assert parse_manifest(xml).entries[0].master is expected


@pytest.mark.parametrize(
    "location",
    ["/etc/passwd", "../up.xml", "a/../../b", "http://host/x", "a\\b",
     "%2e%2e/secret", "a/%2e%2e/b", "//host/share",
     "a\x01b.xml", "a\ufffeb.xml", "a\ud800b.xml",
     "", "a//b.xml", "a/./b.xml", "a/", "a/.", "C:/x", "a%2F..%2Fb", "%00",
     "a%ffb.xml", "a%c3"],
)
def test_unsafe_locations_rejected(location):
    with pytest.raises(InvalidLocation):
        check_location(location)


@pytest.mark.parametrize(
    "location,path",
    [(".", "."), ("./", "."), ("././", "."), ("./.", "."), ("%2e", "."),
     ("a/b", "a/b"), ("./a/b", "a/b"), ("././x", "x"), ("%2e/x", "x"),
     ("a%20b.xml", "a b.xml"), ("a b.xml", "a b.xml"),
     ("a%2541.txt", "a%41.txt"), ("a%41.txt", "aA.txt"),
     ("r%C3%A9sum%C3%A9.txt", "résumé.txt"), ("100%zz", "100%zz"),
     ("a?b#c", "a?b#c")],
)
def test_check_location_maps_to_path(location, path):
    assert check_location(location) == path
    # stripping `./` is idempotent: a path without `%` maps to itself
    if "%" not in path:
        assert check_location(path) == path


def _outcome(check, text: str):
    """What `check` makes of `text`: what it returns, or its refusal and reason."""
    try:
        return check(text)
    except (UnsafePath, InvalidLocation) as exc:
        return type(exc), exc.reason


@settings(max_examples=400)
@given(st.one_of(st.text(), st.text("aZ9_-./%:\\\x00é"),
                 st.from_regex(_PLAIN_PATH, fullmatch=True)))
@example("a" * 255)
@example("a" * 256)
@example("d/" + "é" * 64)
def test_the_plain_path_shortcut_accepts_only_what_the_rules_accept(text):
    shortcut = [_outcome(check_path, text), _outcome(check_location, text)]
    with pytest.MonkeyPatch.context() as patch:
        never = re.compile(r"(?!)")
        patch.setattr(omexarchive.container, "_PLAIN_PATH", never)
        patch.setattr(omexarchive.manifest, "_PLAIN_PATH", never)
        assert [_outcome(check_path, text), _outcome(check_location, text)] == shortcut


@pytest.mark.parametrize("prefix", ["", "models/"])
def test_a_plain_segment_of_256_characters_is_refused_for_its_length(prefix):
    assert check_location(prefix + "a" * 255) == check_path(prefix + "a" * 255)
    with pytest.raises(UnsafePath, match="segment too long"):
        check_path(prefix + "a" * 256)
    with pytest.raises(InvalidLocation, match="segment too long"):
        check_location(prefix + "a" * 256)


def test_a_plain_location_is_not_decoded(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("decoded")

    monkeypatch.setattr(omexarchive.manifest, "unquote", refuse)
    assert check_location("models/model-1.xml") == "models/model-1.xml"
    with pytest.raises(AssertionError, match="decoded"):
        check_location("a%20b.xml")


def test_unknown_attributes_and_children_ignored():
    xml = (
        f'<omexManifest xmlns="{MANIFEST_NS}">'
        f'<content location="." format="{OMEX_FORMAT_URI}" future="yes"/>'
        f"<futureElement/>"
        "</omexManifest>"
    ).encode()
    manifest = parse_manifest(xml)
    assert len(manifest.entries) == 1


def test_serialize_round_trip_minimal():
    manifest = parse_manifest(MINIMAL)
    assert parse_manifest(serialize_manifest(manifest)) == manifest


def test_serialize_round_trip_golden(golden_manifest_xml):
    manifest = parse_manifest(golden_manifest_xml)
    assert parse_manifest(serialize_manifest(manifest)) == manifest


def test_same_path_twice_is_a_duplicate():
    with pytest.raises(DuplicateLocation):
        Manifest([ContentEntry(".", OMEX_FORMAT_URI),
                  ContentEntry("aA.txt", OMEX_FORMAT_URI),
                  ContentEntry("a%41.txt", OMEX_FORMAT_URI)])


def test_serialize_rejects_invalid_models():
    with pytest.raises(InvalidManifest):
        serialize_manifest(Manifest([]))
    with pytest.raises(InvalidManifest):
        serialize_manifest(Manifest([ContentEntry("a.xml", OMEX_FORMAT_URI)]))
    with pytest.raises(InvalidManifest, match="not allowed in XML"):
        serialize_manifest(Manifest([ContentEntry(".", "http://a/b\x01c")]))


def test_serialize_writes_a_format_back_as_read():
    # classify_format calls it INVALID; that is reported on read, not refused
    manifest = Manifest([ContentEntry(".", OMEX_FORMAT_URI),
                         ContentEntry("a.pdf", "ftp:bad uri")])
    assert parse_manifest(serialize_manifest(manifest)) == manifest


def test_serialize_writes_these_bytes():
    manifest = Manifest([
        ContentEntry(".", OMEX_FORMAT_URI),
        ContentEntry("a&b<c>.xml", "http://purl.org/NET/mediatypes/text/x.a&b<c>", True),
        ContentEntry('say "hi".txt', "http://example.org/it's", False),
        ContentEntry("both \"and' q.txt", "http://example.org/\"'"),
        ContentEntry("tab\tLF\nCR\r.txt", "http://example.org/\t\n\r", True),
        ContentEntry("données/名前-ü.txt", "http://example.org/é", False),
    ])
    assert serialize_manifest(manifest) == (
        '<?xml version="1.0" encoding="utf-8"?>\n'
        f'<omexManifest xmlns="{MANIFEST_NS}">\n'
        f'  <content location="." format="{OMEX_FORMAT_URI}"/>\n'
        '  <content location="a&amp;b&lt;c&gt;.xml"'
        ' format="http://purl.org/NET/mediatypes/text/x.a&amp;b&lt;c&gt;" master="true"/>\n'
        """  <content location='say "hi".txt' format="http://example.org/it's" master="false"/>\n"""
        """  <content location="both &quot;and' q.txt" format="http://example.org/&quot;'"/>\n"""
        '  <content location="tab&#9;LF&#10;CR&#13;.txt"'
        ' format="http://example.org/&#9;&#10;&#13;" master="true"/>\n'
        '  <content location="données/名前-ü.txt" format="http://example.org/é" master="false"/>\n'
        "</omexManifest>\n"
    ).encode()


# text rich in what XML escapes and refuses, and any other text
_xml_text = st.text(st.sampled_from("&<>\"'\n\r\t a\x00\x01\x1f\x7f\xe9\ufffe")) | st.text()


@settings(max_examples=300, deadline=None)
@given(_xml_text)
@example("plain/path.xml")
@example("both \" and ' quotes")
@example("\"&\n\r\t<>")
def test_escapes_match_saxutils(text):
    assert escape_text(text) == saxutils.escape(text).replace("\r", "&#13;")
    assert quote_attribute(text) == saxutils.quoteattr(text)


@settings(max_examples=300, deadline=None)
@given(_xml_text)
@example("tab\tLF\nCR\r")
@example("del\x7f")
@example("unit\x1fseparator")
def test_non_xml_char_finds_what_the_pattern_finds(text):
    bad = NON_XML_CHAR.search(text)
    assert non_xml_char(text) == (bad.group() if bad else None)


def test_non_xml_char_refuses_exactly_what_the_char_production_excludes():
    # Char ::= #x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] | [#x10000-#x10FFFF]
    def is_char(cp):
        return (cp in (0x9, 0xA, 0xD) or 0x20 <= cp <= 0xD7FF
                or 0xE000 <= cp <= 0xFFFD or 0x10000 <= cp <= 0x10FFFF)

    wrong = [hex(cp) for cp in range(0x110000)
             if (non_xml_char(chr(cp)) is None) != is_char(cp)]
    assert wrong == []


_location = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=6),
    min_size=1, max_size=3,
).map("/".join)

_format_uri = st.sampled_from([
    "http://identifiers.org/combine.specifications/sbml",
    "http://identifiers.org/combine.specifications/sed-ml.level-1.version-2",
    "http://purl.org/NET/mediatypes/application/pdf",
    "http://purl.org/NET/mediatypes/application/x.copasi",
])


@st.composite
def manifests(draw):
    locations = draw(st.lists(_location, max_size=8, unique=True))
    entries = [ContentEntry(".", OMEX_FORMAT_URI)]
    for loc in locations:
        entries.append(
            ContentEntry(loc, draw(_format_uri), draw(st.sampled_from([None, True, False])))
        )
    return Manifest(entries)


@settings(max_examples=100, deadline=None)
@given(manifests())
def test_round_trip_property(manifest):
    assert parse_manifest(serialize_manifest(manifest)) == manifest


@settings(max_examples=50, deadline=None)
@given(manifests())
def test_master_entries_is_a_subsequence(manifest):
    masters = master_entries(manifest)
    pool = list(manifest.entries)
    for entry in masters:
        assert entry in pool
        pool = pool[pool.index(entry) + 1:]


def test_validate_against_golden(golden_manifest_xml, golden_files):
    manifest = parse_manifest(golden_manifest_xml)
    report = validate_manifest_against(manifest, set(golden_files))
    assert not report.items


def test_validate_against_missing_file(golden_manifest_xml, golden_files):
    manifest = parse_manifest(golden_manifest_xml)
    paths = set(golden_files) - {"doc/article.pdf"}
    report = validate_manifest_against(manifest, paths)
    assert [(f.severity, f.rule, f.location) for f in report] == [
        (Severity.ERROR, "missing-file", "doc/article.pdf")
    ]


def test_validate_minimal_against_minimal():
    manifest = parse_manifest(MINIMAL)
    assert not validate_manifest_against(manifest, {"manifest.xml"}).items


def test_validate_reports_unlisted_and_multimaster():
    manifest = Manifest([
        ContentEntry(".", OMEX_FORMAT_URI),
        ContentEntry("a.xml", OMEX_FORMAT_URI, True),
        ContentEntry("b.xml", OMEX_FORMAT_URI, True),
    ])
    report = validate_manifest_against(
        manifest, {"manifest.xml", "a.xml", "b.xml", "extra.txt"}
    )
    rules = [(f.severity, f.rule, f.location) for f in report]
    assert (Severity.WARNING, "unlisted-file", "extra.txt") in rules
    assert any(r[1] == "multiple-masters" for r in rules)
    assert len(rules) == 2
