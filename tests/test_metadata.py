import dataclasses
import time
import xml.etree.ElementTree as ET
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omexarchive import (
    Creator,
    DescriptionBlock,
    MetadataSet,
    Timestamp,
    check_minimum_information,
    parse_metadata,
    serialize_metadata,
)
from omexarchive.errors import (BadTimestamp, DuplicateLocation, InvalidMetadata,
                                MalformedXml, NotRdf, OmexError)

from conftest import UNMODELLED_METADATA

BQMODEL = "{http://biomodels.net/model-qualifiers/}"
RESOURCE = "{http://www.w3.org/1999/02/22-rdf-syntax-ns#}resource"


def _kept(block):
    """The kept children of `block` as (tag, rdf:resource, text) triples."""
    return [(e.tag, e.get(RESOURCE), e.text) for e in block.kept]


def test_parse_golden(golden_metadata_xml):
    meta = parse_metadata(golden_metadata_xml)
    assert len(meta.blocks) == 1
    block = meta.get(".")
    assert block.description == (
        "Expanded version of the human metabolic reconstruction Recon 2.1"
    )
    assert block.creators == [
        Creator(
            family_name="Le Novere",
            given_name="Nicolas",
            email="lenov@babraham.ac.uk",
            organization="Babraham Institute",
            url="http://orcid.org/0000-0002-6309-7327",
        )
    ]
    assert str(block.created) == "2014-06-26T10:29:00Z"
    assert block.created.instant == datetime(2014, 6, 26, 10, 29, tzinfo=timezone.utc)
    assert _kept(block) == [
        (BQMODEL + "is", "http://identifiers.org/biomodels.db/MODEL1311110001", None),
        (BQMODEL + "isDescribedBy", "http://identifiers.org/arxiv/1311.5696", None),
    ]
    assert not block.modified


def test_empty_rdf_document():
    xml = b'<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"/>'
    assert len(parse_metadata(xml).blocks) == 0


def test_round_trip_golden(golden_metadata_xml):
    meta = parse_metadata(golden_metadata_xml)
    assert parse_metadata(serialize_metadata(meta)) == meta


def test_serialize_empty_set():
    data = serialize_metadata(MetadataSet())
    assert parse_metadata(data) == MetadataSet()


def test_round_trip_created_only():
    meta = MetadataSet()
    meta.add(DescriptionBlock(about=".", created=Timestamp.parse("2020-01-02")))
    reparsed = parse_metadata(serialize_metadata(meta))
    assert reparsed == meta
    assert reparsed.get(".").created.date_only


def test_not_rdf():
    with pytest.raises(NotRdf):
        parse_metadata(b"<notRdf/>")


def test_malformed_xml():
    with pytest.raises(MalformedXml):
        parse_metadata(b"<rdf:RDF")


@pytest.mark.parametrize("text", [b"<x", b"<notRdf/>", None],
                         ids=["malformed", "not-rdf", "bad-timestamp"])
def test_a_parse_error_names_the_rule_validation_uses(text, golden_metadata_xml):
    text = text or golden_metadata_xml.replace(b"2014-06-26T10:29:00Z", b"yesterday")
    with pytest.raises(OmexError) as exc:
        parse_metadata(text)
    assert (exc.value.rule, exc.value.location) == ("metadata-unreadable", "")


def test_bad_timestamp_names_value(golden_metadata_xml):
    broken = golden_metadata_xml.replace(b"2014-06-26T10:29:00Z", b"yesterday")
    with pytest.raises(BadTimestamp) as exc:
        parse_metadata(broken)
    assert exc.value.value == "yesterday"


@pytest.mark.parametrize(
    "text,expected",
    [
        ("2014-06-26T10:29:00Z", datetime(2014, 6, 26, 10, 29, tzinfo=timezone.utc)),
        ("2014-06-26T12:29:00+02:00",
         datetime(2014, 6, 26, 10, 29, tzinfo=timezone.utc)),
        ("2014-06-26", datetime(2014, 6, 26, tzinfo=timezone.utc)),
        ("2014-06", datetime(2014, 6, 1, tzinfo=timezone.utc)),
        ("2014", datetime(2014, 1, 1, tzinfo=timezone.utc)),
        ("2014-06-26T10:29:00.5Z",
         datetime(2014, 6, 26, 10, 29, 0, 500000, tzinfo=timezone.utc)),
    ],
)
def test_w3cdtf_parsing(text, expected):
    assert Timestamp.parse(text).instant == expected


@pytest.mark.parametrize(
    "text", ["", "26/06/2014", "2014-13-01", "2014-06-26T10:29:00",
             "2014-06-26T10:29", "20140626", "2014-06-26T25:00:00Z"],
)
def test_w3cdtf_rejects(text):
    with pytest.raises(BadTimestamp):
        Timestamp.parse(text)


@pytest.mark.parametrize(
    "text",
    ["2014-06-26T10:29:00Z", "2014-06-26T12:29:00+02:00", "2014-06-26",
     "2014-06", "2014", "1999-12-31T23:59:59.25-01:30"],
)
def test_w3cdtf_reserialization_preserves_the_instant(text):
    first = Timestamp.parse(text)
    assert Timestamp.parse(str(first)).instant == first.instant


def test_same_about_blocks_merge():
    xml = b"""<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
      xmlns:dcterms="http://purl.org/dc/terms/">
      <rdf:Description rdf:about=".">
        <dcterms:description>first</dcterms:description>
      </rdf:Description>
      <rdf:Description rdf:about=".">
        <dcterms:created><dcterms:W3CDTF>2020-01-01</dcterms:W3CDTF></dcterms:created>
      </rdf:Description>
    </rdf:RDF>"""
    meta = parse_metadata(xml)
    assert len(meta.blocks) == 1
    block = meta.get(".")
    assert block.description == "first"
    assert block.created is not None


def test_add_refuses_a_second_block_about_a_path():
    meta = MetadataSet()
    meta.add(DescriptionBlock(about=".", description="first"))
    with pytest.raises(DuplicateLocation):
        meta.add(DescriptionBlock(about="./", description="second",
                                  created=Timestamp.parse("2020-01-01")))
    assert meta == MetadataSet({".": DescriptionBlock(about=".", description="first")})


def test_unknown_literal_properties_preserved():
    xml = b"""<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
      xmlns:ex="http://example.org/terms#">
      <rdf:Description rdf:about="models/model.xml">
        <ex:note>hand-tuned parameters</ex:note>
        <ex:seeAlso rdf:resource="http://example.org/related"/>
      </rdf:Description>
    </rdf:RDF>"""
    meta = parse_metadata(xml)
    block = meta.get("models/model.xml")
    assert _kept(block) == [
        ("{http://example.org/terms#}note", None, "hand-tuned parameters"),
        ("{http://example.org/terms#}seeAlso", "http://example.org/related", None),
    ]
    assert parse_metadata(serialize_metadata(meta)) == meta


def test_per_entry_blocks_round_trip():
    meta = MetadataSet()
    meta.add(DescriptionBlock(about=".", creators=[Creator(family_name="Doe")],
                              created=Timestamp.parse("2021-05-05T08:00:00Z"),
                              modified=[Timestamp.parse("2022-05-05T08:00:00Z")]))
    meta.add(DescriptionBlock(about="models/model.xml",
                              description="the model"))
    assert parse_metadata(serialize_metadata(meta)) == meta


def _literal(tag: str, text: str) -> ET.Element:
    elem = ET.Element(tag)
    elem.text = text
    return elem


@pytest.mark.parametrize(
    "block",
    [DescriptionBlock(about=".", description="bad\x01text"),
     DescriptionBlock(about=".", creators=[Creator(family_name="Do\ufffee")]),
     DescriptionBlock(about=".", creators=[Creator(email="a\x0b@example.org")]),
     DescriptionBlock(about=".", kept=[_literal(BQMODEL + "is", "x\ud800")]),
     DescriptionBlock(about=".", kept=[ET.Element(BQMODEL + "is", {RESOURCE: "urn:\x00"})])],
)
def test_serialize_refuses_text_outside_xml(block):
    meta = MetadataSet()
    meta.add(block)
    with pytest.raises(InvalidMetadata):
        serialize_metadata(meta)


def test_serialize_refuses_about_outside_xml():
    meta = MetadataSet()
    block = DescriptionBlock(about="a.xml")
    meta.add(block)
    block.about = "a\x01.xml"
    with pytest.raises(InvalidMetadata):
        serialize_metadata(meta)


def test_minimum_information_golden(golden_metadata_xml):
    report = check_minimum_information(parse_metadata(golden_metadata_xml))
    assert [f.rule for f in report] == ["missing-modified"]


def test_minimum_information_complete():
    meta = MetadataSet()
    meta.add(DescriptionBlock(
        about=".",
        creators=[Creator(family_name="Doe")],
        created=Timestamp.parse("2021-05-05T08:00:00Z"),
        modified=[Timestamp.parse("2022-05-05T08:00:00Z")],
    ))
    assert not check_minimum_information(meta).items


def test_minimum_information_empty_set():
    report = check_minimum_information(MetadataSet())
    assert [f.rule for f in report] == ["missing-metadata"]


def test_minimum_information_bare_block():
    meta = MetadataSet()
    meta.add(DescriptionBlock(about="."))
    assert sorted(f.rule for f in check_minimum_information(meta)) == [
        "missing-created", "missing-creator", "missing-modified",
    ]


_datetimes = st.datetimes(
    min_value=datetime(1980, 1, 1), max_value=datetime(2100, 1, 1)
).map(lambda dt: dt.replace(tzinfo=timezone.utc))


@settings(max_examples=100, deadline=None)
@given(_datetimes, st.booleans())
def test_timestamp_round_trip_property(dt, date_only):
    if date_only:
        dt = dt.replace(hour=0, minute=0, second=0, microsecond=0)
    stamp = Timestamp(dt, date_only=date_only)
    assert Timestamp.parse(str(stamp)).instant == stamp.instant


def _as_tree(elem):
    """An element as a value: tag, attributes, text and children with their tails."""
    return elem.tag, dict(elem.attrib), elem.text, [(_as_tree(c), c.tail) for c in elem]


def test_what_the_model_does_not_hold_is_kept():
    meta = parse_metadata(UNMODELLED_METADATA)
    block = meta.get(".")
    assert [e.tag for e in block.kept] == [
        "{http://purl.org/dc/terms/}title", "{http://purl.org/dc/terms/}extent",
        BQMODEL + "is", "is"]
    assert [e.tag for e in meta.kept] == [
        "{http://xmlns.com/foaf/0.1/}Person",
        "{http://www.w3.org/1999/02/22-rdf-syntax-ns#}Description"]
    data = serialize_metadata(meta)
    again = parse_metadata(data)
    assert again == meta
    for before, after in zip(block.kept + meta.kept, again.get(".").kept + again.kept):
        assert _as_tree(after) == _as_tree(before)
    for text in (b"BIOMD0000000001", b"taxonomy/9606", b'xml:lang="en"',
                 b"XMLSchema#integer", b'<is rdf:resource="http://example.org/plain"/>',
                 b"<foaf:Person", b'rdf:nodeID="n1"', b'xmlns:bqmodel="http'):
        assert text in data


def test_a_top_level_blank_node_is_kept():
    xml = b"""<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
      xmlns:ex="http://example.org/terms#">
      <rdf:Description rdf:nodeID="n1"><ex:note>x</ex:note></rdf:Description>
      <rdf:Description><ex:note>y</ex:note></rdf:Description>
      <rdf:Description rdf:about="http://example.org/not-a-path"/>
    </rdf:RDF>"""
    meta = parse_metadata(xml)
    assert len(meta.blocks) == 0 and len(meta.kept) == 3
    assert parse_metadata(serialize_metadata(meta)) == meta


def test_the_document_prefixes_are_reused_and_none_is_registered(monkeypatch):
    def refuse(prefix, uri):
        raise AssertionError("register_namespace changes every later serialization")

    monkeypatch.setattr(ET, "register_namespace", refuse)
    xml = b"""<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
      xmlns:dc="http://purl.org/dc/terms/" xmlns:ex="http://example.org/terms#">
      <rdf:Description rdf:about=".">
        <dc:description>d</dc:description>
        <ex:note xmlns:ex="http://example.org/other#">rebound</ex:note>
        <note xmlns="http://example.org/default#">default</note>
        <is rdf:resource="http://example.org/plain"/>
      </rdf:Description>
    </rdf:RDF>"""
    meta = parse_metadata(xml)
    data = serialize_metadata(meta).decode()
    assert "<dc:description>d</dc:description>" in data
    assert 'xmlns:ex1="http://example.org/other#"' in data
    assert "<ex1:note>rebound</ex1:note>" in data
    assert 'xmlns:ns="http://example.org/default#"' in data
    assert "xmlns=" not in data
    assert '<is rdf:resource="http://example.org/plain"/>' in data
    assert parse_metadata(data.encode()) == meta


def test_dates_in_forms_the_writer_does_not_write_are_kept():
    xml = b"""<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
      xmlns:dcterms="http://purl.org/dc/terms/">
      <rdf:Description rdf:about=".">
        <dcterms:created rdf:datatype="http://www.w3.org/2001/XMLSchema#date"
          >2020-01-02</dcterms:created>
        <dcterms:modified>2021-02-03</dcterms:modified>
        <dcterms:description xml:lang="de">Modell</dcterms:description>
      </rdf:Description>
    </rdf:RDF>"""
    block = parse_metadata(xml).get(".")
    assert block.created is None and block.description is None
    assert [str(m) for m in block.modified] == ["2021-02-03"]
    assert [e.tag.split("}")[1] for e in block.kept] == ["created", "description"]


# RDF/XML as RDF 1.1 XML Syntax allows it: containers, typed and nested
# nodes, literal XML, language tags, datatypes, properties outside any
# namespace, default namespaces and a prefix bound again in an inner scope.
_EX = "http://example.org/terms#"
_TEXT = st.text(alphabet="ab é<&>\"'\t\n\r", max_size=6)
_SPACE = st.sampled_from(["", " ", "\n    "])
_PROPERTY_NAMES = [("ex:note", "ex:note"), ("bqmodel:is", "bqmodel:is"), ("is", "is"),
                   ('ex:p xmlns:ex="http://example.org/other#"', "ex:p"),
                   ('p xmlns="http://example.org/default#"', "p")]
_MODELLED = [
    "<dcterms:description>described</dcterms:description>",
    '<dcterms:description xml:lang="en">tagged</dcterms:description>',
    '<dcterms:created rdf:parseType="Resource">'
    "<dcterms:W3CDTF>2020-01-02T03:04:05Z</dcterms:W3CDTF></dcterms:created>",
    "<dcterms:modified>2021-02-03</dcterms:modified>",
    '<dcterms:created rdf:datatype="http://www.w3.org/2001/XMLSchema#date">'
    "2020-01-02</dcterms:created>",
    '<dcterms:creator rdf:parseType="Resource"><vCard:hasName rdf:parseType="Resource">'
    "<vCard:family-name>Doe</vCard:family-name></vCard:hasName></dcterms:creator>",
    '<dcterms:creator rdf:resource="http://orcid.org/0000-0002-6309-7327"/>',
]


def _escaped(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace("\r", "&#13;"))


@st.composite
def _properties(draw, depth: int):
    start, end = draw(st.sampled_from(_PROPERTY_NAMES))
    kinds = ["resource", "literal", "container", "node", "xml", "resource-node"]
    kind = draw(st.sampled_from(kinds if depth else kinds[:2]))
    if kind == "resource":
        return f'<{start} rdf:resource="http://example.org/r{draw(st.integers(0, 9))}"/>'
    if kind == "literal":
        typing = draw(st.sampled_from(
            ["", ' xml:lang="en"', ' rdf:datatype="http://www.w3.org/2001/XMLSchema#string"']))
        return f"<{start}{typing}>{_escaped(draw(_TEXT))}</{end}>"
    if kind == "container":
        container = draw(st.sampled_from(["Bag", "Seq", "Alt"]))
        items = draw(st.lists(st.one_of(
            st.just('<rdf:li rdf:resource="http://identifiers.org/taxonomy/9606"/>'),
            _TEXT.map(lambda t: f"<rdf:li>{_escaped(t)}</rdf:li>")), min_size=1, max_size=3))
        return (f"<{start}><rdf:{container}>{draw(_SPACE)}{''.join(items)}"
                f"</rdf:{container}>{draw(_SPACE)}</{end}>")
    if kind == "node":
        return f"<{start}>{draw(_nodes(depth - 1))}</{end}>"
    if kind == "xml":
        return (f'<{start} rdf:parseType="Literal"><b xmlns="http://www.w3.org/1999/xhtml">'
                f"{_escaped(draw(_TEXT))}</b>{_escaped(draw(_TEXT))}</{end}>")
    inner = draw(st.lists(_properties(depth - 1), max_size=2))
    return f'<{start} rdf:parseType="Resource">{draw(_SPACE).join(inner)}</{end}>'


@st.composite
def _nodes(draw, depth: int):
    head = draw(st.sampled_from(['rdf:Description rdf:about="http://example.org/x"',
                                 'rdf:Description rdf:nodeID="n1"', "rdf:Description",
                                 'ex:Thing rdf:about="urn:thing"', "ex:Thing"]))
    properties = draw(st.lists(_properties(depth), max_size=3))
    return f"<{head}>{draw(_SPACE).join(properties)}</{head.split()[0]}>"


@st.composite
def _blocks(draw):
    about = draw(st.sampled_from([".", "a.xml", "./a.xml", "d/b.txt"]))
    properties = draw(st.lists(st.one_of(st.sampled_from(_MODELLED), _properties(2)),
                               max_size=5))
    space = draw(_SPACE)
    return f'<rdf:Description rdf:about="{about}">{space}{space.join(properties)}</rdf:Description>'


@st.composite
def _documents(draw):
    root = draw(st.sampled_from(["", ' xmlns="http://example.org/default#"', ' xml:lang="en"']))
    nodes = draw(st.lists(st.one_of(_blocks(), _nodes(2)), max_size=4))
    return ('<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
            ' xmlns:dcterms="http://purl.org/dc/terms/"'
            ' xmlns:vCard="http://www.w3.org/2006/vcard/ns#"'
            f' xmlns:ex="{_EX}" xmlns:bqmodel="http://biomodels.net/model-qualifiers/"{root}>'
            f"{''.join(nodes)}</rdf:RDF>").encode()


@settings(max_examples=300, deadline=None)
@given(_documents())
def test_rdf_xml_round_trips_and_keeps_what_an_edit_does_not_touch(document):
    meta = parse_metadata(document)
    assert parse_metadata(serialize_metadata(meta)) == meta
    block = meta.get(".") or DescriptionBlock(about=".")
    edit = dataclasses.replace(block, description="edited",
                               modified=[*block.modified, Timestamp.parse("2024-01-01")])
    edited = dataclasses.replace(meta, blocks={**meta.blocks, ".": edit})
    again = parse_metadata(serialize_metadata(edited))
    assert again == edited
    assert [_as_tree(e) for e in again.kept] == [_as_tree(e) for e in meta.kept]
    for key, before in meta.blocks.items():
        assert [_as_tree(e) for e in again.get(key).kept] == [_as_tree(e) for e in before.kept]


def test_prefixes_bound_again_many_times_take_linear_time():
    rebound = "".join(f'<ex:p xmlns:ex="http://example.org/{i}#">x</ex:p>' for i in range(20000))
    xml = ('<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" xmlns:ex2="urn:x">'
           f'<rdf:Description rdf:about=".">{rebound}</rdf:Description></rdf:RDF>').encode()
    start = time.perf_counter()
    meta = parse_metadata(xml)
    data = serialize_metadata(meta)
    assert time.perf_counter() - start < 2.0  # a rescan per binding took over a minute
    assert sorted(meta.prefixes.values())[:4] == ["ex", "ex1", "ex10", "ex100"]
    assert meta.prefixes["urn:x"] == "ex2" and meta.prefixes["http://example.org/1#"] == "ex1"
    assert len(set(meta.prefixes.values())) == len(meta.prefixes)
    assert parse_metadata(data) == meta


def test_nesting_too_deep_to_write_is_refused_by_name():
    depth = 3000
    xml = ('<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
           ' xmlns:ex="http://example.org/terms#"><rdf:Description rdf:about=".">'
           + '<ex:p rdf:parseType="Resource">' * depth + "</ex:p>" * depth
           + "</rdf:Description></rdf:RDF>").encode()
    with pytest.raises(InvalidMetadata, match="nested too deeply"):
        serialize_metadata(parse_metadata(xml))


@pytest.mark.parametrize("node", [
    ET.Element("bad tag"),
    ET.Element(BQMODEL + "is", {"bad attr": "x"}),
    ET.Comment("a--b"),
    ET.Comment("ends-"),
    ET.ProcessingInstruction("xml", "v"),  # a target only the declaration may have
    ET.ProcessingInstruction("p", "a?>b"),  # would end early, and read back changed
    ET.Element(ET.PI),  # no target
], ids=["tag", "attribute", "double-hyphen", "final-hyphen", "xml-target", "pi-end",
        "pi-no-target"])
def test_a_node_that_cannot_be_read_back_is_refused(node):
    with pytest.raises(InvalidMetadata):
        serialize_metadata(MetadataSet(kept=[node]))
    block = DescriptionBlock(about=".", kept=[ET.Element(BQMODEL + "is"), node])
    with pytest.raises(InvalidMetadata):
        serialize_metadata(MetadataSet({".": block}))


def test_comments_and_instructions_that_can_be_read_back_are_written():
    nodes = [ET.Comment(" a - b "), ET.ProcessingInstruction("p", "a ? > b")]
    data = serialize_metadata(MetadataSet(kept=nodes))
    assert b"<!-- a - b -->" in data and b"<?p a ? > b?>" in data
    assert [(n.tag, n.text) for n in parse_metadata(data).kept] == [
        (n.tag, n.text) for n in nodes]


def test_an_empty_comment_is_written_empty():
    data = serialize_metadata(MetadataSet(kept=[ET.Comment()]))
    assert b"<!---->" in data
    assert [(n.tag, n.text) for n in parse_metadata(data).kept] == [(ET.Comment, "")]


def test_comments_and_instructions_outside_rdf_are_kept_in_place(golden_metadata_xml):
    declaration, rest = golden_metadata_xml.split(b"\n", 1)
    xml = (declaration + b"\n<!-- keep me -->\n<?pi before?>\n" + rest
           + b"<!-- after -->\n<?pi after?>\n")
    meta = parse_metadata(xml)
    assert [(n.tag, n.text) for n in meta.before] == [(ET.Comment, " keep me "),
                                                      (ET.PI, "pi before")]
    assert [(n.tag, n.text) for n in meta.after] == [(ET.Comment, " after "), (ET.PI, "pi after")]
    assert meta.kept == []
    written = serialize_metadata(meta)
    places = [written.index(part) for part in (b"<!-- keep me -->", b"<?pi before?>",
                                               b"<rdf:RDF", b"</rdf:RDF>", b"<!-- after -->",
                                               b"<?pi after?>")]
    assert places == sorted(places)
    assert parse_metadata(written) == meta
    assert parse_metadata(written) != parse_metadata(golden_metadata_xml)
