from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omexarchive import (
    Creator,
    DescriptionBlock,
    MetadataSet,
    Reference,
    Timestamp,
    check_minimum_information,
    parse_metadata,
    serialize_metadata,
)
from omexarchive.errors import BadTimestamp, InvalidMetadata, MalformedXml, NotRdf

BQMODEL = "http://biomodels.net/model-qualifiers/"


def test_parse_golden(golden_metadata_xml):
    meta = parse_metadata(golden_metadata_xml)
    assert len(meta) == 1
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
    assert Reference(BQMODEL + "is",
                     "http://identifiers.org/biomodels.db/MODEL1311110001") \
        in block.references
    assert Reference(BQMODEL + "isDescribedBy",
                     "http://identifiers.org/arxiv/1311.5696") in block.references
    assert not block.modified


def test_empty_rdf_document():
    xml = b'<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"/>'
    assert len(parse_metadata(xml)) == 0


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
    assert len(meta) == 1
    block = meta.get(".")
    assert block.description == "first"
    assert block.created is not None


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
    assert Reference("http://example.org/terms#note",
                     "hand-tuned parameters", literal=True) in block.references
    assert Reference("http://example.org/terms#seeAlso",
                     "http://example.org/related") in block.references
    assert parse_metadata(serialize_metadata(meta)) == meta


def test_per_entry_blocks_round_trip():
    meta = MetadataSet()
    meta.add(DescriptionBlock(about=".", creators=[Creator(family_name="Doe")],
                              created=Timestamp.parse("2021-05-05T08:00:00Z"),
                              modified=[Timestamp.parse("2022-05-05T08:00:00Z")]))
    meta.add(DescriptionBlock(about="models/model.xml",
                              description="the model"))
    assert parse_metadata(serialize_metadata(meta)) == meta


@pytest.mark.parametrize(
    "block",
    [DescriptionBlock(about=".", description="bad\x01text"),
     DescriptionBlock(about=".", creators=[Creator(family_name="Do\ufffee")]),
     DescriptionBlock(about=".", creators=[Creator(email="a\x0b@example.org")]),
     DescriptionBlock(about=".", references=[
         Reference(BQMODEL + "is", "x\ud800", literal=True)]),
     DescriptionBlock(about=".", references=[Reference(BQMODEL + "is", "urn:\x00")])],
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
