"""Shared fixtures: the golden manifest/metadata documents and archive."""

import io
import struct
import zipfile

import pytest

from omexarchive import (
    Container,
    ContainerEntry,
    write_container,
)

GOLDEN_MANIFEST = b"""<?xml version="1.0" encoding="utf-8"?>
<omexManifest xmlns="http://identifiers.org/combine.specifications/omex-manifest">
  <content location="."
    format="http://identifiers.org/combine.specifications/omex"/>
  <content location="models/model.xml"
    format="http://identifiers.org/combine.specifications/sbml"/>
  <content location="simulation.xml" master="true"
    format="http://identifiers.org/combine.specifications/sed-ml"/>
  <content location="doc/article.pdf"
    format="http://purl.org/NET/mediatypes/application/pdf"/>
  <content location="metadata.rdf"
    format="http://identifiers.org/combine.specifications/omex-metadata"/>
</omexManifest>
"""

GOLDEN_METADATA = b"""<?xml version="1.0" encoding="UTF-8"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
  xmlns:dcterms="http://purl.org/dc/terms/"
  xmlns:vCard="http://www.w3.org/2006/vcard/ns#"
  xmlns:bqmodel="http://biomodels.net/model-qualifiers/">
  <rdf:Description rdf:about=".">
    <dcterms:description>
      Expanded version of the human metabolic reconstruction Recon 2.1
    </dcterms:description>
    <dcterms:creator rdf:parseType="Resource">
      <vCard:hasName rdf:parseType="Resource">
        <vCard:family-name>Le Novere</vCard:family-name>
        <vCard:given-name>Nicolas</vCard:given-name>
      </vCard:hasName>
      <vCard:hasEmail rdf:resource="mailto:lenov@babraham.ac.uk" />
      <vCard:organization-name>
        Babraham Institute
      </vCard:organization-name>
      <vCard:hasURL rdf:resource="http://orcid.org/0000-0002-6309-7327" />
    </dcterms:creator>
    <dcterms:created rdf:parseType="Resource">
      <dcterms:W3CDTF>2014-06-26T10:29:00Z</dcterms:W3CDTF>
    </dcterms:created>
    <bqmodel:is
      rdf:resource="http://identifiers.org/biomodels.db/MODEL1311110001" />
    <bqmodel:isDescribedBy
      rdf:resource="http://identifiers.org/arxiv/1311.5696" />
  </rdf:Description>
</rdf:RDF>
"""

# Metadata holding what the model does not: an rdf:Bag of identifiers, a
# language tag, a datatype, a property outside any namespace, a typed node
# and a blank node.
UNMODELLED_METADATA = b"""<?xml version="1.0" encoding="UTF-8"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
  xmlns:dcterms="http://purl.org/dc/terms/"
  xmlns:foaf="http://xmlns.com/foaf/0.1/"
  xmlns:bqmodel="http://biomodels.net/model-qualifiers/">
  <rdf:Description rdf:about=".">
    <dcterms:title xml:lang="en">A model</dcterms:title>
    <dcterms:extent rdf:datatype="http://www.w3.org/2001/XMLSchema#integer">3</dcterms:extent>
    <bqmodel:is>
      <rdf:Bag>
        <rdf:li rdf:resource="http://identifiers.org/biomodels.db/BIOMD0000000001"/>
        <rdf:li rdf:resource="http://identifiers.org/taxonomy/9606"/>
      </rdf:Bag>
    </bqmodel:is>
    <is rdf:resource="http://example.org/plain"/>
  </rdf:Description>
  <foaf:Person rdf:about="http://orcid.org/0000-0002-6309-7327">
    <foaf:name>Nicolas Le Novere</foaf:name>
  </foaf:Person>
  <rdf:Description rdf:nodeID="n1">
    <foaf:name>Anonymous</foaf:name>
  </rdf:Description>
</rdf:RDF>
"""


def _replace_once(data: bytes, old: bytes, new: bytes) -> bytes:
    assert data.count(old) == 1
    return data.replace(old, new)


# Manifests this package does not write but open_archive accepts, with a
# lenient warning: a format classify_format calls INVALID, and no entry
# for `.`.
FOREIGN_MANIFESTS = {
    "invalid-format": _replace_once(
        GOLDEN_MANIFEST,
        b'format="http://purl.org/NET/mediatypes/application/pdf"',
        b'format="ftp:bad uri"',
    ),
    "no-archive-entry": _replace_once(
        GOLDEN_MANIFEST,
        b'  <content location="."\n'
        b'    format="http://identifiers.org/combine.specifications/omex"/>\n',
        b"",
    ),
}

GOLDEN_FILES = {
    "manifest.xml": GOLDEN_MANIFEST,
    "models/model.xml": b"<sbml xmlns='http://www.sbml.org/sbml/level3'/>\n",
    "simulation.xml": b"<sedML xmlns='http://sed-ml.org/'/>\n",
    "doc/article.pdf": b"%PDF-1.4 stub\n",
    "metadata.rdf": GOLDEN_METADATA,
}


def build_container(files: dict) -> Container:
    return Container([ContainerEntry(path, data) for path, data in files.items()])


def declaring(data: bytes, name: bytes, size: int, crc: int) -> bytes:
    """`data` with member `name`'s declared size and CRC-32 set to these, in
    its local header and its central record."""
    data = bytearray(data)
    local, central = data.find(name) - 30, data.find(name, data.find(b"PK\x01\x02")) - 46
    for at in (local + 14, central + 16):  # where each record keeps its CRC-32
        struct.pack_into("<L", data, at, crc)
        struct.pack_into("<L", data, at + 8, size)  # after the stored size
    return bytes(data)


def raw_zip(names_and_data, allow_unsafe=True) -> bytes:
    """Craft a ZIP with arbitrary (possibly hostile) entry names."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, data in names_and_data:
            zf.writestr(name, data)
    return buf.getvalue()


@pytest.fixture
def golden_manifest_xml():
    return GOLDEN_MANIFEST


@pytest.fixture
def golden_metadata_xml():
    return GOLDEN_METADATA


@pytest.fixture
def golden_files():
    return dict(GOLDEN_FILES)


@pytest.fixture
def golden_archive_bytes():
    return write_container(build_container(GOLDEN_FILES))
