"""The recommended metadata.rdf: RDF/XML, modelled as far as this package edits it.

A block is a top-level rdf:Description whose one attribute is an rdf:about
naming a container path. Its Dublin Core description, vCard creators,
created and modified dates are modelled; every other child of a block, and
every other node inside rdf:RDF, comments included, is kept as read and
written back as it stood, under the document's own prefixes. So are the
comments and processing instructions before and after rdf:RDF.
"""

from __future__ import annotations

import io
import itertools
import re
import xml.etree.ElementTree as ET
import xml.parsers.expat as expat
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

from .errors import (BadTimestamp, DuplicateLocation, InvalidLocation, InvalidMetadata,
                     MalformedMetadata, NotRdf)
from .manifest import (check_location, encode_document, format_attributes, quote_attribute,
                       write_element)
from .report import ValidationReport

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
DCTERMS_NS = "http://purl.org/dc/terms/"
VCARD_NS = "http://www.w3.org/2006/vcard/ns#"
_XML_NS = "http://www.w3.org/XML/1998/namespace"
# The prefixes of the modelled namespaces where a document binds none, in
# the order the root element declares them.
_PREFIXES = {RDF_NS: "rdf", DCTERMS_NS: "dcterms", VCARD_NS: "vCard"}

_RDF_TAG = f"{{{RDF_NS}}}RDF"
_DESCRIPTION_TAG = f"{{{RDF_NS}}}Description"
_ABOUT_ATTR = f"{{{RDF_NS}}}about"
_RESOURCE_ATTR = f"{{{RDF_NS}}}resource"
_AS_RESOURCE = {f"{{{RDF_NS}}}parseType": "Resource"}
_DC = f"{{{DCTERMS_NS}}}"
_VC = f"{{{VCARD_NS}}}"
_CREATOR_FIELDS = {"family-name", "given-name", "hasEmail", "organization-name", "hasURL"}

_W3CDTF = re.compile(
    r"^(\d{4})"
    r"(?:-(\d{2})"
    r"(?:-(\d{2})"
    r"(?:T(\d{2}):(\d{2})(?::(\d{2})(?:\.(\d+))?)?(Z|[+-]\d{2}:\d{2}))?"
    r")?)?$"
)


@dataclass(frozen=True)
class Timestamp:
    """A W3CDTF instant, canonically UTC, remembering date-only inputs."""

    instant: datetime
    date_only: bool = False

    @classmethod
    def parse(cls, text: str) -> "Timestamp":
        m = _W3CDTF.match(text.strip())
        if not m:
            raise BadTimestamp(text)
        year, month, day, hour, minute, second, frac, tzd = m.groups()
        try:
            if hour is None:
                instant = datetime(int(year), int(month or 1), int(day or 1), tzinfo=timezone.utc)
                return cls(instant, date_only=True)
            micro = int((frac or "0").ljust(6, "0")[:6])
            hours, minutes = (0, 0) if tzd == "Z" else (int(tzd[1:3]), int(tzd[4:6]))
            offset = timedelta(hours=hours, minutes=minutes)
            instant = datetime(int(year), int(month), int(day), int(hour), int(minute),
                               int(second or 0), micro,
                               tzinfo=timezone(-offset if tzd[0] == "-" else offset))
        except ValueError as exc:
            raise BadTimestamp(text) from exc
        return cls(instant.astimezone(timezone.utc), date_only=False)

    @classmethod
    def now(cls) -> "Timestamp":
        return cls(datetime.now(timezone.utc).replace(microsecond=0))

    def __str__(self) -> str:
        dt = self.instant
        if self.date_only:
            return f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}"
        base = dt.strftime("%Y-%m-%dT%H:%M:%S")
        if dt.microsecond:
            base += f".{dt.microsecond:06d}".rstrip("0")
        return base + "Z"


@dataclass(frozen=True)
class Creator:
    family_name: str | None = None
    given_name: str | None = None
    email: str | None = None
    organization: str | None = None
    url: str | None = None

    def is_empty(self) -> bool:
        return not any(
            (self.family_name, self.given_name, self.email,
             self.organization, self.url)
        )

    def display(self) -> str:
        name = " ".join(p for p in (self.given_name, self.family_name) if p)
        parts = [p for p in (name, self.organization) if p]
        if self.email:
            parts.append(f"<{self.email}>")
        if self.url:
            parts.append(self.url)
        return " ".join(parts) or "(unnamed)"


def _tree(elem: ET.Element) -> tuple:
    """`elem` as a value: tag, attributes, text and children with their tails."""
    return elem.tag, elem.attrib, elem.text, [(_tree(c), c.tail) for c in elem]


@dataclass(eq=False)
class DescriptionBlock:
    """What a document says about one path; `kept` holds the children not modelled."""
    about: str
    description: str | None = None
    creators: list[Creator] = field(default_factory=list)
    created: Timestamp | None = None
    modified: list[Timestamp] = field(default_factory=list)
    kept: list[ET.Element] = field(default_factory=list)

    def _value(self) -> tuple:
        return (self.about, self.description, self.creators, self.created, self.modified,
                list(map(_tree, self.kept)))

    def __eq__(self, other):
        if not isinstance(other, DescriptionBlock):
            return NotImplemented
        return self._value() == other._value()


@dataclass(eq=False)
class MetadataSet:
    """Description blocks keyed by the container path their `about` names.

    `kept` holds the other top-level nodes and `attrib` the attributes of
    rdf:RDF; `before` and `after` hold the comments and processing
    instructions outside it. `prefixes` maps the namespace URIs the
    document declared to the prefixes they are written with; it does not
    count in equality.
    """
    blocks: dict[str, DescriptionBlock] = field(default_factory=dict)
    kept: list[ET.Element] = field(default_factory=list)
    attrib: dict[str, str] = field(default_factory=dict)
    prefixes: dict[str, str] = field(default_factory=dict)
    before: list[ET.Element] = field(default_factory=list)
    after: list[ET.Element] = field(default_factory=list)

    def add(self, block: DescriptionBlock) -> None:
        """Add a block; one about a path already described raises DuplicateLocation."""
        key = check_location(block.about)
        if key in self.blocks:
            raise DuplicateLocation(block.about)
        self.blocks[key] = block

    def get(self, path: str) -> DescriptionBlock | None:
        return self.blocks.get(path)

    def __eq__(self, other):
        if not isinstance(other, MetadataSet):
            return NotImplemented
        return self._value() == other._value()

    def _value(self) -> tuple:
        return (self.blocks, self.attrib,
                *(list(map(_tree, nodes)) for nodes in (self.kept, self.before, self.after)))


def _binder(prefixes: dict[str, str]):
    """A function that binds a URI to a prefix in `prefixes` (URI -> prefix): the
    prefix asked for, else it numbered, `ns` for the empty prefix of a default
    namespace. The numbers only grow, so each binding takes constant time."""
    taken, numbers = set(prefixes.values()), itertools.count(1)

    def bind(uri: str, prefix: str) -> str:
        name = prefix or "ns"
        while name in taken:
            name = f"{prefix or 'ns'}{next(numbers)}"
        prefixes[uri] = name
        taken.add(name)
        return name
    return bind


def _timestamp_from(elem: ET.Element) -> Timestamp | None:
    """The date `elem` gives as text or as a W3CDTF node, or None for another form."""
    if elem.attrib in ({}, _AS_RESOURCE) and [e.tag for e in elem] == [_DC + "W3CDTF"]:
        elem = elem[0]
    if elem.attrib or len(elem):
        return None
    if elem.text is None or not elem.text.strip():
        raise BadTimestamp("")
    return Timestamp.parse(elem.text.strip())


def _creator_from(elem: ET.Element) -> Creator | None:
    """The creator `elem` gives in vCard terms, or None where it says more or less."""
    if elem.attrib != _AS_RESOURCE:
        return None
    values: dict[str, str | None] = {}
    for child in elem:
        parts = child if child.tag == _VC + "hasName" and child.attrib == _AS_RESOURCE else [child]
        for part in parts:
            local = part.tag.removeprefix(_VC) if isinstance(part.tag, str) else None
            linked = {_RESOURCE_ATTR} if local in ("hasEmail", "hasURL") else set()
            if (local not in _CREATOR_FIELDS or local in values or len(part)
                    or set(part.attrib) != linked):
                return None
            values[local] = part.get(_RESOURCE_ATTR) or (part.text or "").strip() or None
    email = (values.get("hasEmail") or "").removeprefix("mailto:") or None
    creator = Creator(values.get("family-name"), values.get("given-name"), email,
                      values.get("organization-name"), values.get("hasURL"))
    return None if creator.is_empty() else creator


def parse_metadata(xml: bytes) -> MetadataSet:
    prefixes = {_XML_NS: "xml"}
    bind = _binder(prefixes)
    nodes: list[ET.Element] = []  # the comments and processing instructions, in order
    opened = None  # how many came before rdf:RDF, which declares the first namespace
    try:
        parser = ET.XMLParser(target=ET.TreeBuilder(insert_comments=True, insert_pis=True))
        events = ET.iterparse(io.BytesIO(xml), ("start-ns", "comment", "pi"), parser)
        for event, value in events:
            if event != "start-ns":
                nodes.append(value)
                continue
            if opened is None:
                opened = len(nodes)
            prefix, uri = value
            if uri not in prefixes:
                bind(uri, prefix)
        root = events.root
    except ET.ParseError as exc:
        raise MalformedMetadata(f"metadata is not well-formed XML: {exc}") from exc
    if root.tag != _RDF_TAG:
        raise NotRdf(f"root element {root.tag!r}, expected rdf:RDF")
    del prefixes[_XML_NS]

    opened = opened or 0
    # those after the first namespace are inside rdf:RDF, where the tree holds them, or after it
    inside = ({id(node) for node in root.iter() if not isinstance(node.tag, str)}
              if len(nodes) > opened else set())
    result = MetadataSet(attrib=dict(root.attrib), prefixes=prefixes, before=nodes[:opened],
                         after=[node for node in nodes[opened:] if id(node) not in inside])
    for node in root:
        try:  # a block is an rdf:Description about a path, with no other attribute
            key = (check_location(node.get(_ABOUT_ATTR)) if node.tag == _DESCRIPTION_TAG
                   and list(node.attrib) == [_ABOUT_ATTR] else None)
        except InvalidLocation:
            key = None
        if key is None:
            result.kept.append(node)
            continue
        block = result.blocks.setdefault(key, DescriptionBlock(node.get(_ABOUT_ATTR)))
        for prop in node:
            creator = _creator_from(prop) if prop.tag == _DC + "creator" else None
            if creator is not None:
                block.creators.append(creator)
            elif (prop.tag == _DC + "description" and block.description is None
                    and not prop.attrib and not len(prop)):
                block.description = (prop.text or "").strip()
            elif (prop.tag == _DC + "created" and block.created is None
                    and (stamp := _timestamp_from(prop)) is not None):
                block.created = stamp
            elif prop.tag == _DC + "modified" and (stamp := _timestamp_from(prop)) is not None:
                block.modified.append(stamp)
            else:
                block.kept.append(prop)
    return result


def _block_element(block: DescriptionBlock) -> ET.Element:
    """The rdf:Description of what `block` models, without its kept children."""
    desc = ET.Element(_DESCRIPTION_TAG, {_ABOUT_ATTR: block.about})
    if block.description is not None:
        ET.SubElement(desc, _DC + "description").text = block.description
    for creator in block.creators:
        if creator.is_empty():
            raise InvalidMetadata(f"empty creator in block about {block.about!r}")
        elem = ET.SubElement(desc, _DC + "creator", _AS_RESOURCE)
        if creator.family_name or creator.given_name:
            name = ET.SubElement(elem, _VC + "hasName", _AS_RESOURCE)
            for local, text in (("family-name", creator.family_name),
                                ("given-name", creator.given_name)):
                if text:
                    ET.SubElement(name, _VC + local).text = text
        if creator.email:
            ET.SubElement(elem, _VC + "hasEmail", {_RESOURCE_ATTR: "mailto:" + creator.email})
        if creator.organization:
            ET.SubElement(elem, _VC + "organization-name").text = creator.organization
        if creator.url:
            ET.SubElement(elem, _VC + "hasURL", {_RESOURCE_ATTR: creator.url})
    for local, stamp in [("created", block.created), *(("modified", s) for s in block.modified)]:
        if stamp is not None:
            date = ET.SubElement(desc, _DC + local, _AS_RESOURCE)
            ET.SubElement(date, _DC + "W3CDTF").text = str(stamp)
    return desc


def serialize_metadata(metadata: MetadataSet) -> bytes:
    """Write the blocks in path order, then the kept nodes, under the document's prefixes.

    Every prefix is declared on rdf:RDF and none is the default, so an
    element outside any namespace is written as it was read. A namespace
    the document did not declare is given a prefix of its own.
    """
    prefixes = {_XML_NS: "xml", **metadata.prefixes}
    bind = _binder(prefixes)
    for uri, prefix in _PREFIXES.items():
        if uri not in prefixes:
            bind(uri, prefix)
    names: dict[str, str] = {}

    def qname(tag: str) -> str:
        if tag not in names:
            uri, _, local = tag[1:].rpartition("}")
            names[tag] = (f"{prefixes.get(uri) or bind(uri, '')}:{local}"
                          if tag[0] == "{" else tag)
        return names[tag]

    def lines(nodes: list[ET.Element]) -> list[str]:
        out: list[str] = []
        for node in nodes:
            write_element(out, node, qname)
            out.append("\n")
        return out

    body: list[str] = []
    try:
        for key in sorted(metadata.blocks):
            body.append("\n  ")
            write_element(body, _block_element(metadata.blocks[key]), qname, "\n  ",
                          metadata.blocks[key].kept)
        for node in metadata.kept:
            body.append("\n  ")
            write_element(body, node, qname)
    except RecursionError:  # write_element recurses once per level of nesting
        raise InvalidMetadata("elements nested too deeply to write") from None
    rdf, attributes = qname(_RDF_TAG), format_attributes(metadata.attrib, qname)
    declared = {uri: prefixes[uri] for uri in _PREFIXES} | prefixes  # the modelled first
    del declared[_XML_NS]
    xmlns = "\n  ".join(f"xmlns:{p}={quote_attribute(uri)}" for uri, p in declared.items())
    document = "".join(['<?xml version="1.0" encoding="UTF-8"?>\n', *lines(metadata.before),
                        f"<{rdf} {xmlns}{attributes}>", *body, f"\n</{rdf}>\n",
                        *lines(metadata.after)])
    data = encode_document(document, InvalidMetadata)
    try:  # names, targets and comments the writer does not judge, read as a reader will
        expat.ParserCreate(namespace_separator="}").Parse(data, True)
    except expat.ExpatError as exc:
        raise InvalidMetadata(f"metadata would not be well-formed: {exc}") from None
    return data


def check_minimum_information(metadata: MetadataSet) -> ValidationReport:
    """Minimum archive-level metadata: creation date, last update, creator."""
    report = ValidationReport()
    block = metadata.get(".")
    if block is None:
        report.warning("missing-metadata", ".", "no metadata block describes the archive itself")
        return report.sorted()
    if block.created is None:
        report.warning("missing-created", ".", "no creation date recorded")
    if not block.modified:
        report.warning("missing-modified", ".", "no last-update date recorded")
    if not block.creators:
        report.warning("missing-creator", ".", "no creator recorded")
    return report.sorted()
