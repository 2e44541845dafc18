"""The recommended metadata.rdf: a restricted RDF/XML vocabulary.

Supports the Dublin Core terms description/creator/created/modified,
vCard creator details, and opaque (predicate, object) references for
everything else. Full RDF/XML (containers, reification, rdf:ID, blank
node ids) is out of scope.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

from .errors import BadTimestamp, InvalidMetadata, MalformedXml, NotRdf
from .manifest import check_location, escape_text, non_xml_char, quote_attribute
from .report import ValidationReport

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
DCTERMS_NS = "http://purl.org/dc/terms/"
VCARD_NS = "http://www.w3.org/2006/vcard/ns#"

_WELL_KNOWN_PREFIXES = {
    RDF_NS: "rdf",
    DCTERMS_NS: "dcterms",
    VCARD_NS: "vCard",
    "http://biomodels.net/model-qualifiers/": "bqmodel",
    "http://biomodels.net/biology-qualifiers/": "bqbiol",
}

_RDF_TAG = f"{{{RDF_NS}}}RDF"
_DESCRIPTION_TAG = f"{{{RDF_NS}}}Description"
_ABOUT_ATTR = f"{{{RDF_NS}}}about"
_RESOURCE_ATTR = f"{{{RDF_NS}}}resource"

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
                instant = datetime(
                    int(year), int(month or 1), int(day or 1), tzinfo=timezone.utc
                )
                return cls(instant, date_only=True)
            micro = int((frac or "0").ljust(6, "0")[:6])
            if tzd == "Z":
                tz = timezone.utc
            else:
                sign = 1 if tzd[0] == "+" else -1
                offset = timedelta(hours=int(tzd[1:3]), minutes=int(tzd[4:6]))
                tz = timezone(sign * offset)
            instant = datetime(
                int(year), int(month), int(day),
                int(hour), int(minute), int(second or 0), micro, tzinfo=tz,
            )
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


@dataclass(frozen=True)
class Reference:
    """An opaque (predicate URI, object) pair; literal objects flagged."""

    predicate: str
    value: str
    literal: bool = False


@dataclass
class DescriptionBlock:
    about: str
    description: str | None = None
    creators: list[Creator] = field(default_factory=list)
    created: Timestamp | None = None
    modified: list[Timestamp] = field(default_factory=list)
    references: list[Reference] = field(default_factory=list)

    def merge(self, other: "DescriptionBlock") -> None:
        """Union with another block about the same resource."""
        if self.description is None:
            self.description = other.description
        if self.created is None:
            self.created = other.created
        self.creators.extend(other.creators)
        self.modified.extend(other.modified)
        self.references.extend(other.references)


@dataclass
class MetadataSet:
    """Description blocks keyed by the container path their `about` names."""
    blocks: dict[str, DescriptionBlock] = field(default_factory=dict)

    def add(self, block: DescriptionBlock) -> None:
        key = check_location(block.about)
        if key in self.blocks:
            self.blocks[key].merge(block)
        else:
            self.blocks[key] = block

    def get(self, path: str) -> DescriptionBlock | None:
        return self.blocks.get(path)

    def __eq__(self, other):
        if not isinstance(other, MetadataSet):
            return NotImplemented
        return self.blocks == other.blocks

    def __len__(self) -> int:
        return len(self.blocks)


def _split_tag(tag: str) -> tuple[str, str]:
    if tag.startswith("{"):
        ns, _, local = tag[1:].partition("}")
        return ns, local
    return "", tag


def _timestamp_from(elem: ET.Element) -> Timestamp:
    child = elem.find(f"{{{DCTERMS_NS}}}W3CDTF")
    text = child.text if child is not None else elem.text
    if text is None or not text.strip():
        raise BadTimestamp("")
    return Timestamp.parse(text.strip())


def _creator_from(elem: ET.Element) -> Creator | None:
    family = given = email = organization = url = None
    for child in elem:
        ns, local = _split_tag(child.tag)
        if ns != VCARD_NS:
            continue
        if local == "hasName":
            for part in child:
                _, part_local = _split_tag(part.tag)
                text = (part.text or "").strip()
                if part_local == "family-name":
                    family = text or family
                elif part_local == "given-name":
                    given = text or given
        elif local == "hasEmail":
            resource = child.get(_RESOURCE_ATTR, "")
            email = resource.removeprefix("mailto:") or None
        elif local == "organization-name":
            organization = (child.text or "").strip() or None
        elif local == "hasURL":
            url = child.get(_RESOURCE_ATTR) or None
    creator = Creator(family, given, email, organization, url)
    return None if creator.is_empty() else creator


def parse_metadata(xml: bytes) -> MetadataSet:
    try:
        root = ET.fromstring(xml)
    except ET.ParseError as exc:
        raise MalformedXml(f"metadata is not well-formed XML: {exc}") from exc
    if root.tag != _RDF_TAG:
        raise NotRdf(f"root element {root.tag!r}, expected rdf:RDF")

    result = MetadataSet()
    for desc in root:
        if desc.tag != _DESCRIPTION_TAG:
            continue
        about = desc.get(_ABOUT_ATTR)
        if about is None:
            raise NotRdf("rdf:Description without rdf:about")
        block = DescriptionBlock(about=about)
        for prop in desc:
            ns, local = _split_tag(prop.tag)
            predicate = ns + local
            if ns == DCTERMS_NS and local == "description":
                block.description = (prop.text or "").strip()
            elif ns == DCTERMS_NS and local == "creator":
                creator = _creator_from(prop)
                if creator is not None:
                    block.creators.append(creator)
                elif (prop.text or "").strip():
                    block.references.append(
                        Reference(predicate, prop.text.strip(), literal=True)
                    )
            elif ns == DCTERMS_NS and local == "created":
                block.created = _timestamp_from(prop)
            elif ns == DCTERMS_NS and local == "modified":
                block.modified.append(_timestamp_from(prop))
            else:
                resource = prop.get(_RESOURCE_ATTR)
                if resource is not None:
                    block.references.append(Reference(predicate, resource))
                else:
                    text = "".join(prop.itertext()).strip()
                    block.references.append(Reference(predicate, text, literal=True))
        result.add(block)
    return result


def _split_predicate(uri: str) -> tuple[str, str]:
    cut = max(uri.rfind("#"), uri.rfind("/"))
    if cut < 0 or cut == len(uri) - 1:
        raise InvalidMetadata(f"cannot derive an XML name from predicate {uri!r}")
    return uri[: cut + 1], uri[cut + 1:]


def serialize_metadata(metadata: MetadataSet) -> bytes:
    prefixes = dict(_WELL_KNOWN_PREFIXES)
    counter = 0
    blocks = [metadata.blocks[key] for key in sorted(metadata.blocks)]
    for block in blocks:
        if any(c.is_empty() for c in block.creators):
            raise InvalidMetadata(f"empty creator in block about {block.about!r}")
        for ref in block.references:
            ns, _ = _split_predicate(ref.predicate)
            if ns not in prefixes:
                counter += 1
                prefixes[ns] = f"ns{counter}"

    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    xmlns = [f'xmlns:{prefixes[RDF_NS]}={quote_attribute(RDF_NS)}',
             f'xmlns:{prefixes[DCTERMS_NS]}={quote_attribute(DCTERMS_NS)}',
             f'xmlns:{prefixes[VCARD_NS]}={quote_attribute(VCARD_NS)}']
    core = {RDF_NS, DCTERMS_NS, VCARD_NS}
    for ns, prefix in prefixes.items():
        if ns not in core and any(
            _split_predicate(r.predicate)[0] == ns
            for b in blocks for r in b.references
        ):
            xmlns.append(f"xmlns:{prefix}={quote_attribute(ns)}")
    lines.append("<rdf:RDF " + "\n  ".join(xmlns) + ">")

    for block in blocks:
        lines.append(f"  <rdf:Description rdf:about={quote_attribute(block.about)}>")
        if block.description is not None:
            lines.append(
                f"    <dcterms:description>{escape_text(block.description)}"
                "</dcterms:description>"
            )
        for creator in block.creators:
            lines.append('    <dcterms:creator rdf:parseType="Resource">')
            if creator.family_name or creator.given_name:
                lines.append('      <vCard:hasName rdf:parseType="Resource">')
                if creator.family_name:
                    lines.append(
                        f"        <vCard:family-name>{escape_text(creator.family_name)}"
                        "</vCard:family-name>"
                    )
                if creator.given_name:
                    lines.append(
                        f"        <vCard:given-name>{escape_text(creator.given_name)}"
                        "</vCard:given-name>"
                    )
                lines.append("      </vCard:hasName>")
            if creator.email:
                lines.append(
                    f"      <vCard:hasEmail rdf:resource="
                    f'{quote_attribute("mailto:" + creator.email)}/>'
                )
            if creator.organization:
                lines.append(
                    f"      <vCard:organization-name>{escape_text(creator.organization)}"
                    "</vCard:organization-name>"
                )
            if creator.url:
                lines.append(
                    f"      <vCard:hasURL rdf:resource={quote_attribute(creator.url)}/>"
                )
            lines.append("    </dcterms:creator>")
        if block.created is not None:
            lines.append('    <dcterms:created rdf:parseType="Resource">')
            lines.append(
                f"      <dcterms:W3CDTF>{block.created}</dcterms:W3CDTF>"
            )
            lines.append("    </dcterms:created>")
        for stamp in block.modified:
            lines.append('    <dcterms:modified rdf:parseType="Resource">')
            lines.append(f"      <dcterms:W3CDTF>{stamp}</dcterms:W3CDTF>")
            lines.append("    </dcterms:modified>")
        for ref in block.references:
            ns, local = _split_predicate(ref.predicate)
            qname = f"{prefixes[ns]}:{local}"
            if ref.literal:
                lines.append(f"    <{qname}>{escape_text(ref.value)}</{qname}>")
            else:
                lines.append(f"    <{qname} rdf:resource={quote_attribute(ref.value)}/>")
        lines.append("  </rdf:Description>")
    lines.append("</rdf:RDF>")
    document = "\n".join(lines) + "\n"
    bad = non_xml_char(document)
    if bad is not None:
        raise InvalidMetadata(f"character not allowed in XML: {bad!r}")
    return document.encode("utf-8")


def check_minimum_information(metadata: MetadataSet) -> ValidationReport:
    """Minimum archive-level metadata: creation date, last update, creator."""
    report = ValidationReport()
    block = metadata.get(".")
    if block is None:
        report.warning(
            "missing-metadata", ".",
            "no metadata block describes the archive itself",
        )
        return report.sorted()
    if block.created is None:
        report.warning("missing-created", ".", "no creation date recorded")
    if not block.modified:
        report.warning("missing-modified", ".", "no last-update date recorded")
    if not block.creators:
        report.warning("missing-creator", ".", "no creator recorded")
    return report.sorted()
