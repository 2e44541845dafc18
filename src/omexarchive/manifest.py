"""The mandatory manifest.xml: parse, build, serialize, cross-check.

The manifest is a flat list of <content> elements, each carrying a
relative `location` URI, an absolute `format` URI and an optional
boolean `master` flag. The special location `.` denotes the archive
itself.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from urllib.parse import unquote

from .container import _PLAIN_PATH, check_path
from .errors import (
    DuplicateLocation,
    InvalidLocation,
    InvalidManifest,
    InvalidMetadata,
    MalformedXml,
    MissingAttribute,
    OmexError,
    UnsafePath,
    WrongNamespace,
    WrongRootElement,
)
from .report import ValidationReport

MANIFEST_NS = "http://identifiers.org/combine.specifications/omex-manifest"
OMEX_FORMAT_URI = "http://identifiers.org/combine.specifications/omex"
OMEX_METADATA_FORMAT_URI = (
    "http://identifiers.org/combine.specifications/omex-metadata"
)
MANIFEST_FILENAME = "manifest.xml"
METADATA_FILENAME = "metadata.rdf"
# The archive itself and its manifest: never a file an edit adds, nor the metadata file.
RESERVED_LOCATIONS = frozenset({".", MANIFEST_FILENAME})

_ROOT_TAG = f"{{{MANIFEST_NS}}}omexManifest"
_CONTENT_TAG = f"{{{MANIFEST_NS}}}content"

# A character outside the XML 1.0 `Char` production: no document can hold
# it, escaped or not, so a location or format URI containing one could be
# written but never read back. The class lists what `Char` excludes: its
# complement takes about ten times as long to compile, at every import.
NON_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
# The only such characters ASCII text can hold: C0 controls but tab, LF and CR.
_ASCII_NON_XML = bytes(c for c in range(32) if c not in b"\t\n\r")

# The escapes of xml.sax.saxutils, escape() for text and quoteattr() for attributes,
# and `&#13;` in text too: a bare carriage return reads back as a line feed.
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"})
_ATTRIBUTE_ESCAPES = {**_TEXT_ESCAPES, **str.maketrans({"\n": "&#10;", "\t": "&#9;"})}
_SPECIAL = re.compile('[&<>\n\r\t"]')

_MASTER_VALUES = {"true": True, "1": True, "false": False, "0": False}


def non_xml_char(text: str) -> str | None:
    """The first character of `text` outside XML 1.0, or None."""
    if text.isascii() and len(text.encode().translate(None, _ASCII_NON_XML)) == len(text):
        return None
    bad = NON_XML_CHAR.search(text)
    return bad.group() if bad else None


def escape_text(text: str) -> str:
    """`text` as XML character data, as saxutils.escape writes it, and CR as `&#13;`."""
    return text.translate(_TEXT_ESCAPES) if _SPECIAL.search(text) else text


def quote_attribute(value: str) -> str:
    """`value` as a quoted attribute value, as xml.sax.saxutils.quoteattr writes it."""
    if _SPECIAL.search(value):
        value = value.translate(_ATTRIBUTE_ESCAPES)
        if '"' in value and "'" not in value:
            return f"'{value}'"
        value = value.replace('"', "&quot;")
    return f'"{value}"'


def format_attributes(attrib: dict[str, str], qname) -> str:
    """`attrib` as it follows a tag, each name written as `qname` gives it."""
    return "".join(f" {qname(name)}={quote_attribute(value)}" for name, value in attrib.items())


def write_element(out: list[str], elem: ET.Element, qname, indent: str | None = None,
                  kept: list[ET.Element] = ()) -> None:
    """Append `elem` as XML, with `kept` as more children after its own and
    each name as `qname` writes it: the one element writer of both documents.

    With an `indent`, each child of `elem` starts a line one step further
    in and is laid out so too; without one, and for `kept`, text and
    whitespace are written as they stand.
    """
    if not isinstance(elem.tag, str):  # a comment or a processing instruction
        text = elem.text or ""
        if elem.tag is ET.PI and "?>" in text:  # well-formed, but read back cut short
            raise InvalidMetadata(f"a processing instruction cannot hold '?>': {text!r}")
        out.append(f"<!--{text}-->" if elem.tag is ET.Comment else f"<?{text}?>")
        return
    tag = qname(elem.tag)
    out.append(f"<{tag}{format_attributes(elem.attrib, qname)}")
    if elem.text is None and not len(elem) and not kept:
        out.append("/>")
        return
    out.append(">" + escape_text(elem.text or ""))
    if indent is None:
        for child in elem:
            write_element(out, child, qname)
            out.append(escape_text(child.tail or ""))
    else:
        for child in elem:
            out.append(indent + "  ")
            write_element(out, child, qname, indent + "  ")
        for child in kept:
            out.append(indent + "  ")
            write_element(out, child, qname)
        if len(elem) or kept:
            out.append(indent)
    out.append(f"</{tag}>")


def encode_document(document: str, error: type[OmexError]) -> bytes:
    """`document` in UTF-8; a character outside XML 1.0 raises `error`."""
    bad = non_xml_char(document)
    if bad is not None:
        raise error(f"character not allowed in XML: {bad!r}")
    return document.encode("utf-8")


def check_location(location: str) -> str:
    """Map a manifest location to the container path it names.

    The location is percent-decoded as UTF-8 and stripped of leading `./`
    segments (`.` and `./` name the archive itself). The result must be
    made of XML characters and pass the container's `check_path`;
    anything else raises InvalidLocation.
    """
    if _PLAIN_PATH.fullmatch(location):  # nothing to decode, strip or refuse
        return location
    try:
        path = unquote(location, errors="strict")
    except UnicodeDecodeError as exc:
        raise InvalidLocation(location, "percent-escape is not UTF-8") from exc
    while path.startswith("./"):
        path = path[2:]
    if path in (".", "") and location:
        return "."
    if non_xml_char(path) is not None:
        raise InvalidLocation(location, "character not allowed in XML")
    try:
        return check_path(path)
    except UnsafePath as exc:
        raise InvalidLocation(location, exc.reason) from None


@dataclass(frozen=True)
class ContentEntry:
    """A manifest entry; `path` is the container path its location names."""
    location: str
    format: str
    master: bool | None = None
    path: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "path", check_location(self.location))


@dataclass(frozen=True)
class Manifest:
    """Entries in document order, indexed by path; paths are unique.

    `metadata_path` is the path of the first entry in the omex-metadata
    format but `.` and manifest.xml, or None.
    """
    entries: tuple[ContentEntry, ...]

    def __init__(self, entries):
        self._extend({}, None, entries)

    def _extend(self, by_path: dict, metadata_path: str | None, added) -> None:
        """Make this manifest the entries of `by_path`, then `added`."""
        for entry in added:
            if by_path.setdefault(entry.path, entry) is not entry:
                raise DuplicateLocation(entry.path)
            if (metadata_path is None and entry.format == OMEX_METADATA_FORMAT_URI
                    and entry.path not in RESERVED_LOCATIONS):
                metadata_path = entry.path
        object.__setattr__(self, "entries", tuple(by_path.values()))
        object.__setattr__(self, "_by_path", by_path)
        object.__setattr__(self, "metadata_path", metadata_path)

    def find(self, path: str) -> ContentEntry | None:
        return self._by_path.get(path)

    def edited(self, added, removed: str | None = None) -> "Manifest":
        """This manifest without the entry at path `removed`, then `added`,
        extended from a copy of this manifest's index."""
        by_path = dict(self._by_path)
        if removed is not None:
            del by_path[removed]
            if removed == self.metadata_path:
                return Manifest([*by_path.values(), *added])
        manifest = object.__new__(Manifest)
        manifest._extend(by_path, self.metadata_path, added)
        return manifest


def parse_manifest(xml: bytes) -> Manifest:
    try:
        root = ET.fromstring(xml)
    except ET.ParseError as exc:
        raise MalformedXml(f"manifest is not well-formed XML: {exc}") from exc
    if root.tag != _ROOT_TAG:
        ns, _, local = root.tag.rpartition("}")
        if local == "omexManifest":
            raise WrongNamespace(
                f"root namespace {ns.lstrip('{')!r}, expected {MANIFEST_NS!r}"
            )
        raise WrongRootElement(f"root element {root.tag!r}, expected omexManifest")

    entries = []
    for index, elem in enumerate(root):
        if elem.tag != _CONTENT_TAG:
            continue  # unknown children are ignored for forward compatibility
        location = elem.get("location")
        if location is None:
            raise MissingAttribute(index, "location")
        fmt = elem.get("format")
        if fmt is None:
            raise MissingAttribute(index, "format")
        master_raw = elem.get("master")
        master = _MASTER_VALUES.get(master_raw)
        if master is None and master_raw is not None:
            raise MalformedXml(f"master attribute is not a boolean: {master_raw!r}")
        entries.append(ContentEntry(location, fmt, master))
    return Manifest(entries)


def serialize_manifest(manifest: Manifest) -> bytes:
    """Write the manifest; entry formats are written as they stand.

    Raises InvalidManifest when there is no entry for `.` or when a
    character outside XML 1.0 would make the document unreadable.
    """
    if manifest.find(".") is None:
        raise InvalidManifest("a manifest needs an entry for '.'")
    root = ET.Element("omexManifest", xmlns=MANIFEST_NS)
    for entry in manifest.entries:
        content = ET.SubElement(root, "content", location=entry.location, format=entry.format)
        if entry.master is not None:
            content.set("master", "true" if entry.master else "false")
    out = ['<?xml version="1.0" encoding="utf-8"?>\n']
    write_element(out, root, str, "\n")
    return encode_document("".join(out) + "\n", InvalidManifest)


def master_entries(manifest: Manifest) -> list[ContentEntry]:
    """All entries flagged master=true, in document order."""
    return [e for e in manifest.entries if e.master]


def validate_manifest_against(
    manifest: Manifest, paths: set[str]
) -> ValidationReport:
    """Cross-check manifest locations against the container's path set."""
    report = ValidationReport()
    for entry in manifest.entries:
        if entry.path != "." and entry.path not in paths:
            report.error(
                "missing-file", entry.path,
                "manifest lists a file that is absent from the archive",
            )
    for path in paths:
        if path != MANIFEST_FILENAME and manifest.find(path) is None:
            report.warning(
                "unlisted-file", path,
                "archive file is not listed in the manifest",
            )
    masters = master_entries(manifest)
    if len(masters) > 1:
        report.warning(
            "multiple-masters",
            ", ".join(e.path for e in masters),
            f"{len(masters)} entries are flagged master",
        )
    return report.sorted()


__all__ = [
    "MANIFEST_NS",
    "OMEX_FORMAT_URI",
    "OMEX_METADATA_FORMAT_URI",
    "MANIFEST_FILENAME",
    "METADATA_FILENAME",
    "ContentEntry",
    "Manifest",
    "check_location",
    "parse_manifest",
    "serialize_manifest",
    "master_entries",
    "validate_manifest_against",
]
