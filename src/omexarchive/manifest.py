"""The mandatory manifest.xml: parse, build, serialize, cross-check.

The manifest is a flat list of <content> elements, each carrying a
relative `location` URI, an absolute `format` URI and an optional
boolean `master` flag. The special location `.` denotes the archive
itself.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from urllib.parse import unquote, urlsplit
from xml.sax.saxutils import quoteattr

from .errors import (
    DuplicateLocation,
    InvalidLocation,
    InvalidManifest,
    MalformedXml,
    MissingAttribute,
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

_ROOT_TAG = f"{{{MANIFEST_NS}}}omexManifest"
_CONTENT_TAG = f"{{{MANIFEST_NS}}}content"

# A character outside the XML 1.0 `Char` production: no document can hold
# it, escaped or not, so a location or format URI containing one could be
# written but never read back.
NON_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")

_TRUE_VALUES = {"true", "1"}
_FALSE_VALUES = {"false", "0"}


def normalize_location(location: str) -> str:
    """Strip redundant leading `./` segments; `.` itself is preserved."""
    while location.startswith("./"):
        location = location[2:]
    return location or "."


def check_location(location: str) -> str:
    """Validate a location URI, returning its normalized form.

    Locations must be relative references (no scheme, no authority) made
    of XML characters and, after percent-decoding, contain no `..` segment
    and no leading slash.
    """
    if not location:
        raise InvalidLocation(location, "empty location")
    if location == ".":
        return location
    if NON_XML_CHAR.search(location):
        raise InvalidLocation(location, "character not allowed in XML")
    if "\\" in location:
        raise InvalidLocation(location, "backslash separator")
    try:
        parts = urlsplit(location)
    except ValueError as exc:
        raise InvalidLocation(location, str(exc)) from exc
    if parts.scheme:
        raise InvalidLocation(location, "has a URI scheme")
    if parts.netloc:
        raise InvalidLocation(location, "has a URI authority")
    decoded = unquote(parts.path)
    if decoded.startswith("/"):
        raise InvalidLocation(location, "absolute path")
    if ".." in decoded.split("/"):
        raise InvalidLocation(location, "parent-directory segment")
    normalized = normalize_location(location)
    if normalized != "." and not unquote(normalized):
        raise InvalidLocation(location, "empty path")
    return normalized


def is_valid_format_uri(uri: str) -> bool:
    """Syntactic check: an absolute URI with scheme and some remainder."""
    if not uri or any(c.isspace() for c in uri):
        return False
    try:
        parts = urlsplit(uri)
    except ValueError:
        return False
    return bool(parts.scheme) and bool(parts.netloc or parts.path)


@dataclass(frozen=True)
class ContentEntry:
    location: str
    format: str
    master: bool | None = None

    @property
    def normalized_location(self) -> str:
        return normalize_location(self.location)


@dataclass(frozen=True)
class Manifest:
    entries: tuple[ContentEntry, ...]

    def __init__(self, entries):
        object.__setattr__(self, "entries", tuple(entries))

    def find(self, location: str) -> ContentEntry | None:
        wanted = normalize_location(location)
        for entry in self.entries:
            if entry.normalized_location == wanted:
                return entry
        return None

    def check(self) -> None:
        """Raise InvalidManifest unless the model invariants hold."""
        if not self.entries:
            raise InvalidManifest("a manifest must have at least one entry")
        dots = [e for e in self.entries if e.normalized_location == "."]
        if len(dots) != 1:
            raise InvalidManifest(
                f"exactly one '.' entry required, found {len(dots)}"
            )
        seen: set[str] = set()
        for entry in self.entries:
            loc = entry.normalized_location
            if loc in seen:
                raise InvalidManifest(f"duplicate location {loc!r}")
            seen.add(loc)
            check_location(entry.location)
            if not is_valid_format_uri(entry.format):
                raise InvalidManifest(f"format is not an absolute URI: {entry.format!r}")


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
    seen: set[str] = set()
    for index, elem in enumerate(root):
        if elem.tag != _CONTENT_TAG:
            continue  # unknown children are ignored for forward compatibility
        location = elem.get("location")
        if location is None:
            raise MissingAttribute(index, "location")
        fmt = elem.get("format")
        if fmt is None:
            raise MissingAttribute(index, "format")
        normalized = check_location(location)
        if normalized in seen:
            raise DuplicateLocation(normalized)
        seen.add(normalized)
        master_raw = elem.get("master")
        if master_raw is None:
            master = None
        elif master_raw in _TRUE_VALUES:
            master = True
        elif master_raw in _FALSE_VALUES:
            master = False
        else:
            raise MalformedXml(f"master attribute is not a boolean: {master_raw!r}")
        entries.append(ContentEntry(location, fmt, master))
    return Manifest(entries)


def serialize_manifest(manifest: Manifest) -> bytes:
    manifest.check()
    lines = [
        '<?xml version="1.0" encoding="utf-8"?>',
        f'<omexManifest xmlns="{MANIFEST_NS}">',
    ]
    for entry in manifest.entries:
        attrs = [
            f"location={quoteattr(entry.location)}",
            f"format={quoteattr(entry.format)}",
        ]
        if entry.master is not None:
            attrs.append(f'master="{"true" if entry.master else "false"}"')
        lines.append(f'  <content {" ".join(attrs)}/>')
    lines.append("</omexManifest>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def master_entries(manifest: Manifest) -> list[ContentEntry]:
    """All entries flagged master=true, in document order."""
    return [e for e in manifest.entries if e.master]


def validate_manifest_against(
    manifest: Manifest, paths: set[str]
) -> ValidationReport:
    """Cross-check manifest locations against the container's path set."""
    report = ValidationReport()
    listed: set[str] = set()
    for entry in manifest.entries:
        loc = entry.normalized_location
        if loc == ".":
            continue
        listed.add(loc)
        if loc not in paths:
            report.error(
                "missing-file", loc,
                "manifest lists a file that is absent from the archive",
            )
    for path in sorted(paths):
        if path == MANIFEST_FILENAME:
            continue
        if path not in listed:
            report.warning(
                "unlisted-file", path,
                "archive file is not listed in the manifest",
            )
    masters = master_entries(manifest)
    if len(masters) > 1:
        report.warning(
            "multiple-masters",
            ", ".join(e.normalized_location for e in masters),
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
    "normalize_location",
    "check_location",
    "is_valid_format_uri",
    "parse_manifest",
    "serialize_manifest",
    "master_entries",
    "validate_manifest_against",
]
