"""Format-URI classification and archive file-extension inference."""

from __future__ import annotations

import enum
import mimetypes
import re
from dataclasses import dataclass

from .manifest import (
    OMEX_FORMAT_URI,
    OMEX_METADATA_FORMAT_URI,
    Manifest,
    non_xml_char,
)

COMBINE_PREFIX = "http://identifiers.org/combine.specifications/"
MEDIATYPE_PREFIX = "http://purl.org/NET/mediatypes/"

_WHITESPACE = re.compile(r"\s")

# type/subtype per the media-type grammar; dots allowed for x.name forms
_MEDIA_TYPE = re.compile(r"^[A-Za-z0-9][\w.+-]*/[A-Za-z0-9][\w.+-]*$")

EXTENSIONS = ("omex", "sedx", "sbex", "cmex", "sbox", "neux", "phex")

# COMBINE spec-key prefix -> extension for single-family archives
_FAMILY_EXTENSIONS = {
    "sbml": "sbex",
    "cellml": "cmex",
    "sbol": "sbox",
    "neuroml": "neux",
    "pharmml": "phex",
}

_SEDML_PREFIX = "sed-ml"


class FormatKind(enum.Enum):
    COMBINE_REGISTERED = "combine"
    REGISTERED_MEDIA_TYPE = "media-type"
    UNREGISTERED_MEDIA_TYPE = "unregistered-media-type"
    INVALID = "invalid"


@dataclass(frozen=True)
class FormatClass:
    kind: FormatKind
    key: str


def classify_format(uri: str) -> FormatClass:
    """Classify any string into exactly one FormatClass; never raises.

    This is the package's one format rule: a URI holding whitespace or a
    character outside XML 1.0 is INVALID.
    """
    if non_xml_char(uri) is not None or _WHITESPACE.search(uri):
        return FormatClass(FormatKind.INVALID, uri)
    if uri.startswith(COMBINE_PREFIX):
        key = uri[len(COMBINE_PREFIX):]
        if key and "/" not in key:
            return FormatClass(FormatKind.COMBINE_REGISTERED, key)
        return FormatClass(FormatKind.INVALID, uri)
    if uri.startswith(MEDIATYPE_PREFIX):
        key = uri[len(MEDIATYPE_PREFIX):]
        if _MEDIA_TYPE.match(key):
            subtype = key.split("/", 1)[1]
            if subtype.startswith("x."):
                return FormatClass(FormatKind.UNREGISTERED_MEDIA_TYPE, key)
            return FormatClass(FormatKind.REGISTERED_MEDIA_TYPE, key)
        return FormatClass(FormatKind.INVALID, uri)
    return FormatClass(FormatKind.INVALID, uri)


def _matches_family(key: str, family: str) -> bool:
    return key == family or key.startswith(family + ".") or key.startswith(family + "-")


def infer_extension(manifest: Manifest) -> str:
    """Pick the conventional extension for an archive.

    Any SED-ML entry wins `sedx`; otherwise a single COMBINE model
    family selects its own extension; everything else is `omex`.
    """
    families: set[str] = set()
    for entry in manifest.entries:
        if entry.path == ".":
            continue
        fc = classify_format(entry.format)
        key = fc.key
        if fc.kind is not FormatKind.COMBINE_REGISTERED or key.startswith("omex"):
            continue  # container bookkeeping or non-COMBINE payload
        if _matches_family(key, _SEDML_PREFIX) or key.startswith("sedml"):
            return "sedx"
        for family, ext in _FAMILY_EXTENSIONS.items():
            if _matches_family(key, family):
                families.add(family)
                break
    if len(families) == 1:
        return _FAMILY_EXTENSIONS[families.pop()]
    return "omex"


# Explicit defaults for suffixes the stdlib mimetypes table gets wrong
# or does not know; COMBINE formats map to identifiers.org URIs.
_SUFFIX_FORMATS = {
    ".sbml": COMBINE_PREFIX + "sbml",
    ".sedml": COMBINE_PREFIX + "sed-ml",
    ".sedx": COMBINE_PREFIX + "sed-ml",
    ".cellml": COMBINE_PREFIX + "cellml",
    ".sbol": COMBINE_PREFIX + "sbol",
    ".nml": COMBINE_PREFIX + "neuroml",
    ".pharmml": COMBINE_PREFIX + "pharmml",
    ".sbgn": COMBINE_PREFIX + "sbgn",
    ".numl": COMBINE_PREFIX + "numl",
    ".rdf": OMEX_METADATA_FORMAT_URI,
    ".omex": OMEX_FORMAT_URI,
    ".xml": MEDIATYPE_PREFIX + "application/xml",
    ".m": MEDIATYPE_PREFIX + "application/x.matlab",
    ".cps": MEDIATYPE_PREFIX + "application/x.copasi",
}

OCTET_STREAM_URI = MEDIATYPE_PREFIX + "application/octet-stream"


def format_for_filename(name: str) -> str:
    """Guess a default format URI from a filename. Convenience only."""
    base = name.rsplit("/", 1)[-1]
    dot = base.rfind(".")
    suffix = base[dot:].lower() if dot > 0 else ""
    if suffix in _SUFFIX_FORMATS:
        return _SUFFIX_FORMATS[suffix]
    guessed, _ = mimetypes.guess_type(base)
    if guessed:
        return MEDIATYPE_PREFIX + guessed
    return OCTET_STREAM_URI
