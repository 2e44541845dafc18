"""OMEX / COMBINE Archive toolkit.

A library and CLI for the ZIP-based archive format used to exchange
computational modeling projects: a mandatory manifest.xml listing every
entry with its format URI, plus optional RDF metadata.
"""

from .archive import (
    Archive,
    ValidationMode,
    add_entry,
    create_archive,
    extract_all,
    open_archive,
    pack_directory,
    remove_entry,
    set_metadata,
    validate_archive,
)
from .container import (
    Container,
    ContainerEntry,
    open_container,
    write_container,
)
from .errors import OmexError
from .formats import (
    FormatClass,
    FormatKind,
    classify_format,
    format_for_filename,
    infer_extension,
)
from .manifest import (
    ContentEntry,
    Manifest,
    master_entries,
    parse_manifest,
    serialize_manifest,
    validate_manifest_against,
)
from .metadata import (
    Creator,
    DescriptionBlock,
    MetadataSet,
    Timestamp,
    check_minimum_information,
    parse_metadata,
    serialize_metadata,
)
from .report import Finding, Severity, ValidationReport

__version__ = "0.1.0"

__all__ = [
    "Archive",
    "Container",
    "ContainerEntry",
    "ContentEntry",
    "Creator",
    "DescriptionBlock",
    "Finding",
    "FormatClass",
    "FormatKind",
    "Manifest",
    "MetadataSet",
    "OmexError",
    "Severity",
    "Timestamp",
    "ValidationMode",
    "ValidationReport",
    "add_entry",
    "check_minimum_information",
    "classify_format",
    "create_archive",
    "extract_all",
    "format_for_filename",
    "infer_extension",
    "master_entries",
    "open_archive",
    "open_container",
    "pack_directory",
    "parse_manifest",
    "parse_metadata",
    "remove_entry",
    "serialize_manifest",
    "serialize_metadata",
    "set_metadata",
    "validate_archive",
    "validate_manifest_against",
    "write_container",
]
