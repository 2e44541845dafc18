"""High-level archive API: create, open, mutate, validate, extract."""

from __future__ import annotations

import enum
import getpass
from dataclasses import dataclass
from pathlib import Path, PurePosixPath

from .container import (
    Container,
    ContainerEntry,
    open_container,
    write_container,
)
from .errors import (
    DanglingManifestEntry,
    DuplicateLocation,
    InvalidFormatUri,
    MissingManifest,
    NoSuchEntry,
    OmexError,
    ReservedLocation,
    UnsafePath,
)
from .formats import FormatKind, classify_format, format_for_filename
from .manifest import (
    MANIFEST_FILENAME,
    METADATA_FILENAME,
    OMEX_FORMAT_URI,
    OMEX_METADATA_FORMAT_URI,
    ContentEntry,
    Manifest,
    check_location,
    master_entries,
    normalize_location,
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
from .report import Severity, ValidationReport

RESERVED_LOCATIONS = frozenset({".", MANIFEST_FILENAME})


class ValidationMode(enum.Enum):
    STRICT = "strict"
    LENIENT = "lenient"


@dataclass(frozen=True)
class Archive:
    container: Container
    manifest: Manifest
    metadata: MetadataSet | None = None

    def to_bytes(self) -> bytes:
        return write_container(self.container)

    def byte_map(self) -> dict[str, bytes]:
        return self.container.byte_map()


def _metadata_location(manifest: Manifest, container: Container) -> str | None:
    """The manifest omex-metadata entry wins; literal metadata.rdf is the fallback."""
    for entry in manifest.entries:
        if entry.format == OMEX_METADATA_FORMAT_URI and entry.normalized_location != ".":
            return entry.normalized_location
    if METADATA_FILENAME in container:
        return METADATA_FILENAME
    return None


def default_creator() -> Creator:
    try:
        user = getpass.getuser()
    except (KeyError, OSError):
        user = "unknown"
    return Creator(family_name=user)


def stamp_block(creator: Creator | None = None,
                created: Timestamp | None = None) -> DescriptionBlock:
    """An archive-level metadata block recording creation date and creator."""
    return DescriptionBlock(
        about=".",
        creators=[creator or default_creator()],
        created=created or Timestamp.now(),
    )


def create_archive(
    files,
    metadata: MetadataSet | None = None,
) -> Archive:
    """Build an archive from (location, format-URI, master, bytes) tuples.

    The `.` manifest entry is added automatically; when `metadata` is
    given it is serialized to metadata.rdf with a manifest entry.
    """
    entries = [ContentEntry(".", OMEX_FORMAT_URI)]
    container = Container()
    seen = {"."}
    for location, format_uri, master, data in files:
        normalized = check_location(location)
        if normalized in seen or normalized == MANIFEST_FILENAME:
            raise DuplicateLocation(normalized)
        seen.add(normalized)
        fc = classify_format(format_uri)
        if fc.kind is FormatKind.INVALID:
            raise InvalidFormatUri(format_uri)
        entries.append(ContentEntry(normalized, format_uri, master or None))
        container.add(ContainerEntry(normalized, bytes(data)))

    if metadata is not None:
        if METADATA_FILENAME in seen:
            raise DuplicateLocation(METADATA_FILENAME)
        entries.append(ContentEntry(METADATA_FILENAME, OMEX_METADATA_FORMAT_URI))
        container.add(ContainerEntry(METADATA_FILENAME, serialize_metadata(metadata)))

    manifest = Manifest(entries)
    container.put(MANIFEST_FILENAME, serialize_manifest(manifest))
    return Archive(container, manifest, metadata)


def _load(data: bytes, strict: bool) -> tuple[Archive, ValidationReport]:
    """Read and check an archive: the one pipeline behind open and validate.

    Raises the first fatal OmexError (an unreadable container, a missing
    manifest, a manifest that fails to parse); every other finding goes
    into the report.
    """
    container = open_container(data)
    if MANIFEST_FILENAME not in container:
        raise MissingManifest(
            f"every archive must contain {MANIFEST_FILENAME} at its root"
        )
    manifest = parse_manifest(container.get(MANIFEST_FILENAME))

    report = ValidationReport()
    for finding in validate_manifest_against(manifest, set(container.paths())):
        if finding.rule == "unlisted-file" and strict:
            report.error(finding.rule, finding.location, finding.message)
        else:
            report.items.append(finding)

    if manifest.find(".") is None:
        report.warning(
            "no-archive-entry", ".",
            "the manifest lacks the entry for the archive itself",
        )

    for entry in manifest.entries:
        fc = classify_format(entry.format)
        if fc.kind is FormatKind.INVALID:
            severity = Severity.ERROR if strict else Severity.WARNING
            report.add(
                severity, "invalid-format", entry.normalized_location,
                f"format URI is not recognized: {entry.format!r}",
            )

    metadata = None
    location = _metadata_location(manifest, container)
    if location is not None and location in container:
        try:
            metadata = parse_metadata(container.get(location))
        except OmexError as exc:
            report.warning("metadata-unreadable", location, str(exc))
    report.extend(check_minimum_information(metadata or MetadataSet()))
    return Archive(container, manifest, metadata), report.sorted()


def open_archive(data: bytes) -> Archive:
    """Read an archive; succeeds exactly when lenient validation finds no errors.

    Unreadable metadata is a validation warning, so it leaves
    `Archive.metadata` as None instead of failing the open.
    """
    archive, report = _load(data, strict=False)
    if report.errors:
        raise DanglingManifestEntry(report.errors[0].location)
    return archive


def validate_archive(
    data: bytes, mode: ValidationMode = ValidationMode.STRICT
) -> ValidationReport:
    """Full validation; never raises — all findings are report items."""
    try:
        return _load(data, mode is ValidationMode.STRICT)[1]
    except OmexError as exc:
        report = ValidationReport()
        report.error(exc.rule, exc.location, str(exc))
        return report


def _rebuild(container: Container, manifest: Manifest,
             metadata: MetadataSet | None) -> Archive:
    container.put(MANIFEST_FILENAME, serialize_manifest(manifest))
    return Archive(container, manifest, metadata)


def add_entry(
    archive: Archive, location: str, format_uri: str, data: bytes,
    master: bool | None = None,
) -> Archive:
    normalized = check_location(location)
    if normalized in RESERVED_LOCATIONS:
        raise ReservedLocation(normalized)
    if archive.manifest.find(normalized) or normalized in archive.container:
        raise DuplicateLocation(normalized)
    fc = classify_format(format_uri)
    if fc.kind is FormatKind.INVALID:
        raise InvalidFormatUri(format_uri)
    container = archive.container.copy()
    container.add(ContainerEntry(normalized, bytes(data)))
    manifest = Manifest(
        archive.manifest.entries + (ContentEntry(normalized, format_uri, master),)
    )
    return _rebuild(container, manifest, archive.metadata)


def remove_entry(archive: Archive, location: str) -> Archive:
    normalized = check_location(location)
    if normalized in RESERVED_LOCATIONS:
        raise ReservedLocation(normalized)
    if archive.manifest.find(normalized) is None:
        raise NoSuchEntry(normalized)
    container = archive.container.copy()
    if normalized in container:
        container.remove(normalized)
    manifest = Manifest(
        e for e in archive.manifest.entries
        if e.normalized_location != normalized
    )
    metadata = archive.metadata
    metadata_location = _metadata_location(archive.manifest, archive.container)
    if normalized == metadata_location:
        metadata = None
    elif metadata is not None and metadata.get(normalized) is not None:
        metadata = metadata.copy()
        metadata.remove(normalized)
        if metadata_location is not None:
            container.put(metadata_location, serialize_metadata(metadata))
    return _rebuild(container, manifest, metadata)


def extract_all(archive: Archive, destination) -> list[Path]:
    """Write every container entry under `destination`, preserving paths."""
    dest = Path(destination).resolve()
    dest.mkdir(parents=True, exist_ok=True)
    written = []
    for entry in archive.container.entries:
        target = dest.joinpath(*PurePosixPath(entry.path).parts)
        # container invariants forbid traversal; keep a last-line check anyway
        if not target.resolve().is_relative_to(dest):
            raise UnsafePath(entry.path, "escapes the destination directory")
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(entry.data)
        written.append(target)
    return sorted(written)


def set_metadata(archive: Archive, metadata: MetadataSet) -> Archive:
    """Replace the archive's metadata, creating metadata.rdf if needed."""
    container = archive.container.copy()
    location = _metadata_location(archive.manifest, archive.container)
    location = location or METADATA_FILENAME
    container.put(location, serialize_metadata(metadata))
    manifest = archive.manifest
    if manifest.find(location) is None:
        manifest = Manifest(
            manifest.entries
            + (ContentEntry(location, OMEX_METADATA_FORMAT_URI),)
        )
    return _rebuild(container, manifest, metadata)


def master_of(archive: Archive) -> list[ContentEntry]:
    return master_entries(archive.manifest)


def pack_directory(
    directory,
    masters: set[str] | None = None,
    format_overrides: dict[str, str] | None = None,
    stamp: bool = True,
    creator: Creator | None = None,
    created: Timestamp | None = None,
) -> Archive:
    """Create an archive from a directory tree.

    Formats default via format_for_filename; a root manifest.xml is
    ignored (it is regenerated); an existing metadata.rdf is packed
    verbatim and suppresses auto-stamping.
    """
    root = Path(directory)
    masters = {normalize_location(m) for m in (masters or set())}
    overrides = {
        normalize_location(k): v for k, v in (format_overrides or {}).items()
    }
    files = []
    locations = set()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if rel == MANIFEST_FILENAME:
            continue
        fmt = overrides.get(rel, format_for_filename(rel))
        files.append((rel, fmt, rel in masters, path.read_bytes()))
        locations.add(rel)
    unknown_masters = masters - locations
    if unknown_masters:
        raise NoSuchEntry(sorted(unknown_masters)[0])
    metadata = None
    if stamp and METADATA_FILENAME not in locations:
        metadata = MetadataSet()
        metadata.add(stamp_block(creator, created))
    return create_archive(files, metadata)
