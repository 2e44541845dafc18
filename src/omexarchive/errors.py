"""Exception hierarchy for the OMEX archive toolkit."""


class OmexError(Exception):
    """Base class for all errors raised by this package.

    `rule` is the report rule id that validation records this error
    under, and `location` the archive location the finding names.
    """
    rule = "omex-error"
    location = ""


# -- container ---------------------------------------------------------------

class NotAZip(OmexError):
    """The byte stream is not a well-formed ZIP file."""
    rule = "not-a-zip"


class CorruptEntry(OmexError):
    """A ZIP entry failed its integrity check (CRC mismatch, truncation, overlap)."""
    rule = "corrupt-entry"

    def __init__(self, path, message=None):
        self.path = self.location = path
        super().__init__(message or f"corrupt entry: {path!r}")


class UnsafePath(OmexError):
    """An entry path violates the container path-safety rules."""
    rule = "unsafe-path"

    def __init__(self, path, reason):
        self.path = self.location = path
        self.reason = reason
        super().__init__(f"unsafe path {path!r}: {reason}")


class InvalidContainer(OmexError):
    """A container violates its invariants and cannot be serialized."""


class NoSuchEntry(OmexError):
    """No entry exists at the requested path."""

    def __init__(self, path):
        self.path = path
        super().__init__(f"no entry at {path!r}")


# -- manifest ----------------------------------------------------------------

class MalformedXml(OmexError):
    """The input is not well-formed XML."""
    rule = "manifest-malformed"
    location = "manifest.xml"


class WrongRootElement(OmexError):
    """The document root element has an unexpected name."""
    rule = "wrong-root"
    location = "manifest.xml"


class WrongNamespace(OmexError):
    """The document root element is in an unexpected namespace."""
    rule = "wrong-namespace"
    location = "manifest.xml"


class MissingAttribute(OmexError):
    """A required attribute is absent from a manifest entry."""
    rule = "missing-attribute"
    location = "manifest.xml"

    def __init__(self, entry_index, attribute):
        self.entry_index = entry_index
        self.attribute = attribute
        super().__init__(
            f"content entry #{entry_index} is missing attribute {attribute!r}"
        )


class InvalidLocation(OmexError):
    """A location value violates the relative-URI safety rules."""
    rule = "invalid-location"

    def __init__(self, location, reason):
        self.location = location
        self.reason = reason
        super().__init__(f"invalid location {location!r}: {reason}")


class DuplicateLocation(OmexError):
    """Two entries, or two metadata blocks, name the same container path."""
    rule = "duplicate-location"

    def __init__(self, location):
        self.location = location
        super().__init__(f"duplicate location {location!r}")


class InvalidManifest(OmexError):
    """A manifest violates its invariants and cannot be serialized."""


class InvalidFormatUri(OmexError):
    """A format value is not an acceptable format URI."""

    def __init__(self, uri):
        self.uri = uri
        super().__init__(f"invalid format URI {uri!r}")


# -- metadata ----------------------------------------------------------------

class NotRdf(OmexError):
    """The document is not the expected RDF/XML shape."""


class BadTimestamp(OmexError):
    """A created/modified value is not a valid W3CDTF timestamp."""

    def __init__(self, value):
        self.value = value
        super().__init__(f"bad W3CDTF timestamp {value!r}")


class InvalidMetadata(OmexError):
    """A metadata set violates its invariants and cannot be serialized."""


# -- archive -----------------------------------------------------------------

class MissingManifest(OmexError):
    """The container holds no manifest.xml at its root."""
    rule = "missing-manifest"
    location = "manifest.xml"


class DanglingManifestEntry(OmexError):
    """The manifest lists a file that is absent from the container."""
    rule = "missing-file"

    def __init__(self, location):
        self.location = location
        super().__init__(f"manifest entry {location!r} has no file in the archive")


class ReservedLocation(OmexError):
    """The location is reserved and cannot be added or removed."""

    def __init__(self, location):
        self.location = location
        super().__init__(f"location {location!r} is reserved")
