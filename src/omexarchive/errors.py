"""Exception hierarchy for the OMEX archive toolkit."""


class OmexError(Exception):
    """Base class for all errors raised by this package.

    `rule` is the report rule id that validation records this error
    under, and `location` the archive location the finding names. It keeps its
    `fields` by name, None where left out; its message, its one `args`, is
    its `template` filled with them, and a copy is built from them again.
    """
    rule = "omex-error"
    location = ""
    fields = ("message",)
    template = "{message}"

    def __init__(self, *values, **named):
        named.update(zip(self.fields, values))
        if len(values) > len(self.fields) or not named.keys() <= set(self.fields):
            raise TypeError(f"{type(self).__name__} takes {', '.join(self.fields)}")
        vars(self).update({field: named.get(field) for field in self.fields})
        super().__init__(self.template.format_map(vars(self)))

    def __reduce__(self):
        return type(self), tuple(getattr(self, field) for field in self.fields)


class _Located(OmexError):
    """An error naming one archive location, as `location` and its alias `path`, for `reason`."""
    fields = ("location", "reason")

    @property
    def path(self):
        return self.location


# -- container ---------------------------------------------------------------

class NotAZip(OmexError):
    """The byte stream is not a well-formed ZIP file."""
    rule = "not-a-zip"


class CorruptEntry(_Located):
    """A ZIP entry failed its integrity check (CRC mismatch, truncation, overlap)."""
    rule = "corrupt-entry"
    template = "corrupt entry {location!r}: {reason}"


class UnsafePath(_Located):
    """An entry path violates the container path-safety rules."""
    rule = "unsafe-path"
    template = "unsafe path {location!r}: {reason}"


class NoSuchEntry(_Located):
    """No entry exists at the requested path."""
    template = "no entry at {location!r}"


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
    fields = ("entry_index", "attribute")
    template = "content entry #{entry_index} is missing attribute {attribute!r}"


class InvalidLocation(_Located):
    """A location value violates the relative-URI safety rules."""
    rule = "invalid-location"
    template = "invalid location {location!r}: {reason}"


class DuplicateLocation(_Located):
    """Two entries, or two metadata blocks, name the same container path."""
    rule = "duplicate-location"
    template = "duplicate location {location!r}"


class InvalidManifest(OmexError):
    """A manifest violates its invariants and cannot be serialized."""


class InvalidFormatUri(OmexError):
    """A format value is not an acceptable format URI."""
    fields = ("uri",)
    template = "invalid format URI {uri!r}"


# -- metadata ----------------------------------------------------------------

class MalformedMetadata(MalformedXml):
    """The metadata is not well-formed XML."""
    rule = "metadata-unreadable"
    location = ""


class NotRdf(OmexError):
    """The document is not the expected RDF/XML shape."""
    rule = "metadata-unreadable"


class BadTimestamp(OmexError):
    """A created/modified value is not a valid W3CDTF timestamp."""
    rule = "metadata-unreadable"
    fields = ("value",)
    template = "bad W3CDTF timestamp {value!r}"


class InvalidMetadata(OmexError):
    """A metadata set violates its invariants and cannot be serialized."""


# -- archive -----------------------------------------------------------------

class MissingManifest(OmexError):
    """The container holds no manifest.xml at its root."""
    rule = "missing-manifest"
    location = "manifest.xml"


class DanglingManifestEntry(_Located):
    """The manifest lists a file that is absent from the container."""
    rule = "missing-file"
    template = "manifest entry {location!r} has no file in the archive"


class ReservedLocation(_Located):
    """The location is reserved and cannot be added or removed."""
    template = "location {location!r} is reserved"
