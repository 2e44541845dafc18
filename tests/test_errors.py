"""Errors: one form for all, as the program raises them, kept when copied or unpickled."""

import copy
import pickle

import pytest

from omexarchive import (
    Container,
    ContentEntry,
    Manifest,
    add_entry,
    open_archive,
    open_container,
    remove_entry,
    write_container,
)
from omexarchive.container import check_path
from omexarchive.errors import (
    CorruptEntry,
    DanglingManifestEntry,
    DuplicateLocation,
    InvalidLocation,
    MissingAttribute,
    NoSuchEntry,
    OmexError,
    ReservedLocation,
    UnsafePath,
)
from omexarchive.formats import COMBINE_PREFIX
from omexarchive.manifest import OMEX_FORMAT_URI, check_location, serialize_manifest

from conftest import GOLDEN_FILES, build_container


def _bad_crc() -> bytes:
    """The golden archive with the stored CRC-32 of `simulation.xml` changed."""
    data = bytearray(write_container(build_container(GOLDEN_FILES)))
    central = data.find(b"simulation.xml", data.find(b"PK\x01\x02")) - 46
    data[central + 16] ^= 0xFF  # a central record keeps the CRC-32 at 16
    local = data.find(b"simulation.xml") - 30
    data[local + 14] ^= 0xFF  # a local header at 14
    return bytes(data)


def _dangling() -> bytes:
    manifest = Manifest([ContentEntry(".", OMEX_FORMAT_URI),
                         ContentEntry("gone.xml", COMBINE_PREFIX + "sbml")])
    return write_container(build_container({"manifest.xml": serialize_manifest(manifest)}))


def _golden():
    return open_archive(write_container(build_container(GOLDEN_FILES)))


# what raises each error, the parent's message for it, its rule and its reason
@pytest.mark.parametrize("raise_it, error, message, rule, location, reason", [
    (lambda: open_container(_bad_crc()), CorruptEntry,
     "corrupt entry 'simulation.xml': Bad CRC-32 for file 'simulation.xml'",
     "corrupt-entry", "simulation.xml", "Bad CRC-32 for file 'simulation.xml'"),
    (lambda: check_path("a/../b"), UnsafePath,
     "unsafe path 'a/../b': parent-directory segment",
     "unsafe-path", "a/../b", "parent-directory segment"),
    (lambda: Container().get("x"), NoSuchEntry,
     "no entry at 'x'", "omex-error", "x", None),
    (lambda: check_location("a/%ff"), InvalidLocation,
     "invalid location 'a/%ff': percent-escape is not UTF-8",
     "invalid-location", "a/%ff", "percent-escape is not UTF-8"),
    (lambda: add_entry(_golden(), "simulation.xml", COMBINE_PREFIX + "sed-ml", b""),
     DuplicateLocation,
     "duplicate location 'simulation.xml'", "duplicate-location", "simulation.xml", None),
    (lambda: open_archive(_dangling()), DanglingManifestEntry,
     "manifest entry 'gone.xml' has no file in the archive", "missing-file", "gone.xml", None),
    (lambda: remove_entry(_golden(), "manifest.xml"), ReservedLocation,
     "location 'manifest.xml' is reserved", "omex-error", "manifest.xml", None),
], ids=["CorruptEntry", "UnsafePath", "NoSuchEntry", "InvalidLocation", "DuplicateLocation",
        "DanglingManifestEntry", "ReservedLocation"])
def test_an_error_naming_a_location_keeps_its_message_and_fields(
        raise_it, error, message, rule, location, reason):
    with pytest.raises(error) as refusal:
        raise_it()
    for exc in (refusal.value, pickle.loads(pickle.dumps(refusal.value))):
        assert (str(exc), exc.rule, exc.location, exc.path, exc.reason) == (
            message, rule, location, location, reason)


def _below(base):
    yield base
    for error in base.__subclasses__():
        yield from _below(error)


# every error class the package raises
ERRORS = sorted({error for error in _below(OmexError) if error.__module__ == OmexError.__module__
                 and not error.__name__.startswith("_")}, key=lambda error: error.__name__)


# a sample value for each field an error is built from
_SAMPLES = {"message": "it went wrong", "location": "a/b c.txt", "reason": "its reason",
            "entry_index": 3, "attribute": "format", "uri": "ftp:bad uri",
            "value": "yesterday"}


@pytest.mark.parametrize("error", ERRORS, ids=lambda error: error.__name__)
def test_every_error_keeps_its_message_and_fields_when_copied_or_unpickled(error):
    exc = error(*(_SAMPLES[field] for field in error.fields))
    assert exc.args == (str(exc),)
    for kept in (pickle.loads(pickle.dumps(exc)), copy.copy(exc)):
        assert type(kept) is error
        assert (str(kept), kept.args, kept.rule, kept.location) == (
            str(exc), exc.args, exc.rule, exc.location)
        assert {field: getattr(kept, field) for field in error.fields} == {
            field: _SAMPLES[field] for field in error.fields}


def test_an_error_takes_its_fields_by_position_or_by_name():
    assert str(MissingAttribute(entry_index=0, attribute="format")) == str(
        MissingAttribute(0, "format"))
    assert (NoSuchEntry("x").reason, UnsafePath("x", reason="r").reason) == (None, "r")
    for build in (lambda: UnsafePath("x", "r", "extra"), lambda: NoSuchEntry("x", why="r")):
        with pytest.raises(TypeError):
            build()
