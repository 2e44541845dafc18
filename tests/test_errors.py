"""Errors that name a location: one form for all seven, as the program raises them."""

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
    NoSuchEntry,
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
