"""The edit path: edits cost what they change, and archives stay values.

`add_entry`, `remove_entry` and `set_metadata` copy the members and the
manifest index and leave manifest.xml and metadata.rdf to be written
once, when the archive's bytes are first needed.
"""

import dataclasses
import gc
import hashlib
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import omexarchive.archive
import omexarchive.manifest
from omexarchive import (
    Archive,
    Container,
    ContentEntry,
    Creator,
    DescriptionBlock,
    Manifest,
    MetadataSet,
    Timestamp,
    add_entry,
    create_archive,
    extract_all,
    open_archive,
    remove_entry,
    set_metadata,
)
from omexarchive.archive import pack_directory, stamp_block
from omexarchive.errors import InvalidLocation, InvalidMetadata, OmexError
from omexarchive.formats import COMBINE_PREFIX, MEDIATYPE_PREFIX
from omexarchive.manifest import (
    MANIFEST_NS,
    OMEX_FORMAT_URI,
    OMEX_METADATA_FORMAT_URI,
    check_location,
)
from omexarchive.metadata import serialize_metadata

from conftest import raw_zip

TEXT = MEDIATYPE_PREFIX + "text/plain"
SBML = COMBINE_PREFIX + "sbml"


def _stamp() -> MetadataSet:
    meta = MetadataSet()
    meta.add(stamp_block(Creator(family_name="Doe"),
                         Timestamp.parse("2020-01-01T00:00:00Z")))
    return meta


def _with_description(archive, about: str, text: str) -> MetadataSet:
    """The archive's metadata with block `about` described as `text`, as a new set."""
    blocks = dict(archive.metadata.blocks) if archive.metadata else {}
    key = check_location(about)
    block = blocks.get(key) or DescriptionBlock(about=about)
    blocks[key] = dataclasses.replace(block, description=text)
    return MetadataSet(blocks)


def _sized(entries: int):
    return set_metadata(create_archive([(f"d{i % 9}/f{i}.txt", TEXT, False, b"%d" % i)
                                        for i in range(entries)]), _stamp())


def _counted(monkeypatch, *names):
    """The arguments of each call made through the archive module to the
    functions `names`, by function name."""
    calls = {name: [] for name in names}
    for name, made in calls.items():
        def counted(value, call=getattr(omexarchive.archive, name), made=made):
            made.append(value)
            return call(value)

        monkeypatch.setattr(omexarchive.archive, name, counted)
    return calls


@pytest.fixture
def serializations(monkeypatch):
    return _counted(monkeypatch, "serialize_manifest", "serialize_metadata")


@pytest.fixture
def parses(monkeypatch):
    """The bytes of each parse_metadata call made through the archive module."""
    return _counted(monkeypatch, "parse_metadata")["parse_metadata"]


def test_edits_leave_the_manifest_unwritten(serializations):
    archive = _sized(50)
    archive = add_entry(archive, "new.xml", SBML, b"<sbml/>")
    archive = remove_entry(archive, "d0/f0.txt")
    archive = set_metadata(archive, _with_description(archive, ".", "edited"))
    assert serializations["serialize_manifest"] == []
    data = archive.to_bytes()
    assert archive.to_bytes() == data
    read = {e.path: e.data for e in archive.container.entries}
    assert read["manifest.xml"] == archive.container.get("manifest.xml")
    assert len(serializations["serialize_manifest"]) == 1
    assert open_archive(data) == archive


def test_edits_leave_the_metadata_unwritten(serializations):
    archive = _sized(50)
    archive = set_metadata(archive, _with_description(archive, "d0/f0.txt", "zero"))
    archive = add_entry(archive, "new.xml", SBML, b"<sbml/>")
    archive = remove_entry(archive, "d0/f0.txt")  # a described path: its block goes too
    assert archive.metadata.get("d0/f0.txt") is None
    archive = set_metadata(archive, _with_description(archive, ".", "edited"))
    assert serializations["serialize_metadata"] == []
    data = archive.to_bytes()
    assert archive.to_bytes() == data
    assert serializations["serialize_metadata"] == [archive.metadata]
    reopened = open_archive(data)
    assert reopened == archive
    assert reopened.metadata.get(".").description == "edited"


def test_an_edit_chain_writes_the_metadata_once(serializations):
    archive = set_metadata(create_archive([("model.xml", SBML, True, b"<sbml/>")]), _stamp())
    archive.to_bytes()
    archive = add_entry(archive, "notes.txt", TEXT, b"notes")
    archive.to_bytes()
    archive.to_bytes()
    archive = remove_entry(archive, "notes.txt")
    data = archive.to_bytes()
    # each archive holds the metadata member of the one it came from
    assert len(serializations["serialize_metadata"]) == 1
    assert len(serializations["serialize_manifest"]) == 3
    assert open_archive(data) == archive


def test_reading_the_container_writes_nothing(tmp_path):
    archive = create_archive([("model.xml", SBML, True, b"<sbml/>")])
    meta = MetadataSet()
    meta.add(DescriptionBlock(about=".", description="bad\x01text"))
    edited = set_metadata(archive, meta)
    assert edited.container.paths() == ["model.xml", "metadata.rdf", "manifest.xml"]
    # text outside XML 1.0 is refused where the metadata file's bytes are needed
    for use in (edited.to_bytes, lambda: {e.path: e.data for e in edited.container.entries},
                lambda: edited == archive,
                lambda: extract_all(edited, tmp_path / "out")):
        with pytest.raises(InvalidMetadata, match="not allowed in XML"):
            use()
    assert not (tmp_path / "out").exists()


def test_set_metadata_keeps_the_manifest_it_read(golden_archive_bytes, serializations):
    # the golden manifest is laid out unlike serialize_manifest's output
    opened = open_archive(golden_archive_bytes)
    updated = set_metadata(opened, _with_description(opened, ".", "new"))
    assert updated.container.get("manifest.xml") == opened.container.get("manifest.xml")
    reopened = open_archive(updated.to_bytes())
    assert reopened.container.get("manifest.xml") == opened.container.get("manifest.xml")
    assert reopened.metadata.get(".").description == "new"
    assert serializations["serialize_manifest"] == []
    # an edit that changes the entries writes the manifest anew
    grown = add_entry(updated, "extra.txt", TEXT, b"x")
    assert grown.container.get("manifest.xml") != opened.container.get("manifest.xml")
    assert len(serializations["serialize_manifest"]) == 1


def test_set_metadata_lists_an_unlisted_metadata_file():
    manifest = (f'<omexManifest xmlns="{MANIFEST_NS}">'
                f'<content location="." format="{OMEX_FORMAT_URI}"/></omexManifest>').encode()
    opened = open_archive(raw_zip([("manifest.xml", manifest), ("metadata.rdf", b"<x/>")]))
    updated = set_metadata(opened, _stamp())
    assert updated.manifest.find("metadata.rdf").format == OMEX_METADATA_FORMAT_URI
    assert open_archive(updated.to_bytes()) == updated


def _reopens_as_it_is(archive):
    reopened = open_archive(archive.to_bytes())
    assert reopened == archive
    assert reopened.metadata == archive.metadata


def test_adding_a_metadata_file_gives_the_archive_its_metadata():
    plain = create_archive([("a.txt", TEXT, False, b"x")])
    added = add_entry(plain, "x.rdf", OMEX_METADATA_FORMAT_URI, _described("in x.rdf"))
    assert added.metadata_path == "x.rdf"
    assert added.metadata.get(".").description == "in x.rdf"
    _reopens_as_it_is(added)


def test_removing_the_first_metadata_file_reads_the_next():
    both = add_entry(set_metadata(create_archive([("a.txt", TEXT, False, b"x")]), _stamp()),
                     "x.rdf", OMEX_METADATA_FORMAT_URI, _described("in x.rdf"))
    assert both.metadata_path == "metadata.rdf" and both.metadata == _stamp()
    left = remove_entry(both, "metadata.rdf")
    assert left.metadata_path == "x.rdf"
    assert left.metadata.get(".").description == "in x.rdf"
    _reopens_as_it_is(left)


def test_set_metadata_writes_the_file_the_manifest_lists():
    listed = create_archive([("x.rdf", OMEX_METADATA_FORMAT_URI, False, _described("old"))])
    written = set_metadata(listed, _stamp())
    assert written.metadata_path == "x.rdf" and "metadata.rdf" not in written.container
    assert written.metadata == _stamp()
    _reopens_as_it_is(written)


def test_set_metadata_writes_a_listed_file_the_container_lacks():
    listed = Archive(Container(), Manifest((ContentEntry(".", OMEX_FORMAT_URI),
                                            ContentEntry("x.rdf", OMEX_METADATA_FORMAT_URI))))
    for metadata in (_stamp(), MetadataSet()):  # the manifest goes in though it is unchanged
        written = set_metadata(listed, metadata)
        assert written.container.paths() == ["x.rdf", "manifest.xml"]
        assert written.manifest is listed.manifest
        assert written.metadata == metadata
        _reopens_as_it_is(written)


def test_the_manifest_is_never_the_metadata_file(golden_files):
    manifest = golden_files["manifest.xml"]
    assert manifest.count(b'location="metadata.rdf"') == 1
    golden_files["manifest.xml"] = manifest.replace(b'location="metadata.rdf"',
                                                    b'location="manifest.xml"')
    opened = open_archive(raw_zip(golden_files.items()))
    assert opened.metadata_path == "metadata.rdf" and opened.metadata_error is None
    _reopens_as_it_is(set_metadata(opened, _stamp()))


def test_removing_a_self_described_metadata_file_leaves_no_metadata():
    meta = _stamp()
    meta.add(DescriptionBlock(about="metadata.rdf", description="this file"))
    archive = set_metadata(create_archive([("model.xml", SBML, True, b"<sbml/>")]), meta)
    trimmed = remove_entry(archive, "metadata.rdf")
    assert "metadata.rdf" not in trimmed.container
    assert trimmed.manifest.find("metadata.rdf") is None
    assert trimmed.metadata_path is None and trimmed.metadata is None
    _reopens_as_it_is(trimmed)


def test_an_edit_chain_parses_the_metadata_once(golden_archive_bytes, parses):
    opened = archive = open_archive(golden_archive_bytes)
    for i in range(20):
        archive = add_entry(archive, f"added/{i}.txt", TEXT, b"%d" % i)
    for i in range(20):
        archive = remove_entry(archive, f"added/{i}.txt")
    assert archive.metadata is opened.metadata
    assert len(parses) == 1


def test_an_edit_leaves_an_unread_metadata_file_unparsed(parses):
    archive = create_archive([("metadata.rdf", OMEX_METADATA_FORMAT_URI, False,
                               _described("unread"))])
    edited = add_entry(archive, "n.txt", TEXT, b"n")
    assert parses == []
    assert edited.metadata.get(".").description == "unread"
    assert len(parses) == 1


def test_packing_a_metadata_file_leaves_it_unparsed(tmp_path, golden_files, parses):
    for path, data in golden_files.items():
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_bytes(data)
    archive = pack_directory(tmp_path)
    archive.to_bytes()
    assert archive.metadata_path == "metadata.rdf"
    assert parses == []


def test_edit_cost_does_not_grow_with_archive_size(monkeypatch):
    """One edit makes as many checks and Python calls on 1,000 entries as on 10."""
    locations = []
    check = omexarchive.manifest.check_location

    def counted(location):
        locations.append(location)
        return check(location)

    monkeypatch.setattr(omexarchive.manifest, "check_location", counted)

    def cost(edit, archive):
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        del locations[:]
        # a collection may run Python gc callbacks (hypothesis adds one), whose
        # calls are not the edit's; with it off, every call counted is the edit's
        collecting = gc.isenabled()
        gc.disable()
        sys.setprofile(profile)
        try:
            edit(archive)
        finally:
            sys.setprofile(None)
            if collecting:
                gc.enable()
        return len(locations), calls

    small, large = _sized(10), _sized(1000)
    for edit in (lambda a: add_entry(a, "d3/new.txt", TEXT, b"new"),
                 lambda a: remove_entry(a, "d3/f3.txt")):
        assert cost(edit, large) == cost(edit, small)


def _seeded_session(seed: int, edits: int):
    """A fixed mix of adds, removes, metadata edits and reopenings."""
    rng = random.Random(seed)
    archive = set_metadata(create_archive([("model.xml", SBML, True, b"<sbml/>")]), _stamp())
    live = ["model.xml"]
    for step in range(edits):
        roll = rng.random()
        if roll < 0.25 and live:
            location = live.pop(rng.randrange(len(live)))
            archive = remove_entry(archive, location)
        elif roll < 0.35:
            about = rng.choice(live + ["."])
            archive = set_metadata(archive, _with_description(archive, about, f"step {step}"))
        elif roll < 0.4:
            archive = open_archive(archive.to_bytes())
        else:
            location = f"d{rng.randrange(4)}/s{rng.randrange(3)}/f%20{step}.txt"
            archive = add_entry(archive, location, rng.choice([TEXT, SBML]),
                                rng.randbytes(rng.randrange(300)), rng.choice([None, False]))
            live.append(location)
    return archive


def test_seeded_session_writes_what_it_always_wrote():
    # the digest of this output before manifest.xml became derived
    data = _seeded_session(seed=6, edits=300).to_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "8589c38e21672944ecc3db4c3e20065be5ef3ffeebe8ce641add37cd24376097")


_NAMES = ["a", "a/b", "b/c.txt", "c%20d.xml", "metadata.rdf", "e/f/g"]
_EDITS = st.lists(st.one_of(
    st.tuples(st.just("add"), st.sampled_from(_NAMES), st.binary(max_size=16)),
    st.tuples(st.just("remove"), st.sampled_from(_NAMES)),
    st.tuples(st.just("meta"), st.sampled_from([".", *_NAMES]),
              st.text(alphabet="xyz<&\"'", max_size=6)),
    st.tuples(st.just("rdf"), st.sampled_from(["x.rdf", "metadata.rdf"]),
              st.text(alphabet="xyz<&\"'", max_size=6)),
    st.tuples(st.just("reopen")),
), max_size=14)


def _described(text: str) -> bytes:
    """A metadata file describing the archive as `text`."""
    return serialize_metadata(MetadataSet({".": DescriptionBlock(about=".", description=text)}))


def _edited(archive, edit):
    if edit[0] == "add":
        return add_entry(archive, edit[1], TEXT, edit[2])
    if edit[0] == "remove":
        return remove_entry(archive, edit[1])
    if edit[0] == "meta":
        return set_metadata(archive, _with_description(archive, *edit[1:]))
    if edit[0] == "rdf":
        return add_entry(archive, edit[1], OMEX_METADATA_FORMAT_URI, _described(edit[2]))
    return open_archive(archive.to_bytes())


@settings(max_examples=150, deadline=None)
@given(edits=_EDITS, opened=st.booleans())
def test_edits_never_change_an_earlier_archive(edits, opened):
    archive = set_metadata(create_archive([("b/c.txt", TEXT, False, b"c")]), _stamp())
    if opened:
        archive = open_archive(archive.to_bytes())
    history = [(archive, archive.to_bytes())]
    for step, edit in enumerate(edits):
        try:
            archive = _edited(archive, edit)
        except OmexError:
            continue  # a refused edit, such as a file under a file
        # every other archive is first written after all later edits
        history.append((archive, archive.to_bytes() if step % 2 else None))
    for earlier, data in history:
        written = earlier.to_bytes()
        assert data is None or written == data
        reopened = open_archive(written)
        assert reopened == earlier
        assert reopened.metadata == earlier.metadata


@settings(max_examples=150, deadline=None)
@given(edits=_EDITS)
def test_the_container_holds_every_member_after_every_edit(edits):
    manifest = (f'<omexManifest xmlns="{MANIFEST_NS}">'
                f'<content location="." format="{OMEX_FORMAT_URI}"/>'
                f'<content location="b/c.txt" format="{TEXT}"/></omexManifest>').encode()
    archive = open_archive(raw_zip([("manifest.xml", manifest), ("b/c.txt", b"c"),
                                    ("unlisted.txt", b"u")]))
    for edit in edits:
        try:
            archive = _edited(archive, edit)
        except OmexError:
            continue
        listed = {entry.path for entry in archive.manifest.entries} - {"."}
        assert set(archive.container.paths()) == {"manifest.xml", "unlisted.txt", *listed}


# No two files here differ only in case: the first of such a pair depends on
# container order, which an edit keeps and a reopened archive has sorted.
_NESTED = ["a", "a/x", "a/x/y", "A/y", "b", "b/c", "b/c/d", "manifest.xml/x"]


@settings(max_examples=150, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(["add", "remove"]), st.sampled_from(_NESTED)),
                      max_size=12))
@example(edits=[("remove", "a/x")])  # `a` holds no member after it, so no longer clashes
def test_the_container_counts_directories_as_a_reopened_archive_does(edits):
    manifest = (f'<omexManifest xmlns="{MANIFEST_NS}">'
                f'<content location="." format="{OMEX_FORMAT_URI}"/>'
                f'<content location="a" format="{TEXT}"/>'
                f'<content location="a/x" format="{TEXT}"/></omexManifest>').encode()
    archive = open_archive(raw_zip([("manifest.xml", manifest), ("a", b"1"), ("a/x", b"2")]))
    assert [clash[:2] for clash in archive.container.clashes()] == [("shared-path", "a")]
    for action, path in edits:
        taken = archive.container.paths()
        if action == "remove":
            if path not in taken:
                continue
            archive = remove_entry(archive, path)
        elif path not in taken:
            # found afresh: a member under `path`, or a member above it
            shared = any(p.startswith(path + "/") or path.startswith(p + "/") for p in taken)
            try:
                archive = add_entry(archive, path, TEXT, b"x")
            except InvalidLocation:
                assert shared
                continue
            assert not shared
        assert archive.container.clashes() == open_archive(archive.to_bytes()).container.clashes()
