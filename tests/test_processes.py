"""Errors and archives cross a process boundary: a worker's refusal arrives as
the error it raised, and a worker's archive as the archive it built."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from omexarchive import (
    ContentEntry,
    Finding,
    FormatClass,
    Manifest,
    MetadataSet,
    Severity,
    ValidationReport,
    add_entry,
    classify_format,
    create_archive,
    open_archive,
    parse_manifest,
    remove_entry,
    set_metadata,
    write_container,
)
from omexarchive.archive import pack_directory
from omexarchive.errors import MissingAttribute
from omexarchive.formats import COMBINE_PREFIX
from omexarchive.manifest import OMEX_FORMAT_URI
from omexarchive.metadata import DescriptionBlock

from conftest import GOLDEN_FILES, build_container

NO_FORMAT = (b'<omexManifest xmlns="http://identifiers.org/combine.specifications/'
             b'omex-manifest"><content location="."/></omexManifest>')


def _read(data: bytes):
    """The archive of `data` once its metadata has been read."""
    archive = open_archive(data)
    assert archive.metadata is not None
    return archive


def _made_twice(make, *args):
    """What `make(*args)` returns, as it was built, and the bytes of a second one."""
    return make(*args), make(*args).to_bytes()


def test_errors_and_archives_cross_a_process_boundary(tmp_path):
    golden = write_container(build_container(GOLDEN_FILES))
    for path, data in GOLDEN_FILES.items():
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_bytes(data)
    model = create_archive([("model.xml", COMBINE_PREFIX + "sbml", True, b"<sbml/>")])
    metadata = MetadataSet({".": DescriptionBlock(about=".", description="sent")})
    calls = [
        (create_archive, [("a.txt", COMBINE_PREFIX + "sbml", False, b"a")]),
        (add_entry, open_archive(golden), "added.txt", COMBINE_PREFIX + "sbml", b"added"),
        (remove_entry, open_archive(golden), "doc/article.pdf"),
        (set_metadata, model, metadata),
        (pack_directory, tmp_path),
        (_read, golden),
    ]
    # spawn, not fork: a forked worker may warn, and warnings fail the suite
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        with pytest.raises(MissingAttribute) as refusal:
            pool.submit(parse_manifest, NO_FORMAT).result(timeout=60)
        assert (refusal.value.entry_index, refusal.value.attribute) == (0, "format")
        for make, *args in calls:
            sent, data = pool.submit(_made_twice, make, *args).result(timeout=60)
            here = make(*args)
            assert (sent, sent.metadata) == (here, here.metadata), make.__name__
            assert sent.to_bytes() == data == here.to_bytes(), make.__name__


def _returned(value):
    return value


def test_records_cross_a_process_boundary():
    entry = ContentEntry("models/a%20b.xml", COMBINE_PREFIX + "sbml", True)
    manifest = Manifest([ContentEntry(".", OMEX_FORMAT_URI), entry])
    finding = Finding(Severity.WARNING, "unlisted-file", "a.txt", "unlisted")
    archive = create_archive([("model.xml", COMBINE_PREFIX + "sbml", True, b"<sbml/>")])
    values = [entry, manifest, finding, classify_format(COMBINE_PREFIX + "sbml"),
              FormatClass(classify_format("not a uri").kind, "not a uri"),
              ValidationReport([finding]), archive]
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        sent = list(pool.map(_returned, values, timeout=60))
    assert [type(value) for value in sent] == [type(value) for value in values]
    assert sent == values
    assert sent[0].path == "models/a b.xml"
    assert sent[1].find("models/a b.xml") == entry and sent[1].metadata_path is None
    assert sent[-1].to_bytes() == archive.to_bytes()
