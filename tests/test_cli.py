import ast
import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import os
import random
import stat
import subprocess
import sys
import threading
import tracemalloc
import zipfile
import zlib
from pathlib import Path

import pytest

import omexarchive
import omexarchive.cli
import omexarchive.metadata
from omexarchive import (
    create_archive,
    open_archive,
    set_metadata,
    validate_archive,
    write_container,
)
from omexarchive.cli import main, parse_creator
from omexarchive.errors import CorruptEntry
from omexarchive.metadata import Creator, DescriptionBlock

from conftest import (
    FOREIGN_MANIFESTS,
    GOLDEN_FILES,
    UNMODELLED_METADATA,
    build_container,
    declaring,
)


@pytest.fixture
def fixture_dir(tmp_path, golden_files):
    src = tmp_path / "src"
    for path, data in golden_files.items():
        if path in ("manifest.xml", "metadata.rdf"):
            continue
        target = src / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)
    return src


@pytest.fixture
def golden_archive_file(tmp_path, golden_archive_bytes):
    path = tmp_path / "golden.omex"
    path.write_bytes(golden_archive_bytes)
    return path


def test_parse_creator():
    assert parse_creator("Nicolas Le Novere <lenov@babraham.ac.uk>") == Creator(
        family_name="Novere", given_name="Nicolas Le",
        email="lenov@babraham.ac.uk",
    )
    assert parse_creator("Doe") == Creator(family_name="Doe")
    with pytest.raises(ValueError):
        parse_creator("<>")


@pytest.mark.parametrize("text", ["<>", " < > ", "<  >"])
def test_a_creator_that_names_no_one_is_refused_as_given(fixture_dir, tmp_path, capsys, text):
    out = tmp_path / "out.omex"
    assert main(["pack", str(fixture_dir), str(out), "--creator", text]) == 2
    assert capsys.readouterr().err == f"error: cannot parse creator: {text!r}\n"
    assert not out.exists()


def test_pack_golden_fixture(fixture_dir, tmp_path, capsys):
    out = tmp_path / "out.omex"
    code = main([
        "pack", str(fixture_dir), str(out),
        "--master", "simulation.xml",
        "--format", "models/model.xml=http://identifiers.org/combine.specifications/sbml",
        "--format", "simulation.xml=http://identifiers.org/combine.specifications/sed-ml",
        "--no-stamp",
    ])
    assert code == 0
    written = capsys.readouterr().out.strip()
    # SED-ML content selects .sedx under --ext auto
    assert written.endswith(".sedx")
    archive = open_archive((tmp_path / "out.sedx").read_bytes())
    masters = [e.path for e in archive.manifest.entries if e.master]
    assert masters == ["simulation.xml"]


def test_pack_empty_directory(tmp_path, capsys):
    src = tmp_path / "empty"
    src.mkdir()
    out = tmp_path / "a.omex"
    assert main(["pack", str(src), str(out), "--no-stamp"]) == 0
    capsys.readouterr()
    archive = open_archive((tmp_path / "a.omex").read_bytes())
    assert [e.location for e in archive.manifest.entries] == ["."]


def test_pack_missing_directory(tmp_path, capsys):
    assert main(["pack", str(tmp_path / "nope"), str(tmp_path / "x.omex")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("item", ["models/model.xml", "models/model.xml="])
def test_pack_refuses_a_format_that_is_not_location_equals_uri(item, fixture_dir, tmp_path,
                                                               capsys):
    out = tmp_path / "x.omex"
    assert main(["pack", str(fixture_dir), str(out), "--format", item]) == 2
    assert capsys.readouterr().err == f"error: --format expects LOCATION=URI, got {item!r}\n"
    assert not out.exists()


def test_pack_refuses_a_link_in_the_tree_before_writing(fixture_dir, tmp_path, capsys):
    (tmp_path / "secret.txt").write_bytes(b"secret")
    try:
        os.symlink(tmp_path / "secret.txt", fixture_dir / "link.txt")
    except (NotImplementedError, OSError) as exc:
        pytest.skip(f"this system cannot make a link: {exc!r}")
    out = tmp_path / "x.omex"
    assert main(["pack", str(fixture_dir), str(out), "--no-stamp"]) == 2
    assert capsys.readouterr().err == ("error: unsafe path 'link.txt': "
                                       "a link, FIFO, socket or device is not packed\n")
    assert not out.exists()


def test_pack_determinism(fixture_dir, tmp_path, capsys):
    a, b = tmp_path / "a.omex", tmp_path / "b.omex"
    for out in (a, b):
        assert main(["pack", str(fixture_dir), str(out),
                     "--no-stamp", "--ext", "omex"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_pack_unpack_round_trip(fixture_dir, tmp_path, capsys):
    out = tmp_path / "rt.omex"
    assert main(["pack", str(fixture_dir), str(out),
                 "--no-stamp", "--ext", "omex"]) == 0
    dest = tmp_path / "unpacked"
    assert main(["unpack", str(out), str(dest)]) == 0
    capsys.readouterr()
    for path in fixture_dir.rglob("*"):
        if path.is_file():
            rel = path.relative_to(fixture_dir)
            assert (dest / rel).read_bytes() == path.read_bytes()


def test_a_random_file_is_packed_stored_and_kept_stored(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    blob = random.Random(17).randbytes(1 << 20)
    (src / "blob.bin").write_bytes(blob)
    (src / "notes.txt").write_bytes(b"notes on the run\n" * 100)
    a, b = tmp_path / "a.omex", tmp_path / "b.omex"
    for out in (a, b):
        assert main(["pack", str(src), str(out), "--no-stamp", "--ext", "omex"]) == 0
    assert a.read_bytes() == b.read_bytes()

    def info(name):
        with zipfile.ZipFile(a) as zf:
            return zf.getinfo(name)

    packed = info("blob.bin")
    assert packed.compress_type == zipfile.ZIP_STORED
    assert info("notes.txt").compress_type == zipfile.ZIP_DEFLATED
    assert main(["meta", str(a), "set", "--description", "random bytes"]) == 0
    kept = info("blob.bin")
    assert ((kept.compress_type, kept.compress_size, kept.file_size, kept.CRC)
            == (zipfile.ZIP_STORED, packed.compress_size, packed.file_size, packed.CRC))
    dest = tmp_path / "dest"
    assert main(["unpack", str(a), str(dest)]) == 0
    capsys.readouterr()
    assert (dest / "blob.bin").read_bytes() == blob


@pytest.mark.parametrize("command", ["list", "unpack"])
def test_list_and_unpack_leave_a_member_read_stored_uncopied(tmp_path, capsys, command):
    src = tmp_path / "src"
    src.mkdir()
    blob = random.Random(19).randbytes(4 << 20)
    (src / "blob.bin").write_bytes(blob)
    archive = tmp_path / "a.omex"
    assert main(["pack", str(src), str(archive), "--no-stamp", "--ext", "omex"]) == 0
    dest = tmp_path / "dest"
    args = {"list": ["list", str(archive), "--json"],
            "unpack": ["unpack", str(archive), str(dest)]}[command]
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    # beyond the archive's own bytes, read from its file
    assert peak - archive.stat().st_size < 1 << 20, peak
    if command == "list":
        sizes = {row["location"]: row["size"] for row in json.loads(out)["entries"]}
        assert sizes["blob.bin"] == len(blob)
    else:
        assert (dest / "blob.bin").read_bytes() == blob


@pytest.mark.parametrize("command", ["list", "validate", "meta", "unpack"])
def test_commands_inflate_a_long_deflated_member_a_step_at_a_time(tmp_path, capsys, command):
    src = tmp_path / "src"
    src.mkdir()
    rows = (b"%d,%d,%d\n" % (i % 100, i % 100 * 2, i % 100 * 3) for i in range(600_000))
    table = b"".join(rows)[:4 << 20]  # deflates to about 21 KB
    (src / "table.csv").write_bytes(table)
    archive = tmp_path / "a.omex"
    assert main(["pack", str(src), str(archive), "--no-stamp", "--ext", "omex"]) == 0
    with zipfile.ZipFile(archive) as zf:
        assert zf.getinfo("table.csv").compress_type == zipfile.ZIP_DEFLATED
    dest = tmp_path / "dest"
    args = {"list": ["list", str(archive), "--json"],
            "validate": ["validate", str(archive), "--json"],
            "meta": ["meta", str(archive), "set", "--description", "a table"],
            "unpack": ["unpack", str(archive), str(dest)]}[command]
    size = archive.stat().st_size
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(args) in (0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    # beyond the archive's own bytes, read from its file (meta set also holds
    # the archive it writes, as small)
    assert peak - size < 1 << 20, peak
    if command == "list":
        sizes = {row["location"]: row["size"] for row in json.loads(out)["entries"]}
        assert sizes["table.csv"] == len(table)
    elif command == "unpack":
        assert (dest / "table.csv").read_bytes() == table
    else:
        assert open_archive(archive.read_bytes()).container.get("table.csv") == table


def test_pack_unpack_keeps_percent_and_space_names(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a%41.txt").write_bytes(b"percent")
    (src / "a b.xml").write_bytes(b"<space/>")
    out = tmp_path / "p.omex"
    assert main(["pack", str(src), str(out), "--no-stamp", "--ext", "omex",
                 "--master", "a%2541.txt"]) == 0
    archive = open_archive(out.read_bytes())
    assert {e.location: e.master for e in archive.manifest.entries} == {
        ".": None, "a%2541.txt": True, "a b.xml": None,
    }
    dest = tmp_path / "dest"
    assert main(["unpack", str(out), str(dest)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in dest.iterdir()) == ["a b.xml", "a%41.txt", "manifest.xml"]
    assert (dest / "a%41.txt").read_bytes() == b"percent"


def test_unpack_finds_the_clashes_once(golden_archive_file, tmp_path, monkeypatch, capsys):
    calls = []
    clashes = omexarchive.Container.clashes
    monkeypatch.setattr(omexarchive.Container, "clashes",
                        lambda self: calls.append(self) or clashes(self))
    assert main(["unpack", str(golden_archive_file), str(tmp_path / "dest")]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_unpack_bad_archive(tmp_path, capsys):
    bogus = tmp_path / "bogus.omex"
    bogus.write_text("not a zip")
    assert main(["unpack", str(bogus), str(tmp_path / "d")]) == 2
    capsys.readouterr()


def test_list_json_matches_model(golden_archive_file, capsys):
    assert main(["list", str(golden_archive_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schemaVersion"] == 1
    archive = open_archive(golden_archive_file.read_bytes())
    expected = {
        (e.path, e.format, bool(e.master))
        for e in archive.manifest.entries
    }
    got = {(r["location"], r["format"], r["master"]) for r in payload["entries"]}
    assert got == expected
    sizes = {r["location"]: r["size"] for r in payload["entries"]}
    assert sizes["."] is None
    assert sizes["simulation.xml"] == len(
        archive.container.get("simulation.xml")
    )


def test_list_plain_output(golden_archive_file, capsys):
    assert main(["list", str(golden_archive_file)]) == 0
    out = capsys.readouterr().out
    assert "simulation.xml" in out


def test_validate_strict_golden(golden_archive_file, capsys):
    assert main(["validate", "--strict", str(golden_archive_file)]) == 0
    out = capsys.readouterr().out
    assert "missing-modified" in out


def test_validate_json_schema_stable(golden_archive_file, capsys):
    assert main(["validate", "--json", str(golden_archive_file)]) == 0
    first = capsys.readouterr().out
    assert main(["validate", "--json", str(golden_archive_file)]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["schemaVersion"] == 1
    assert payload["mode"] == "strict"
    assert payload["errors"] == 0


def test_validate_text_file(tmp_path, capsys):
    textfile = tmp_path / "plain.txt"
    textfile.write_text("hello")
    assert main(["validate", str(textfile)]) == 1
    assert "not-a-zip" in capsys.readouterr().out


def test_info_golden(golden_archive_file, capsys):
    assert main(["info", str(golden_archive_file)]) == 0
    out = capsys.readouterr().out
    assert "Recon 2.1" in out
    assert "lenov@babraham.ac.uk" in out
    assert "2014-06-26T10:29:00Z" in out
    assert "http://identifiers.org/arxiv/1311.5696" in out


def test_info_says_when_an_archive_has_no_metadata(fixture_dir, tmp_path, capsys):
    out = tmp_path / "bare.omex"
    assert main(["pack", str(fixture_dir), str(out), "--no-stamp"]) == 0
    capsys.readouterr()
    assert main(["info", str(out)]) == 0
    assert capsys.readouterr().out == "no metadata\n"


def test_meta_touch_appends(golden_archive_file, capsys):
    assert main(["meta", str(golden_archive_file), "set", "--touch"]) == 0
    assert main(["meta", str(golden_archive_file), "set", "--touch"]) == 0
    capsys.readouterr()
    archive = open_archive(golden_archive_file.read_bytes())
    assert len(archive.metadata.get(".").modified) == 2
    # the golden archive now satisfies the minimum-information rule
    assert main(["validate", str(golden_archive_file)]) == 0
    assert "0 error(s), 0 warning(s)" in capsys.readouterr().out


def test_meta_set_creator_and_description(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "m.sbml").write_bytes(b"<sbml/>")
    out = tmp_path / "m.omex"
    assert main(["pack", str(src), str(out), "--no-stamp", "--ext", "omex"]) == 0
    assert main(["meta", str(out), "set", "--description", "test case",
                 "--creator", "Jane Doe <jane@example.org>"]) == 0
    capsys.readouterr()
    archive = open_archive(out.read_bytes())
    block = archive.metadata.get(".")
    assert block.description == "test case"
    assert block.creators == [Creator(family_name="Doe", given_name="Jane",
                                      email="jane@example.org")]


@pytest.mark.parametrize("name", sorted(FOREIGN_MANIFESTS))
def test_meta_set_edits_what_lenient_validation_accepts(name, tmp_path, golden_files,
                                                        capsys):
    path = tmp_path / "foreign.omex"
    files = dict(golden_files, **{"manifest.xml": FOREIGN_MANIFESTS[name]})
    path.write_bytes(write_container(build_container(files)))
    assert main(["validate", str(path), "--lenient"]) == 0
    assert main(["meta", str(path), "set", "--touch"]) == 0
    capsys.readouterr()
    archive = open_archive(path.read_bytes())
    assert len(archive.metadata.get(".").modified) == 1
    assert archive.manifest.find(".") is not None


def test_meta_set_leaves_the_opened_metadata_as_it_was(golden_archive_file, monkeypatch,
                                                       capsys):
    before = open_archive(golden_archive_file.read_bytes()).metadata
    edited = []

    def spy(archive, metadata):
        edited.append(archive)
        return set_metadata(archive, metadata)

    monkeypatch.setattr(omexarchive.cli, "set_metadata", spy)
    assert main(["meta", str(golden_archive_file), "set", "--touch",
                 "--description", "new", "--creator", "Jane Doe"]) == 0
    assert edited[0].metadata == before


# the command in a child that may write no file beyond 100,000 bytes; with
# SIGXFSZ ignored, a longer write fails with EFBIG instead of killing it
_LIMITED = ("import resource, signal, sys\n"
            "from omexarchive.cli import main\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, 100_000))\n"
            "sys.exit(main(sys.argv[1:]))\n")


@pytest.mark.parametrize("command", ["meta", "pack"])
def test_a_write_that_fails_midway_leaves_the_archive_as_it_was(command, tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "blob.bin").write_bytes(random.Random(1).randbytes(200_000))
    path = tmp_path / "a.omex"
    assert main(["pack", str(src), str(path), "--no-stamp", "--ext", "omex"]) == 0
    before = hashlib.sha256(path.read_bytes()).hexdigest()
    args = (["meta", str(path), "set", "--touch"] if command == "meta"
            else ["pack", str(src), str(path), "--ext", "omex"])
    root = Path(omexarchive.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", _LIMITED, *args], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=str(root)))
    assert (result.returncode, result.stderr[:7]) == (2, "error: ")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.omex", "src"]


@pytest.mark.parametrize("command", ["pack", "meta"])
def test_a_write_into_a_missing_directory_names_the_output(command, fixture_dir, tmp_path,
                                                           capsys):
    out = tmp_path / "no" / "such" / "out.omex"
    args = (["meta", str(out), "set", "--touch"] if command == "meta"
            else ["pack", str(fixture_dir), str(out.with_suffix("")), "--ext", "omex"])
    assert main(args) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(out)!r}\n")
    assert not (tmp_path / "no").exists()


def test_a_directory_at_the_output_is_refused_before_a_byte_is_written(fixture_dir, tmp_path,
                                                                      capsys):
    # its mode was copied onto the new file, and the rename's error named that file
    out = tmp_path / "out.omex"
    out.mkdir(mode=0o700)
    assert main(["pack", str(fixture_dir), str(tmp_path / "out"), "--ext", "omex"]) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(out)!r}\n")
    assert out.is_dir() and not list(out.iterdir())
    assert stat.S_IMODE(out.stat().st_mode) == 0o700
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.omex", "src"]


def test_a_rename_that_fails_names_the_output(fixture_dir, tmp_path, monkeypatch, capsys):
    # a directory made at the output while the archive is written
    out = tmp_path / "out.omex"
    write = omexarchive.archive.Archive.write

    def write_then_make_a_directory(archive, file):
        write(archive, file)
        out.mkdir()
    monkeypatch.setattr(omexarchive.archive.Archive, "write", write_then_make_a_directory)
    assert main(["pack", str(fixture_dir), str(tmp_path / "out"), "--ext", "omex"]) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(out)!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.omex", "src"]


def test_written_archives_keep_the_mode_of_the_file_they_replace(fixture_dir, tmp_path,
                                                                 capsys):
    path = tmp_path / "a.omex"
    umask = os.umask(0o077)
    try:  # a new file gets the umask default
        assert main(["pack", str(fixture_dir), str(path), "--ext", "omex"]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    path.chmod(0o640)
    assert main(["meta", str(path), "set", "--touch"]) == 0
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert len(open_archive(path.read_bytes()).metadata.get(".").modified) == 1


def test_meta_set_keeps_the_mode_where_chmod_takes_no_descriptor(fixture_dir, tmp_path,
                                                                  monkeypatch, capsys):
    # as on Windows: no os.fchmod before Python 3.13, and os.chmod takes a path only
    monkeypatch.delattr(os, "fchmod", raising=False)
    monkeypatch.setattr(os, "supports_fd", os.supports_fd - {os.chmod})
    path = tmp_path / "a.omex"
    assert main(["pack", str(fixture_dir), str(path), "--ext", "omex"]) == 0
    path.chmod(0o640)
    assert main(["meta", str(path), "set", "--touch", "--description", "new"]) == 0
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert open_archive(path.read_bytes()).metadata.get(".").description == "new"
    assert not list(tmp_path.glob(".*.tmp"))


def test_meta_set_refuses_text_outside_xml(golden_archive_file, capsys):
    before = golden_archive_file.read_bytes()
    assert main(["meta", str(golden_archive_file), "set",
                 "--description", "bad\x01text"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert golden_archive_file.read_bytes() == before


def test_meta_set_refuses_unreadable_metadata(tmp_path, golden_files, capsys):
    from conftest import build_container
    from omexarchive import write_container

    files = dict(golden_files)
    files["metadata.rdf"] = b"<rdf:RDF"
    path = tmp_path / "broken.omex"
    path.write_bytes(write_container(build_container(files)))
    before = path.read_bytes()
    assert main(["meta", str(path), "set", "--touch"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: metadata.rdf is unreadable: ")
    assert err.count("\n") == 1
    assert path.read_bytes() == before


def test_meta_set_keeps_what_the_model_does_not_hold(tmp_path, golden_files, capsys):
    path = tmp_path / "kept.omex"
    files = dict(golden_files, **{"metadata.rdf": UNMODELLED_METADATA})
    path.write_bytes(write_container(build_container(files)))
    before = open_archive(path.read_bytes()).metadata
    assert main(["meta", str(path), "set", "--touch"]) == 0
    after = open_archive(path.read_bytes())
    assert len(after.metadata.get(".").modified) == 1
    assert after.metadata == dataclasses.replace(before, blocks={
        ".": dataclasses.replace(before.get("."), modified=after.metadata.get(".").modified)})
    data = after.container.get("metadata.rdf")
    for text in (b"BIOMD0000000001", b"taxonomy/9606", b"<foaf:Person", b'xml:lang="en"',
                 b"XMLSchema#integer", b'<is rdf:resource="http://example.org/plain"/>'):
        assert text in data
    assert main(["meta", str(path), "show"]) == 0
    out = capsys.readouterr().out
    assert ("  http://biomodels.net/model-qualifiers/is: "
            "http://identifiers.org/biomodels.db/BIOMD0000000001 "
            "http://identifiers.org/taxonomy/9606\n") in out
    assert "  is: http://example.org/plain\n" in out
    assert "http://xmlns.com/foaf/0.1/Person: http://orcid.org/" in out


def test_meta_set_keeps_a_metadata_file_without_blocks(tmp_path, golden_files):
    path = tmp_path / "dataset.omex"
    rdf = (b'<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
           b' xmlns:ex="http://example.org/">'
           b'<ex:Dataset rdf:about="http://example.org/d1"/></rdf:RDF>')
    path.write_bytes(write_container(build_container(dict(golden_files, **{"metadata.rdf": rdf}))))
    before = open_archive(path.read_bytes()).metadata
    assert not before.blocks and len(before.kept) == 1
    assert main(["meta", str(path), "set", "--description", "hi"]) == 0
    after = open_archive(path.read_bytes())
    assert after.metadata == dataclasses.replace(
        before, blocks={".": DescriptionBlock(about=".", description="hi")})
    assert b'<ex:Dataset rdf:about="http://example.org/d1"/>' in after.container.get("metadata.rdf")


def test_meta_set_keeps_comments_and_processing_instructions(tmp_path, golden_files, capsys):
    path = tmp_path / "commented.omex"
    rdf = (b'<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
           b' xmlns:dcterms="http://purl.org/dc/terms/">\n'
           b'  <!-- curated by hand -->\n  <?review pending?>\n'
           b'  <rdf:Description rdf:about=".">\n'
           b'    <dcterms:description>kept<!-- inside -->as read</dcterms:description>\n'
           b'  </rdf:Description>\n</rdf:RDF>\n')
    path.write_bytes(write_container(build_container(dict(golden_files, **{"metadata.rdf": rdf}))))
    assert main(["meta", str(path), "set", "--touch"]) == 0
    data = open_archive(path.read_bytes()).container.get("metadata.rdf")
    for text in (b"<!-- curated by hand -->", b"<?review pending?>",
                 b"<dcterms:description>kept<!-- inside -->as read</dcterms:description>"):
        assert text in data
    assert main(["meta", str(path), "show"]) == 0
    out = capsys.readouterr().out
    assert "<!-- curated by hand -->\n<?review pending?>\n" in out
    assert "  http://purl.org/dc/terms/description: kept as read\n" in out


def test_meta_show_prints_mixed_content_whole(tmp_path, golden_files, capsys):
    path = tmp_path / "mixed.omex"
    rdf = (b'<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
           b' xmlns:dcterms="http://purl.org/dc/terms/" xmlns:ex="http://example.org/">'
           b'<rdf:Description rdf:about=".">'
           b'<dcterms:description>kept<!-- inside -->as read</dcterms:description>'
           b'<ex:note>one <ex:b>two<?pi skipped?></ex:b> three'
           b'<ex:c rdf:resource="http://example.org/r">four</ex:c>five</ex:note>'
           b'</rdf:Description></rdf:RDF>')
    path.write_bytes(write_container(build_container(dict(golden_files, **{"metadata.rdf": rdf}))))
    assert main(["meta", str(path), "show"]) == 0
    out = capsys.readouterr().out
    assert "  http://purl.org/dc/terms/description: kept as read\n" in out
    assert "  http://example.org/note: one two three http://example.org/r four five\n" in out


@pytest.mark.parametrize("command", [["info"], ["meta", "show"]])
def test_unreadable_metadata_is_named(command, tmp_path, golden_files, capsys):
    path = tmp_path / "unreadable.omex"
    path.write_bytes(write_container(build_container(
        dict(golden_files, **{"metadata.rdf": b"<x/>"}))))
    assert main([command[0], str(path), *command[1:]]) == 0
    assert capsys.readouterr().out == (
        "metadata-unreadable: root element 'x', expected rdf:RDF\n")


def test_meta_set_refuses_with_the_reason_the_open_kept(tmp_path, golden_files, capsys,
                                                        monkeypatch):
    path = tmp_path / "unreadable.omex"
    path.write_bytes(write_container(build_container(
        dict(golden_files, **{"metadata.rdf": b"<x/>"}))))
    parses = []
    parse = omexarchive.metadata.parse_metadata
    monkeypatch.setattr(omexarchive.metadata, "parse_metadata",
                        lambda data: parses.append(data) or parse(data))
    assert main(["meta", str(path), "set", "--touch"]) == 2
    assert capsys.readouterr().err == (
        "error: metadata.rdf is unreadable: root element 'x', expected rdf:RDF\n")
    assert parses == [b"<x/>"]


def test_meta_show(golden_archive_file, capsys):
    assert main(["meta", str(golden_archive_file), "show"]) == 0
    assert "Recon 2.1" in capsys.readouterr().out


def test_usage_error_exit_code(capsys):
    assert main(["definitely-not-a-command"]) == 2
    capsys.readouterr()


def test_bad_pack_creator_exits_2_with_one_line(fixture_dir, tmp_path, capsys):
    out = tmp_path / "x.omex"
    assert main(["pack", str(fixture_dir), str(out), "--creator", "<>"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["list"], ["unpack", "{dest}"], ["info"], ["meta", "show"]],
)
def test_unexpected_exception_exits_2(argv, golden_archive_file, tmp_path,
                                      capsys, monkeypatch):
    def broken_open(data, **private):  # unpack, info and meta show name what the open keeps
        raise RuntimeError("boom")

    monkeypatch.setattr(omexarchive.cli, "open_archive", broken_open)
    command, *rest = argv
    args = [command, str(golden_archive_file)]
    args += [a.format(dest=tmp_path / "dest") for a in rest]
    assert main(args) == 2
    assert capsys.readouterr().err == "error: boom\n"


@pytest.mark.parametrize("flags,modules", [
    # xml.sax.saxutils imports urllib.request, 40 ms of every command's start
    ([], ["urllib.request"]),
    # zipfile imports bz2, lzma, shutil and threading; the container needs none of
    # them to start. -S, as a site .pth file may import zipfile into any interpreter
    (["-S"], ["zipfile", "bz2", "lzma"]),
], ids=["urllib.request", "zipfile"])
def test_importing_the_cli_leaves_modules_unloaded(flags, modules):
    code = f"import sys, omexarchive.cli; print([m for m in {modules!r} if m in sys.modules])"
    src = Path(omexarchive.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                            text=True, check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert result.stdout.strip() == "[]"


# what list and unpack never run: the metadata module and what it imports, loaded
# where validate, info, meta and pack read or write metadata, getpass for pack's
# default creator, and mimetypes for pack's guesses of a file's format
_LAZY = ["omexarchive.metadata", "datetime", "getpass", "dataclasses", "inspect", "mimetypes"]


def test_list_and_unpack_import_only_what_they_run(golden_archive_file, tmp_path):
    code = """if True:
        import contextlib, io, json, sys
        import omexarchive.cli

        lazy, archive, dest = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]
        seen = {"import": [m for m in lazy if m in sys.modules]}
        for name, argv in [("list", ["list", "--json", archive]),
                           ("unpack", ["unpack", archive, dest]),
                           ("validate", ["validate", archive])]:
            with contextlib.redirect_stdout(io.StringIO()):
                code = omexarchive.cli.main(argv)
            seen[name] = code, [m for m in lazy if m in sys.modules]
        print(json.dumps(seen))
    """
    src = Path(omexarchive.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, json.dumps(_LAZY), str(golden_archive_file),
         str(tmp_path / "dest")],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    seen = json.loads(result.stdout)
    assert seen["import"] == []
    assert seen["list"] == [0, []]
    assert seen["unpack"] == [0, []]
    assert seen["validate"][0] in (0, 1) and "omexarchive.metadata" in seen["validate"][1]


# what a clean interpreter (-S, so no site hook imports them first) need not load:
# json for --json output, pathlib for paths pack and unpack make, urllib.parse and
# ipaddress for percent-escaped locations
_WATCHED = ["json", "pathlib", "urllib.parse", "ipaddress"]


@pytest.mark.parametrize("commands,absent", [
    ([["pack", "{tree}", "{out}"], ["unpack", "{out}", "{dest}"]], ["json"]),
    ([["list", "--json", "{archive}"]], ["pathlib"]),
], ids=["pack-unpack", "list"])
def test_json_and_pathlib_load_only_where_a_command_uses_them(commands, absent,
                                                              golden_archive_file, tmp_path):
    (tmp_path / "tree").mkdir()
    (tmp_path / "tree" / "model.xml").write_bytes(b"<sbml/>")
    names = {"tree": tmp_path / "tree", "out": tmp_path / "out.omex",
             "dest": tmp_path / "dest", "archive": golden_archive_file}
    argvs = [[arg.format(**names) for arg in argv] for argv in commands]
    code = f"""if True:
        import sys
        import omexarchive.cli
        loaded = lambda: [m for m in {_WATCHED!r} if m in sys.modules]
        seen = [loaded()]
        import contextlib, io
        for argv in {argvs!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                seen.append((omexarchive.cli.main(argv), loaded()))
        print(repr(seen))
    """
    src = Path(omexarchive.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                            check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    imported, *ran = ast.literal_eval(result.stdout)
    assert imported == []
    assert [exit_code for exit_code, _ in ran] == [0] * len(commands)
    assert [set(absent) & set(loaded) for _, loaded in ran] == [set()] * len(commands)


_FDS = Path("/proc/self/fd")
needs_proc = pytest.mark.skipif(not _FDS.is_dir(), reason="no /proc/self/fd")


def _open_files() -> dict[str, str]:
    """What each descriptor of this process refers to."""
    links = {}
    for fd in os.listdir(_FDS):
        try:
            links[fd] = os.readlink(_FDS / fd)
        except FileNotFoundError:  # the one listdir held
            pass
    return links


@pytest.fixture
def long_archive_file(tmp_path, golden_files):
    """The golden archive and a 300 KB member stored, which a command reads
    from the file again after the open."""
    path = tmp_path / "long.omex"
    blob = random.Random(29).randbytes(300_000)
    path.write_bytes(write_container(build_container({**golden_files, "blob.bin": blob})))
    return path


@needs_proc
@pytest.mark.parametrize("command", [["list", "--json"], ["info"], ["set", "--description", "d"],
                                     ["validate", "--json"], ["unpack", "{dest}"]],
                         ids=["list", "info", "meta set", "validate", "unpack"])
def test_commands_leave_the_open_descriptors_as_they_found_them(command, long_archive_file,
                                                                tmp_path, capsys):
    name, *rest = command
    args = ([name, str(long_archive_file)] if name != "set"
            else ["meta", str(long_archive_file), name])
    args += [a.format(dest=tmp_path / "dest") for a in rest]
    before = _open_files()
    assert main(args) in (0, 1)
    assert _open_files() == before
    if name == "unpack":
        assert (tmp_path / "dest" / "blob.bin").stat().st_size == 300_000


@needs_proc
def test_meta_set_closes_the_archive_before_it_replaces_it(long_archive_file, monkeypatch):
    replace, open_at_the_rename = os.replace, []

    def checked_replace(source, target):
        open_at_the_rename.append(str(Path(target).resolve()) in _open_files().values())
        replace(source, target)

    monkeypatch.setattr(os, "replace", checked_replace)
    assert main(["meta", str(long_archive_file), "set", "--description", "d"]) == 0
    assert open_at_the_rename == [False]
    assert open_archive(long_archive_file.read_bytes()).metadata.blocks["."].description == "d"


def test_meta_set_writes_the_bytes_of_set_metadata(long_archive_file):
    # the long member is copied from the archive's file, the others from what they keep
    opened = open_archive(long_archive_file.read_bytes())
    block = opened.metadata.blocks["."]
    block = dataclasses.replace(block, description="d",
                                creators=block.creators + [parse_creator("Jane Doe")])
    expected = set_metadata(opened, dataclasses.replace(
        opened.metadata, blocks={**opened.metadata.blocks, ".": block})).to_bytes()
    assert main(["meta", str(long_archive_file), "set", "--description", "d",
                 "--creator", "Jane Doe"]) == 0
    assert long_archive_file.read_bytes() == expected


def _long_members() -> dict[str, bytes]:
    """The golden files and three members over 64 KiB: one stored and one
    deflated whose bytes as stored run past 64 KiB, so meta set copies them
    from the file, and one deflated whose bytes as stored fit in 64 KiB."""
    rng = random.Random(30)
    return {**GOLDEN_FILES,
            "blob.bin": rng.randbytes(300_000),
            "text.txt": b"".join(b"line %d\n" % rng.randrange(10 ** 6) for _ in range(60_000)),
            "zeros.bin": bytes(1 << 20)}


def _corrupt(tmp_path, name: str, fault: str, files=None) -> Path:
    """An archive file of `files`, or of _long_members, whose member `name`
    declares a wrong CRC-32 or a size one byte past or short of its data."""
    data = write_container(build_container(files or _long_members()))
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        info = zf.getinfo(name)
    size, crc = {"crc": (info.file_size, info.CRC ^ 1), "short": (info.file_size + 1, info.CRC),
                 "long": (info.file_size - 1, info.CRC)}[fault]
    path = tmp_path / "corrupt.omex"
    path.write_bytes(declaring(data, name.encode(), size, crc))
    return path


@pytest.mark.parametrize("name,fault", [
    *[(name, fault) for name in ("blob.bin", "text.txt") for fault in ("crc", "short", "long")],
    # its bytes as stored are held from the open on, and not read again: the
    # open's check is its only one
    ("zeros.bin", "crc"),
])
def test_meta_set_refuses_a_corrupt_long_member_and_leaves_the_archive(tmp_path, capsys,
                                                                        name, fault):
    path = _corrupt(tmp_path, name, fault)
    before = path.read_bytes()
    assert main(["meta", str(path), "set", "--touch", "--description", "d"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: corrupt entry {name!r}: ") and err.count("\n") == 1
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corrupt.omex"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_meta_set_checks_each_member_of_a_pipe_at_the_open(tmp_path, capsys, monkeypatch):
    # read whole, its long members are copied as views, which no check sees
    data = _corrupt(tmp_path, "blob.bin", "crc").read_bytes()
    pipe = tmp_path / "archive.pipe"
    os.mkfifo(pipe)
    writes = []
    monkeypatch.setattr(omexarchive.archive.Archive, "write", lambda self, file: writes.append(1))
    writer = threading.Thread(target=pipe.write_bytes, args=(data,), daemon=True)
    writer.start()
    assert main(["meta", str(pipe), "set", "--touch"]) == 2
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert capsys.readouterr().err.startswith("error: corrupt entry 'blob.bin': ")
    assert writes == []


def test_meta_set_refuses_unreadable_metadata_beside_a_corrupt_long_member(tmp_path, capsys):
    path = _corrupt(tmp_path, "blob.bin", "crc", {**_long_members(), "metadata.rdf": b"<x/>"})
    before = path.read_bytes()
    assert main(["meta", str(path), "set", "--touch"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corrupt.omex"]


def test_meta_set_inflates_each_deflated_member_once(tmp_path, monkeypatch):
    # each member is checked at least once, so as many inflates as deflated
    # members means one each: text.txt's in its copy, the others' at the open
    path = tmp_path / "long.omex"
    path.write_bytes(write_container(build_container(_long_members())))
    with zipfile.ZipFile(path) as zf:
        members = {info.filename: info for info in zf.infolist()}
    deflated = [name for name, info in members.items()
                if info.compress_type == zipfile.ZIP_DEFLATED]
    assert members["blob.bin"].compress_type == zipfile.ZIP_STORED
    assert members["blob.bin"].compress_size > 1 << 16
    assert "text.txt" in deflated and members["text.txt"].compress_size > 1 << 16
    assert members["zeros.bin"].file_size > 1 << 16 > members["zeros.bin"].compress_size
    inflaters = []
    decompressobj = zlib.decompressobj
    monkeypatch.setattr(zlib, "decompressobj", lambda *a: inflaters.append(1) or decompressobj(*a))
    assert main(["meta", str(path), "set", "--description", "d"]) == 0
    assert len(inflaters) == len(deflated)
    monkeypatch.undo()
    assert open_archive(path.read_bytes()).metadata.blocks["."].description == "d"


def _inflates(monkeypatch) -> list:
    """A list that gains an item for each zlib.decompressobj made from now on."""
    inflaters = []
    decompressobj = zlib.decompressobj
    monkeypatch.setattr(zlib, "decompressobj", lambda *a: inflaters.append(1) or decompressobj(*a))
    return inflaters


def _deflated(path: Path) -> list[str]:
    with zipfile.ZipFile(path) as zf:
        return [info.filename for info in zf.infolist()
                if info.compress_type == zipfile.ZIP_DEFLATED]


def test_validate_and_meta_set_inflate_a_long_metadata_file_once(tmp_path, monkeypatch):
    # parsed at once, so the bytes its check inflated are kept
    parts = b"".join(b'  <rdf:Description rdf:about="models/model.xml#part%d">\n'
                     b"    <dcterms:description>part %d</dcterms:description>\n"
                     b"  </rdf:Description>\n" % (i, i) for i in range(1_000))
    rdf = GOLDEN_FILES["metadata.rdf"].replace(b"</rdf:RDF>", parts + b"</rdf:RDF>")
    assert len(rdf) > 1 << 16
    path = tmp_path / "a.omex"
    path.write_bytes(write_container(build_container({**GOLDEN_FILES, "metadata.rdf": rdf})))
    deflated = _deflated(path)
    assert "metadata.rdf" in deflated
    inflaters = _inflates(monkeypatch)
    with open(path, "rb") as file:
        for source in (path.read_bytes(), file):
            inflaters.clear()
            report = validate_archive(source)
            assert "metadata-unreadable" not in [finding.rule for finding in report]
            assert len(inflaters) == len(deflated)
    inflaters.clear()
    assert main(["meta", str(path), "set", "--description", "d"]) == 0
    assert len(inflaters) == len(deflated)
    monkeypatch.undo()
    blocks = open_archive(path.read_bytes()).metadata.blocks
    assert blocks["."].description == "d" and len(blocks) == 1_001


def test_unpack_inflates_each_deflated_member_once(tmp_path, monkeypatch):
    # each is checked at the open and written from the bytes that check
    # inflated; the manifest is parsed from them too
    files = {f"d/{i:04}.txt": b"member %d\n" % i * 50 for i in range(1_000)}
    archive = create_archive([(path, "http://purl.org/NET/mediatypes/text/plain", False, data)
                              for path, data in files.items()])
    assert len(archive.container.get("manifest.xml")) > 1 << 16
    path = tmp_path / "a.omex"
    path.write_bytes(archive.to_bytes())
    deflated = _deflated(path)
    assert len(deflated) == len(files) + 1
    inflaters = _inflates(monkeypatch)
    assert main(["unpack", str(path), str(tmp_path / "out")]) == 0
    assert len(inflaters) == len(deflated)
    monkeypatch.undo()
    files["manifest.xml"] = archive.container.get("manifest.xml")
    written = {file.relative_to(tmp_path / "out").as_posix(): file.read_bytes()
               for file in (tmp_path / "out").rglob("*") if file.is_file()}
    assert written == files


@pytest.mark.parametrize("name", ["blob.bin", "text.txt"], ids=["stored", "deflated"])
def test_the_other_commands_refuse_a_corrupt_long_member_at_the_open(tmp_path, capsys, name):
    path = _corrupt(tmp_path, name, "crc")
    for command in (["list"], ["list", "--json"], ["info"], ["meta", "show"]):
        assert main([command[0], str(path), *command[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: corrupt entry {name!r}: ")
    assert main(["unpack", str(path), str(tmp_path / "dest")]) == 2
    assert not (tmp_path / "dest").exists() or not any((tmp_path / "dest").iterdir())
    assert capsys.readouterr().err.startswith(f"error: corrupt entry {name!r}: ")
    assert main(["validate", str(path), "--json"]) == 1
    findings = json.loads(capsys.readouterr().out)["items"]
    assert [(f["rule"], f["location"]) for f in findings] == [("corrupt-entry", name)]
    with open(path, "rb") as file:
        for source in (path.read_bytes(), file):
            with pytest.raises(CorruptEntry) as refusal:
                open_archive(source)
            assert refusal.value.path == name


def _stored_ranges(path: Path) -> dict[str, range]:
    """Where the bytes as stored of each member of the archive at `path`
    lie, for a member whose local header has no extra field, as this
    package writes it below the zip64 limits."""
    with zipfile.ZipFile(path) as zf:
        return {info.filename: range(info.header_offset + 30 + len(info.filename.encode()),
                                     info.header_offset + 30 + len(info.filename.encode())
                                     + info.compress_size) for info in zf.infolist()}


def _reads(monkeypatch) -> list[range]:
    """A list that gains the range of each read from an archive's file that
    a command makes from now on."""
    reads = []

    class Counted(io.BufferedReader):
        def read(self, size=-1):
            at = self.tell()
            piece = super().read(size)
            reads.append(range(at, at + len(piece)))
            return piece

    @contextlib.contextmanager
    def counted(path):
        with Counted(io.FileIO(path)) as file:
            yield file
    monkeypatch.setattr(omexarchive.cli, "_archive_file", counted)
    return reads


def test_unpack_reads_and_inflates_each_long_member_once(tmp_path, monkeypatch):
    # the open leaves a member longer than 64 KiB as stored in the file to
    # extract_all, whose staging reads, inflates and checks it once
    files = {name: data for name, data in _long_members().items() if name != "zeros.bin"}
    path = tmp_path / "long.omex"
    path.write_bytes(write_container(build_container(files)))
    stored = {name: where for name, where in _stored_ranges(path).items() if len(where) > 1 << 16}
    assert sorted(stored) == ["blob.bin", "text.txt"] and "text.txt" in _deflated(path)
    reads, inflaters = _reads(monkeypatch), _inflates(monkeypatch)
    assert main(["unpack", str(path), str(tmp_path / "out")]) == 0
    for name, where in stored.items():  # the reads within its bytes as stored cover them once
        within = [read for read in reads if where.start <= read.start and read.stop <= where.stop]
        assert sum(map(len, within)) == len(where), name
    assert len(inflaters) == len(_deflated(path))
    monkeypatch.undo()
    written = {file.relative_to(tmp_path / "out").as_posix(): file.read_bytes()
               for file in (tmp_path / "out").rglob("*") if file.is_file()}
    assert written == files


def _tree(root: Path) -> dict[str, tuple]:
    """Every file and directory below `root`: its inode, mode, bytes and mtime."""
    return {path.relative_to(root).as_posix(): (
        path.stat().st_ino, path.stat().st_mode, path.stat().st_mtime_ns,
        path.read_bytes() if path.is_file() else None) for path in root.rglob("*")}


@pytest.mark.parametrize("dir_fd", [True, False], ids=["dir_fd", "by_path"])
def test_unpack_of_a_corrupt_long_member_changes_nothing_below_the_destination(
        tmp_path, capsys, monkeypatch, dir_fd):
    # staged before the clash is refused and before any target is opened
    if not dir_fd:
        monkeypatch.setattr(os, "supports_dir_fd", set())
    files = {**GOLDEN_FILES, "data/blob.bin": random.Random(35).randbytes(300_000),
             "Notes.txt": b"N", "notes.txt": b"n"}
    path = _corrupt(tmp_path, "data/blob.bin", "crc", files)
    dest = tmp_path / "dest"
    (dest / "data").mkdir(parents=True)
    (dest / "data" / "blob.bin").write_bytes(b"old blob")
    (dest / "simulation.xml").write_bytes(b"old simulation")
    before = _tree(dest)
    assert main(["unpack", str(path), str(dest)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: corrupt entry 'data/blob.bin': ")
    assert _tree(dest) == before


@pytest.mark.parametrize("dir_fd", [True, False], ids=["dir_fd", "by_path"])
def test_unpack_writes_a_long_member_over_its_existing_file(tmp_path, monkeypatch, dir_fd):
    if not dir_fd:
        monkeypatch.setattr(os, "supports_dir_fd", set())
    path = tmp_path / "long.omex"
    path.write_bytes(write_container(build_container(_long_members())))
    dest = tmp_path / "dest"
    dest.mkdir()
    for name in ("blob.bin", "text.txt"):
        (dest / name).write_bytes(b"old")
        (dest / name).chmod(0o600)
    before = {name: (dest / name).stat() for name in ("blob.bin", "text.txt")}
    assert main(["unpack", str(path), str(dest)]) == 0
    for name, status in before.items():
        after = (dest / name).stat()
        assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (status.st_ino, 0o600)
        assert (dest / name).read_bytes() == _long_members()[name]
    assert sorted(p.name for p in dest.iterdir()) == sorted({p.split("/")[0]
                                                             for p in _long_members()})


@pytest.mark.parametrize("name", ["blob.bin", "text.txt"], ids=["stored", "deflated"])
def test_unpack_of_a_corrupt_long_member_makes_no_destination(tmp_path, capsys, name):
    # staged in the nearest directory that exists, which keeps no file of it
    path = _corrupt(tmp_path, name, "crc")
    assert main(["unpack", str(path), str(tmp_path / "missing" / "dest")]) == 2
    assert capsys.readouterr().err.startswith(f"error: corrupt entry {name!r}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["corrupt.omex"]


def test_unpack_stages_more_long_members_than_free_descriptors(tmp_path):
    # every long member is staged in one temporary file, so unpack holds a
    # few descriptors however many there are
    resource = pytest.importorskip("resource")
    rng = random.Random(35)
    files = {**GOLDEN_FILES, **{f"data/{n:02}.bin": rng.randbytes(70_000) for n in range(40)}}
    path = tmp_path / "many.omex"
    path.write_bytes(write_container(build_container(files)))
    free = os.open(os.devnull, os.O_RDONLY)  # the lowest free descriptor
    os.close(free)
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (min(free + 16, soft), hard))
    try:
        assert main(["unpack", str(path), str(tmp_path / "out")]) == 0
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    written = {file.relative_to(tmp_path / "out").as_posix(): file.read_bytes()
               for file in (tmp_path / "out").rglob("*") if file.is_file()}
    assert written == files


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_commands_read_an_archive_from_a_pipe_whole(golden_archive_file, tmp_path, capsys):
    assert main(["list", str(golden_archive_file), "--json"]) == 0
    expected = capsys.readouterr().out
    pipe = tmp_path / "archive.pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(golden_archive_file.read_bytes(),),
                              daemon=True)
    writer.start()
    assert main(["list", str(pipe), "--json"]) == 0
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert capsys.readouterr().out == expected


_STATUS = Path("/proc/self/status")


@pytest.mark.skipif(not _STATUS.is_file(), reason="no /proc/self/status")
@pytest.mark.parametrize("command", [["validate", "{archive}"],
                                     ["meta", "{archive}", "set", "--description", "d"],
                                     ["pack", "{tree}", "{out}", "--ext", "omex"]],
                         ids=["validate", "meta set", "pack"])
def test_validate_holds_little_more_than_the_interpreter(tmp_path, golden_files, command):
    # the bound of the CI step on large-payload; the child's own high-water mark,
    # as its ru_maxrss starts at this process's; meta set reads the archive from
    # its file and writes the new one member by member, and pack reads the
    # tree's long file as it writes it
    path, tree = tmp_path / "large.omex", tmp_path / "tree"
    blob = random.Random(31).randbytes(16 << 20)
    if command[0] == "pack":
        tree.mkdir()
        (tree / "blob.bin").write_bytes(blob)
    else:
        path.write_bytes(write_container(build_container({**golden_files, "blob.bin": blob})))
    del blob
    code = ("import sys, omexarchive.cli\n"
            "if sys.argv[1:]: omexarchive.cli.main(sys.argv[1:])\n"
            "status = open('/proc/self/status').read().split('VmHWM:')[1].split()\n"
            "print(int(status[0]))")
    src = Path(omexarchive.__file__).resolve().parents[1]

    def peak_kib(*args) -> int:
        result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                                text=True, check=True, env=dict(os.environ, PYTHONPATH=str(src)))
        return int(result.stdout.split()[-1])

    args = [a.format(archive=path, tree=tree, out=tmp_path / "out") for a in command]
    excess = peak_kib(*args) - peak_kib()
    assert excess < 8 << 10, f"{excess} KiB above the interpreter"
