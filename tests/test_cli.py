import dataclasses
import hashlib
import json
import os
import random
import stat
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import omexarchive
import omexarchive.cli
from omexarchive import open_archive, set_metadata, write_container
from omexarchive.cli import main, parse_creator
from omexarchive.metadata import Creator, DescriptionBlock

from conftest import FOREIGN_MANIFESTS, UNMODELLED_METADATA, build_container


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
    parse = omexarchive.archive.parse_metadata
    monkeypatch.setattr(omexarchive.archive, "parse_metadata",
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
    def broken_open(data):
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
