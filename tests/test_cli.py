import json

import pytest

import omexarchive.cli
from omexarchive import open_archive
from omexarchive.cli import main, parse_creator
from omexarchive.metadata import Creator


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
    masters = [e.normalized_location for e in archive.manifest.entries if e.master]
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
        (e.normalized_location, e.format, bool(e.master))
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


def test_meta_show(golden_archive_file, capsys):
    assert main(["meta", str(golden_archive_file), "show"]) == 0
    assert "Recon 2.1" in capsys.readouterr().out


def test_env_var_mirrors_no_stamp(fixture_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OMEX_NO_STAMP", "1")
    out = tmp_path / "env.omex"
    assert main(["pack", str(fixture_dir), str(out), "--ext", "omex"]) == 0
    capsys.readouterr()
    archive = open_archive(out.read_bytes())
    assert archive.metadata is None


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
