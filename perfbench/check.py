"""Correctness checks for one command cycle, against the generator's answers.

    python3 perfbench/check.py --inputs DIR --cycle DIR --description TEXT

Reads what the ``omex`` commands of one cycle left in the cycle directory
and compares it with ``expect.json`` written by ``gen.py``; nothing is
compared with another run of the program. The last line of standard
output is ``{"errors": {op: [message, ...]}, "pack_sha256": ...}``.
Runs in its own process so that the driver never holds payloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import xml.etree.ElementTree as ET
import zipfile
from pathlib import Path

RDF = "{http://www.w3.org/1999/02/22-rdf-syntax-ns#}"
DCTERMS = "{http://purl.org/dc/terms/}"


def zip_index(path: Path) -> dict[str, tuple[int, int]]:
    with zipfile.ZipFile(path) as zf:
        return {i.filename: (i.file_size, i.CRC) for i in zf.infolist()}


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def check_pack(expect: dict, cycle: Path) -> list[str]:
    printed = (cycle / "pack.out").read_text().strip()
    if printed != str(cycle / "pack.omex"):
        return [f"pack printed {printed!r}, expected {str(cycle / 'pack.omex')!r}"]
    index = zip_index(cycle / "pack.omex")
    wanted = {p: (size, crc) for p, (size, crc) in expect["files"].items()}
    errors = []
    if set(index) != set(wanted) | {"manifest.xml"}:
        errors.append("packed entry names differ from the input tree")
    bad = [p for p in wanted if p in index and index[p] != wanted[p]]
    if bad:
        errors.append(f"{len(bad)} packed entries differ in size or CRC, e.g. {bad[0]}")
    return errors


def check_list(expect: dict, cycle: Path) -> list[str]:
    rows = json.loads((cycle / "list.out").read_text())["entries"]
    sizes = {row["location"]: row["size"] for row in rows}
    wanted = {p: size for p, (size, _) in expect["files"].items()}
    wanted["."] = None
    if len(rows) != len(wanted):
        return [f"list shows {len(rows)} rows, expected {len(wanted)}"]
    bad = [p for p in wanted if sizes.get(p, -1) != wanted[p]]
    return [f"{len(bad)} listed sizes differ, e.g. {bad[0]}"] if bad else []


def check_validate(expect: dict, cycle: Path) -> list[str]:
    items = json.loads((cycle / "validate.out").read_text())["items"]
    errors = []
    for rule, key in (("unlisted-file", "unlisted"), ("invalid-format", "invalid_format")):
        found = sorted(i["location"] for i in items if i["rule"] == rule)
        if found != expect[key]:
            errors.append(f"{len(found)} {rule} findings, expected {len(expect[key])}")
    return errors


def check_meta_set(expect: dict, cycle: Path, description: str) -> list[str]:
    before = zip_index(cycle / "pack.omex")
    after = zip_index(cycle / "meta.omex")
    errors = []
    if set(before) != set(after):
        errors.append("meta set changed the set of entries")
    changed = [p for p in before if p != "metadata.rdf" and after.get(p) != before[p]]
    if changed:
        errors.append(f"meta set changed {len(changed)} other entries, e.g. {changed[0]}")
    with zipfile.ZipFile(cycle / "meta.omex") as zf:
        root = ET.fromstring(zf.read("metadata.rdf"))
    blocks = root.findall(f"{RDF}Description")
    if len(blocks) != expect["metadata_blocks"]:
        errors.append(f"metadata holds {len(blocks)} blocks, expected {expect['metadata_blocks']}")
    archive = [b for b in blocks if b.get(f"{RDF}about") == "."]
    text = archive[0].findtext(f"{DCTERMS}description") if archive else None
    if text != description:
        errors.append("the archive metadata block lacks the new description")
    return errors


def check_unpack(expect: dict, cycle: Path) -> list[str]:
    root = cycle / "unpacked"
    found = []
    for dirpath, _, names in os.walk(root):
        found += [Path(dirpath, n).relative_to(root).as_posix() for n in names]
    if set(found) != set(expect["files"]) | {"manifest.xml"}:
        return ["unpacked file names differ from the input tree"]
    if (root / "manifest.xml").stat().st_size == 0:
        return ["unpack wrote no manifest.xml"]
    digest = hashlib.sha256()
    for path in sorted(expect["files"]):
        digest.update(f"{path}\0{file_sha256(root / path)}\n".encode())
    if digest.hexdigest() != expect["tree_digest"]:
        return ["unpacked tree hash differs from the input tree hash"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--cycle", type=Path, required=True)
    parser.add_argument("--description", required=True)
    args = parser.parse_args(argv)
    expect = json.loads((args.inputs / "expect.json").read_text())
    checks = {
        "pack": lambda: check_pack(expect, args.cycle),
        "list": lambda: check_list(expect, args.cycle),
        "validate": lambda: check_validate(expect, args.cycle),
        "meta_set": lambda: check_meta_set(expect, args.cycle, args.description),
        "unpack": lambda: check_unpack(expect, args.cycle),
    }
    errors = {}
    for op, check in checks.items():
        try:
            errors[op] = check()
        except (OSError, ValueError, KeyError, TypeError, IndexError,
                zipfile.BadZipFile, ET.ParseError) as exc:
            errors[op] = [f"output unreadable: {type(exc).__name__}: {exc}"]
    pack = args.cycle / "pack.omex"
    pack_sha = file_sha256(pack) if pack.is_file() else None
    print(json.dumps({"errors": errors, "pack_sha256": pack_sha}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
