"""Deterministic input generator for the omexarchive benchmark.

    python3 perfbench/gen.py --workload NAME --seed N --out DIR
    python3 perfbench/gen.py --workload NAME --seed N --digest-only

Writes, under DIR:

- ``tree/``        the directory that ``omex pack`` packs
- ``variant.omex`` a ZIP built here, not by the program: the same files, with
                   a seeded share left out of the manifest and a seeded
                   share given unrecognised format URIs (``omex validate``)
- ``base.omex``    a clean ZIP of the same files (the edit session's base)
- ``adds/``        payloads the edit session adds
- ``expect.json``  the generator's answers the correctness checks use
- ``plan.json``    the edit session's plan and expected result

The last line of standard output is a JSON object holding the digest of
every generated input, so the same seed can be shown to give the same
inputs and another seed other ones. The generator never imports the
program under test: every answer comes from the generated data itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import struct
import sys
import zlib
from pathlib import Path

COMBINE = "http://identifiers.org/combine.specifications/"
MEDIA = "http://purl.org/NET/mediatypes/"
METADATA_URI = COMBINE + "omex-metadata"
SUFFIX_FORMATS = {
    ".xml": MEDIA + "application/xml",
    ".sbml": COMBINE + "sbml",
    ".sedml": COMBINE + "sed-ml",
    ".cellml": COMBINE + "cellml",
    ".csv": MEDIA + "text/csv",
    ".txt": MEDIA + "text/plain",
    ".json": MEDIA + "application/json",
    ".py": MEDIA + "text/x-python",
}
SUFFIXES = list(SUFFIX_FORMATS)
DOS_DATE = (0 << 9) | (1 << 5) | 1  # 1980-01-01, the ZIP epoch

# Sizes per workload. `small` is (count, directories, min bytes, max bytes)
# of compressible text entries; `blob_mib`/`csv_mib` are the large-payload
# files; `blocks` is the number of per-file metadata description blocks;
# `adds`/`removes` size the library edit session.
WORKLOADS = {
    "many-small": dict(small=(1500, 50, 200, 4096), blob_mib=0, csv_mib=0,
                       blocks=300, adds=10, removes=3),
    "large-payload": dict(small=(8, 1, 200, 4096), blob_mib=16, csv_mib=4,
                          blocks=None, adds=10, removes=3),
    "edit-session": dict(small=(1000, 10, 200, 4096), blob_mib=0, csv_mib=0,
                         blocks=200, adds=100, removes=25),
}
UNLISTED_SHARE = 0.05
INVALID_FORMAT_SHARE = 0.02
EDIT_DESCRIPTION = "edited by the benchmark edit session"


def text_pool(rng: random.Random, lines: int = 4096) -> list[str]:
    syllables = ["ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "xe", "zu",
                 "gen", "pro", "ase", "ine", "ion", "flux", "rate", "cell"]
    words = ["".join(rng.choices(syllables, k=rng.randint(1, 4)))
             for _ in range(600)]
    return [" ".join(rng.choices(words, k=rng.randint(6, 16))) + "\n"
            for _ in range(lines)]


def text_bytes(rng: random.Random, pool: list[str], size: int) -> bytes:
    out = "".join(rng.choices(pool, k=size // 40 + 2)).encode()
    while len(out) < size:
        out += "".join(rng.choices(pool, k=8)).encode()
    return out[:size]


def csv_bytes(rng: random.Random, size: int) -> bytes:
    tails = [",".join(f"{rng.uniform(-1e3, 1e3):.6f}" for _ in range(4))
             for _ in range(4096)]
    parts = ["t,species_a,species_b,species_c,flux\n"]
    total, i = len(parts[0]), 0
    while total < size:
        row = f"{i * 0.001:.3f},{tails[rng.getrandbits(12)]}\n"
        parts.append(row)
        total += len(row)
        i += 1
    return "".join(parts).encode()[:size]


def model_xml(kind: str, rng: random.Random, species: int) -> bytes:
    body = "\n".join(
        f'    <species id="s{i}" initialConcentration="{rng.random():.6f}"/>'
        for i in range(species))
    return f'<?xml version="1.0"?>\n<{kind}>\n{body}\n</{kind}>\n'.encode()


def metadata_rdf(rng: random.Random, described: list[str]) -> bytes:
    def block(about: str, extra: str = "") -> str:
        year, month, day = rng.randint(2001, 2024), rng.randint(1, 12), rng.randint(1, 28)
        return (
            f'  <rdf:Description rdf:about="{about}">\n{extra}'
            '    <dcterms:creator rdf:parseType="Resource">\n'
            '      <vCard:hasName rdf:parseType="Resource">\n'
            f'        <vCard:family-name>Family{rng.randrange(10**6)}</vCard:family-name>\n'
            f'        <vCard:given-name>Given{rng.randrange(10**6)}</vCard:given-name>\n'
            '      </vCard:hasName>\n'
            '    </dcterms:creator>\n'
            '    <dcterms:created rdf:parseType="Resource">\n'
            f'      <dcterms:W3CDTF>{year:04d}-{month:02d}-{day:02d}T12:00:00Z</dcterms:W3CDTF>\n'
            '    </dcterms:created>\n'
            '    <bqmodel:is rdf:resource="http://identifiers.org/biomodels.db/'
            f'MODEL{rng.randrange(10**10):010d}"/>\n'
            '  </rdf:Description>\n'
        )

    # The archive block carries every minimum-information field, so a
    # validate run reports only the seeded findings.
    archive_extra = (
        "    <dcterms:description>benchmark archive</dcterms:description>\n"
        '    <dcterms:modified rdf:parseType="Resource">\n'
        "      <dcterms:W3CDTF>2024-01-01T00:00:00Z</dcterms:W3CDTF>\n"
        "    </dcterms:modified>\n"
    )
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"\n'
        '  xmlns:dcterms="http://purl.org/dc/terms/"\n'
        '  xmlns:vCard="http://www.w3.org/2006/vcard/ns#"\n'
        '  xmlns:bqmodel="http://biomodels.net/model-qualifiers/">\n',
        block(".", archive_extra),
    ]
    parts.extend(block(about) for about in described)
    parts.append("</rdf:RDF>\n")
    return "".join(parts).encode()


def generate_files(workload: str, seed: int) -> dict[str, bytes]:
    """The input tree. File names depend on the workload only, contents on the seed too."""
    spec = WORKLOADS[workload]
    layout = random.Random(workload)
    rng = random.Random(f"{workload}:{seed}")
    pool = text_pool(rng)
    count, dirs, low, high = spec["small"]
    files: dict[str, bytes] = {}
    for i in range(count):
        suffix = SUFFIXES[layout.randrange(len(SUFFIXES))]
        name = f"dir{layout.randrange(dirs):02d}/entry{i:05d}{suffix}"
        files[name] = text_bytes(rng, pool, rng.randint(low, high))
    if spec["blob_mib"]:
        files["data/blob.bin"] = rng.randbytes(spec["blob_mib"] << 20)
        files["data/table.csv"] = csv_bytes(rng, spec["csv_mib"] << 20)
        files["model.sbml"] = model_xml("sbml", rng, 400)
        files["simulation.sedml"] = model_xml("sedML", rng, 40)
    described = sorted(files)
    if spec["blocks"] is not None:
        described = sorted(rng.sample(described, spec["blocks"]))
    files["metadata.rdf"] = metadata_rdf(rng, described)
    return files


def format_uri(path: str) -> str:
    if path == "metadata.rdf":
        return METADATA_URI
    suffix = path[path.rfind("."):]
    return SUFFIX_FORMATS.get(suffix, MEDIA + "application/octet-stream")


def manifest_xml(rows: list[tuple[str, str]]) -> bytes:
    lines = ['<?xml version="1.0" encoding="utf-8"?>',
             '<omexManifest xmlns="http://identifiers.org/combine.specifications/omex-manifest">',
             f'  <content location="." format="{COMBINE}omex"/>']
    lines += [f'  <content location="{loc}" format="{fmt}"/>' for loc, fmt in rows]
    lines.append("</omexManifest>")
    return ("\n".join(lines) + "\n").encode()


def deflate(data: bytes) -> bytes:
    comp = zlib.compressobj(6, zlib.DEFLATED, -15)
    return comp.compress(data) + comp.flush()


def write_zip(path: Path, manifest: bytes, members: dict[str, tuple[bytes, int, int]]) -> None:
    """A plain deflated ZIP: manifest.xml first, then members by name.

    `members` maps a name to (deflated bytes, CRC-32, size). The two ZIPs a
    workload needs share their members, so each payload is deflated once.
    """
    entries = [("manifest.xml", (deflate(manifest), zlib.crc32(manifest), len(manifest)))]
    entries += sorted(members.items())
    central, offset = [], 0
    with open(path, "wb") as out:
        for name, (raw, crc, size) in entries:
            encoded = name.encode()
            fields = (20, 0, 8, 0, DOS_DATE, crc, len(raw), size, len(encoded), 0)
            out.write(struct.pack("<IHHHHHIIIHH", 0x04034B50, *fields) + encoded)
            out.write(raw)
            central.append(struct.pack("<IH", 0x02014B50, 20)
                           + struct.pack("<HHHHHIIIHHHHHII", *fields[:-1], 0, 0, 0, 0, 0, offset)
                           + encoded)
            offset += 30 + len(encoded) + len(raw)
        directory = b"".join(central)
        out.write(directory)
        out.write(struct.pack("<IHHHHIIH", 0x06054B50, 0, 0, len(entries), len(entries),
                              len(directory), offset, 0))


def tree_digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(f"{path}\0{hashlib.sha256(files[path]).hexdigest()}\n".encode())
    return h.hexdigest()


def build(workload: str, seed: int) -> dict:
    """Every input and answer for one workload and seed, in memory."""
    spec = WORKLOADS[workload]
    files = generate_files(workload, seed)
    rng = random.Random(f"{workload}:{seed}:variant")
    content = sorted(p for p in files if p != "metadata.rdf")
    # Seeded picks come from the small text entries only, so that the seed
    # never decides whether a large payload is unlisted or removed.
    small = [p for p in content if p.startswith("dir")]

    unlisted = set(rng.sample(small, max(1, round(UNLISTED_SHARE * len(content)))))
    listed = [p for p in content if p not in unlisted]
    bad = set(rng.sample([p for p in small if p not in unlisted],
                         max(1, round(INVALID_FORMAT_SHARE * len(content)))))
    variant_rows = [(p, f"urn:perfbench:unknown-format:{i}" if p in bad else format_uri(p))
                    for i, p in enumerate(sorted(listed + ["metadata.rdf"]))]
    base_rows = [(p, format_uri(p)) for p in sorted(files)]

    erng = random.Random(f"{workload}:{seed}:edit")
    pool = text_pool(erng, 512)
    adds = {f"edits/new{k:04d}.txt": text_bytes(erng, pool, erng.randint(200, 4096))
            for k in range(spec["adds"])}
    removes = set(erng.sample(small, spec["removes"]))
    final = {p: d for p, d in files.items() if p not in removes and p != "metadata.rdf"}
    final.update(adds)

    return {
        "files": files,
        "manifests": {"variant.omex": manifest_xml(variant_rows),
                      "base.omex": manifest_xml(base_rows)},
        "adds": adds,
        "expect": {
            "workload": workload,
            "seed": seed,
            "files": {p: [len(d), zlib.crc32(d)] for p, d in sorted(files.items())},
            "tree_digest": tree_digest(files),
            "metadata_blocks": files["metadata.rdf"].count(b"<rdf:Description "),
            "unlisted": sorted(unlisted),
            "invalid_format": sorted(bad),
        },
        "plan": {
            "adds": [[p, MEDIA + "text/plain"] for p in adds],
            "removes": sorted(removes),
            "description": EDIT_DESCRIPTION,
            "final_digest": tree_digest(final),
            "final_entries": len(final) + 2,  # plus manifest.xml and metadata.rdf
        },
    }


def input_digest(inputs: dict) -> str:
    h = hashlib.sha256()
    h.update(tree_digest(inputs["files"]).encode())
    h.update(tree_digest(inputs["adds"]).encode())
    for name, manifest in sorted(inputs["manifests"].items()):
        h.update(f"{name}\0{hashlib.sha256(manifest).hexdigest()}\n".encode())
    for key in ("expect", "plan"):
        h.update(json.dumps(inputs[key], sort_keys=True).encode())
    return h.hexdigest()


def write(inputs: dict, out: Path) -> None:
    """Write the inputs under `out`, overwriting an earlier generation in place.

    File names do not depend on the seed, so a later generation rewrites
    the files of an earlier one instead of deleting them and creating new
    ones (see run.py for why); files it lacks are removed.
    """
    for sub, files in (("tree", inputs["files"]), ("adds", inputs["adds"])):
        root = out / sub
        stale = {p for p in root.rglob("*") if p.is_file()} if root.exists() else set()
        for path, data in files.items():
            target = root / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
            stale.discard(target)
        for path in stale:
            path.unlink()
    members = {p: (deflate(d), zlib.crc32(d), len(d)) for p, d in inputs["files"].items()}
    for name, manifest in inputs["manifests"].items():
        write_zip(out / name, manifest, members)
    (out / "expect.json").write_text(json.dumps(inputs["expect"]))
    (out / "plan.json").write_text(json.dumps(inputs["plan"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--digest-only", action="store_true")
    args = parser.parse_args(argv)
    if args.out is None and not args.digest_only:
        parser.error("--out is required unless --digest-only is given")
    inputs = build(args.workload, args.seed)
    if not args.digest_only:
        write(inputs, args.out)
    print(json.dumps({"digest": input_digest(inputs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
