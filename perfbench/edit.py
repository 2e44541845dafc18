"""The edit-session operation: library calls on one archive, in one process.

    python3 perfbench/edit.py --inputs DIR

Opens ``DIR/base.omex``, adds the payloads under ``DIR/adds``, removes the
planned entries, replaces the metadata once, serializes the result and
reopens it. Only that body is timed, in two parts: ``bytes_ms``, opening
the base archive and serializing and reopening the result, and
``mutate_ms``, the add, remove and metadata calls. ``reference.loop_ms``
is timed just before and after the mutations (see ``reference.py``). The
reopened archive is then checked against the generator's answers in
``DIR/plan.json``. The last line of standard output is ``{"edit_ms": ...,
"bytes_ms": ..., "mutate_ms": ..., "loop_ms": ..., "errors": [...]}``,
``loop_ms`` being the mean of its two timings.

Functions are looked up on the ``omexarchive`` package at call time, so
span wrappers installed by ``traced.py`` see every call.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import omexarchive as ox
import reference

EXCLUDED_FROM_DIGEST = ("manifest.xml", "metadata.rdf")


def session(inputs: Path) -> tuple[dict, list[str]]:
    plan = json.loads((inputs / "plan.json").read_text())
    data = (inputs / "base.omex").read_bytes()
    adds = [(loc, fmt, (inputs / "adds" / loc).read_bytes()) for loc, fmt in plan["adds"]]

    start = time.perf_counter()
    archive = ox.open_archive(data)
    opened = time.perf_counter()
    loop_before = reference.loop_ms()
    mutating = time.perf_counter()
    for location, format_uri, payload in adds:
        archive = ox.add_entry(archive, location, format_uri, payload)
    for location in plan["removes"]:
        archive = ox.remove_entry(archive, location)
    blocks = dict(archive.metadata.blocks)
    blocks["."] = dataclasses.replace(blocks["."], description=plan["description"])
    archive = ox.set_metadata(archive, ox.MetadataSet(blocks))
    mutated = time.perf_counter()
    loop_after = reference.loop_ms()
    serializing = time.perf_counter()
    reopened = ox.open_archive(archive.to_bytes())
    end = time.perf_counter()
    bytes_ms = (opened - start + end - serializing) * 1000.0
    mutate_ms = (mutated - mutating) * 1000.0
    timing = {"edit_ms": bytes_ms + mutate_ms, "bytes_ms": bytes_ms, "mutate_ms": mutate_ms,
              "loop_ms": (loop_before + loop_after) / 2}

    errors = []
    paths = reopened.container.paths()
    if len(paths) != plan["final_entries"]:
        errors.append(f"reopened archive holds {len(paths)} entries, "
                      f"expected {plan['final_entries']}")
    digest = hashlib.sha256()
    for path in sorted(p for p in paths if p not in EXCLUDED_FROM_DIGEST):
        sha = hashlib.sha256(reopened.container.get(path)).hexdigest()
        digest.update(f"{path}\0{sha}\n".encode())
    if digest.hexdigest() != plan["final_digest"]:
        errors.append("reopened entries differ from the planned entries")
    block = reopened.metadata.get(".") if reopened.metadata else None
    if block is None or block.description != plan["description"]:
        errors.append("reopened metadata lacks the new description")
    return timing, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=Path, required=True)
    args = parser.parse_args(argv)
    timing, errors = session(args.inputs)
    print(json.dumps({**timing, "errors": errors}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
