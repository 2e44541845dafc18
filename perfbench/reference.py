"""A fixed reference operation that measures how fast the host runs right now.

    python3 perfbench/reference.py DIR

Standard library only; it never imports the program, so a change to the
program cannot change its time. Its mix resembles an ``omex`` command:
interpreter start and imports, building, serializing and parsing an XML
document of 3,000 elements, writing and reading a 300-entry deflated ZIP
in memory, and rewriting 100 small files in DIR in place. ``run.py``
times it around every timed child and scales the child's time by it.

The edit session's body is timed inside its child in two parts. The
part that opens and serializes archives runs mostly in C (zlib, expat),
like the commands, and is scaled by this reference too. The mutations run
in Python and are scaled by ``loop_ms``, a fixed pure-Python loop that
``edit.py`` times just before and after them. (Timing this work inside
the edit child instead was no good: its time then depends on the
child's heap, through the garbage collector.)
"""

from __future__ import annotations

import hashlib
import io
import statistics
import sys
import time
import xml.etree.ElementTree as ET
import zipfile
from pathlib import Path


def work(out: Path) -> None:
    root = ET.Element("omexManifest")
    for i in range(3000):
        ET.SubElement(root, "content", location=f"./dir{i % 50}/file{i}.txt",
                      format="http://purl.org/NET/mediatypes/text/plain")
    document = ET.tostring(root)
    digest = hashlib.sha256(document)
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
        for i in range(300):
            archive.writestr(f"dir/file{i}.txt", f"line {i} ".encode() * 200)
    with zipfile.ZipFile(io.BytesIO(buffer.getvalue())) as archive:
        for name in archive.namelist():
            digest.update(archive.read(name))
    digest.update(str(len(ET.fromstring(document))).encode())
    out.mkdir(parents=True, exist_ok=True)
    for i in range(100):
        (out / f"file{i:03d}").write_bytes(digest.digest() * 64)


def loop_ms() -> float:
    """The median of three timings of a fixed pure-Python loop, in ms."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total, table = 0, {}
        for i in range(40000):
            total += i * i % 7
            table[i & 255] = str(i)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def main(out: Path) -> int:
    work(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
