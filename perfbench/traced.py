"""Run one benchmark operation with span wrappers around the program's layers.

    python3 perfbench/traced.py --summary FILE --spans FILE cli ARG...
    python3 perfbench/traced.py --summary FILE --spans FILE edit --inputs DIR

``cli`` runs ``omexarchive.cli.main(ARG...)`` and exits with its code;
``edit`` runs the edit session of ``edit.py``. Before the operation
starts, every public layer function named in ``SPANS`` is replaced by a
wrapper in every ``omexarchive`` module namespace that bound it, so calls
through ``archive.open_container`` are seen as well as calls through
``container.open_container``. Byte and entry counters are taken at the
``zipfile`` boundary. Spans stay in memory; when the operation ends they
are written to ``--spans`` and their per-name totals to ``--summary``.
The program itself is not modified.
"""

from __future__ import annotations

import json
import sys
import time
import zipfile

import omexarchive
import omexarchive.cli
from omexarchive import archive, cli, container, formats, manifest, metadata, report

# span name -> (owner, attribute) pairs; an owner is a module or a class.
SPANS = {
    "container.open_container": [(container, "open_container")],
    "container.write_container": [(container, "write_container")],
    "container.copy": [(container.Container, "copy")],
    "manifest.parse_manifest": [(manifest, "parse_manifest")],
    "manifest.serialize_manifest": [(manifest, "serialize_manifest")],
    "manifest.validate_manifest_against": [(manifest, "validate_manifest_against")],
    "metadata.parse_metadata": [(metadata, "parse_metadata")],
    "metadata.serialize_metadata": [(metadata, "serialize_metadata")],
    "metadata.check_minimum_information": [(metadata, "check_minimum_information")],
    "formats.classify_format": [(formats, "classify_format")],
    "formats.format_for_filename": [(formats, "format_for_filename")],
    "formats.infer_extension": [(formats, "infer_extension")],
    "archive.open_archive": [(archive, "open_archive")],
    "archive.validate_archive": [(archive, "validate_archive")],
    "archive.create_archive": [(archive, "create_archive")],
    "archive.pack_directory": [(archive, "pack_directory")],
    "archive.extract_all": [(archive, "extract_all")],
    "archive.mutate": [(archive, "add_entry"), (archive, "remove_entry"),
                       (archive, "set_metadata")],
    "report.sorted": [(report.ValidationReport, "sorted")],
    "cli.main": [(cli, "main")],
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self.stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index] = (name, parent, start, time.perf_counter_ns())
                self.stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result
        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Per span name: calls, total ms and self ms (minus child spans)."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, dict] = {}
        for index, (name, _, start, end) in enumerate(self.spans):
            entry = totals.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["ms"] += (end - start) / 1e6
            entry["self_ms"] += (end - start - child_ns[index]) / 1e6
        return {"spans": totals, "counters": self.counters}


def rebind(owner, attr: str, wrapper) -> None:
    """Replace `owner.attr` everywhere in the package that bound the original."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name == "omexarchive" or name.startswith("omexarchive."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def install(tracer: Tracer) -> None:
    after = {
        "container.write_container":
            lambda result, *a, **k: tracer.count("container.archive_bytes", len(result)),
        "container.copy":
            lambda result, self, *a, **k: tracer.count("container.entries_copied", len(self)),
        "manifest.parse_manifest":
            lambda result, *a, **k: tracer.count("manifest.entries_parsed", len(result.entries)),
        "manifest.serialize_manifest":
            lambda result, m, *a, **k: tracer.count("manifest.entries_serialized", len(m.entries)),
        "metadata.parse_metadata":
            lambda result, *a, **k: tracer.count("metadata.blocks_parsed", len(result.blocks)),
        "metadata.serialize_metadata":
            lambda result, md, *a, **k: tracer.count("metadata.blocks_serialized", len(md.blocks)),
        "archive.extract_all":
            lambda result, *a, **k: tracer.count("archive.files_written", len(result)),
        "archive.validate_archive":
            lambda result, *a, **k: tracer.count("report.findings", len(result)),
    }
    for span, targets in SPANS.items():
        for owner, attr in targets:
            rebind(owner, attr, tracer.wrap(span, getattr(owner, attr), after.get(span)))

    check_location = manifest.check_location

    def counted_check_location(location):
        tracer.count("manifest.check_location.calls")
        return check_location(location)

    rebind(manifest, "check_location", counted_check_location)

    read, writestr = zipfile.ZipFile.read, zipfile.ZipFile.writestr

    def counted_read(self, name, pwd=None):
        data = read(self, name, pwd)
        info = name if isinstance(name, zipfile.ZipInfo) else self.getinfo(name)
        tracer.count("container.entries_read")
        if info.compress_type == zipfile.ZIP_DEFLATED:
            tracer.count("container.bytes_inflated", len(data))
        return data

    def counted_writestr(self, zinfo_or_arcname, data, compress_type=None, compresslevel=None):
        if compress_type is None:
            compress_type = (zinfo_or_arcname.compress_type
                             if isinstance(zinfo_or_arcname, zipfile.ZipInfo)
                             else self.compression)
        tracer.count("container.entries_written")
        tracer.count("container.raw_bytes_written", len(data))
        if compress_type == zipfile.ZIP_DEFLATED:
            tracer.count("container.bytes_deflated", len(data))
        return writestr(self, zinfo_or_arcname, data, compress_type, compresslevel)

    zipfile.ZipFile.read = counted_read
    zipfile.ZipFile.writestr = counted_writestr


def main(argv: list[str]) -> int:
    options = {}
    while argv and argv[0] in ("--summary", "--spans"):
        options[argv[0]] = argv[1]
        argv = argv[2:]
    mode, rest = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    if mode == "cli":
        code = omexarchive.cli.main(rest)
    elif mode == "edit":
        import edit
        code = edit.main(rest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    with open(options["--spans"], "w") as f:
        json.dump(tracer.spans, f)
    with open(options["--summary"], "w") as f:
        json.dump(tracer.summary(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
