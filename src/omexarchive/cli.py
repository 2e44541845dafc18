"""Command-line front end: pack, unpack, list, validate, info, meta.

Exit codes: 0 success / no validation errors, 1 validation errors
present, 2 any failure (usage, I/O, an unreadable archive or an
unexpected exception), reported as one `error:` line on stderr.
`--json` output carries a schemaVersion field for pipeline consumers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from pathlib import Path

from .archive import (
    Archive,
    ValidationMode,
    extract_all,
    open_archive,
    pack_directory,
    set_metadata,
    validate_archive,
)
from .formats import EXTENSIONS, classify_format, infer_extension
from .manifest import write_element
from .metadata import (
    _ABOUT_ATTR,
    _RESOURCE_ATTR,
    Creator,
    DescriptionBlock,
    MetadataSet,
    Timestamp,
)
from .report import Severity

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def parse_creator(text: str) -> Creator:
    """Parse 'Given Family <email>'; a single token is a family name."""
    email = None
    m = re.search(r"<([^<>]*)>", text)
    if m:
        email = m.group(1).strip() or None
        text = (text[: m.start()] + text[m.end():]).strip()
    tokens = text.split()
    family = tokens[-1] if tokens else None
    given = " ".join(tokens[:-1]) or None
    creator = Creator(family_name=family, given_name=given, email=email)
    if creator.is_empty():
        raise ValueError(f"cannot parse creator: {text!r}")
    return creator


def _open(path: str) -> Archive:
    return open_archive(Path(path).read_bytes())


def cmd_pack(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        return _fail(f"not a directory: {directory}")
    overrides = {}
    for item in args.format or []:
        location, sep, uri = item.partition("=")
        if not sep or not uri:
            return _fail(f"--format expects LOCATION=URI, got {item!r}")
        overrides[location] = uri
    stamp = not args.no_stamp and os.environ.get("OMEX_NO_STAMP") != "1"
    creator = parse_creator(args.creator) if args.creator else None
    archive = pack_directory(
        directory,
        masters=set(args.master or []),
        format_overrides=overrides,
        stamp=stamp,
        creator=creator,
    )
    ext = args.ext
    if ext == "auto":
        ext = infer_extension(archive.manifest)
    out = Path(args.output).with_suffix("." + ext)
    out.write_bytes(archive.to_bytes())
    print(out)
    return EXIT_OK


def cmd_unpack(args) -> int:
    for path in extract_all(_open(args.archive), args.destination):
        print(path)
    return EXIT_OK


def cmd_list(args) -> int:
    archive = _open(args.archive)
    rows = []
    for entry in archive.manifest.entries:
        size = None
        if entry.path in archive.container:
            size = len(archive.container.get(entry.path))
        rows.append(
            {
                "location": entry.path,
                "format": entry.format,
                "formatClass": classify_format(entry.format).kind.value,
                "size": size,
                "master": bool(entry.master),
            }
        )
    if args.json:
        print(json.dumps({"schemaVersion": SCHEMA_VERSION, "entries": rows}, indent=2))
    else:
        for row in rows:
            size = "-" if row["size"] is None else str(row["size"])
            master = "*" if row["master"] else " "
            print(f"{master} {size:>10}  {row['location']}  [{row['format']}]")
    return EXIT_OK


def cmd_validate(args) -> int:
    mode = ValidationMode.LENIENT if args.lenient else ValidationMode.STRICT
    report = validate_archive(Path(args.archive).read_bytes(), mode)
    if args.json:
        payload = {"schemaVersion": SCHEMA_VERSION, "mode": mode.value}
        payload.update(report.to_json())
        print(json.dumps(payload, indent=2))
    else:
        for finding in report:
            label = "ERROR" if finding.severity is Severity.ERROR else "WARNING"
            print(f"{label} {finding.rule} at {finding.location or '(archive)'}: "
                  f"{finding.message}")
        print(f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)")
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _print_kept(elem, indent: str) -> None:
    """One line for a kept element: its tag as a URI, then the resources and text it holds."""
    if not isinstance(elem.tag, str):  # a comment or processing instruction, as written
        out = [indent]
        write_element(out, elem, str)
        print("".join(out))
        return
    values = [value for e in elem.iter() if isinstance(e.tag, str)
              for value in (e.get(_RESOURCE_ATTR), e.get(_ABOUT_ATTR), (e.text or "").strip())
              if value]
    print(f"{indent}{elem.tag.lstrip('{').replace('}', '', 1)}: {' '.join(values)}")


def _print_block(block: DescriptionBlock) -> None:
    print(f"about: {block.about}")
    if block.description:
        print(f"  description: {block.description}")
    for creator in block.creators:
        print(f"  creator: {creator.display()}")
    if block.created:
        print(f"  created: {block.created}")
    for stamp in block.modified:
        print(f"  modified: {stamp}")
    for elem in block.kept:
        _print_kept(elem, "  ")


def _show(archive: Archive) -> int:
    if archive.metadata_error is not None:
        print(f"metadata-unreadable: {archive.metadata_error}")
    elif archive.metadata is None or not (archive.metadata.blocks or archive.metadata.kept):
        print("no metadata")
    else:
        for key in sorted(archive.metadata.blocks):
            _print_block(archive.metadata.blocks[key])
        for node in archive.metadata.kept:
            _print_kept(node, "")
    return EXIT_OK


def cmd_info(args) -> int:
    return _show(_open(args.archive))


def cmd_meta(args) -> int:
    archive = _open(args.archive)
    if args.action == "show":
        return _show(archive)
    if archive.metadata_error is not None:
        return _fail(f"{archive.metadata_path} is unreadable: {archive.metadata_error}")
    metadata = archive.metadata or MetadataSet()
    # a new block with new lists, so the opened archive's metadata is not changed
    block = metadata.blocks.get(".") or DescriptionBlock(about=".")
    block = dataclasses.replace(
        block,
        description=block.description if args.description is None else args.description,
        creators=block.creators + [parse_creator(text) for text in args.creator or []],
        modified=block.modified + ([Timestamp.now()] if args.touch else []),
    )
    metadata = dataclasses.replace(metadata, blocks={**metadata.blocks, ".": block})
    Path(args.archive).write_bytes(set_metadata(archive, metadata).to_bytes())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omex",
        description="Create, inspect and validate OMEX / COMBINE archives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pack = sub.add_parser("pack", help="pack a directory into an archive")
    pack.add_argument("directory")
    pack.add_argument("output")
    pack.add_argument("--master", action="append", metavar="LOCATION",
                      help="flag a location as a master entry (repeatable)")
    pack.add_argument("--format", action="append", metavar="LOCATION=URI",
                      help="override the format URI for a location (repeatable)")
    pack.add_argument("--no-stamp", action="store_true",
                      help="skip the auto-generated creation metadata")
    pack.add_argument("--creator", metavar="'Given Family <email>'",
                      help="creator for the auto-generated metadata")
    pack.add_argument(
        "--ext", default="auto",
        choices=["auto", *EXTENSIONS],
        help="output extension; 'auto' infers it from the manifest",
    )
    pack.set_defaults(func=cmd_pack)

    unpack = sub.add_parser("unpack", help="extract an archive to a directory")
    unpack.add_argument("archive")
    unpack.add_argument("destination")
    unpack.set_defaults(func=cmd_unpack)

    lst = sub.add_parser("list", help="list the archive contents")
    lst.add_argument("archive")
    lst.add_argument("--json", action="store_true")
    lst.set_defaults(func=cmd_list)

    val = sub.add_parser("validate", help="validate an archive")
    val.add_argument("archive")
    group = val.add_mutually_exclusive_group()
    group.add_argument("--strict", action="store_true", default=True)
    group.add_argument("--lenient", action="store_true")
    val.add_argument("--json", action="store_true")
    val.set_defaults(func=cmd_validate)

    info = sub.add_parser("info", help="show the archive metadata summary")
    info.add_argument("archive")
    info.set_defaults(func=cmd_info)

    meta = sub.add_parser("meta", help="show or edit archive metadata")
    meta.add_argument("archive")
    meta_sub = meta.add_subparsers(dest="action", required=True)
    show = meta_sub.add_parser("show")
    show.set_defaults(func=cmd_meta)
    setp = meta_sub.add_parser("set")
    setp.add_argument("--creator", action="append",
                      metavar="'Given Family <email>'")
    setp.add_argument("--description")
    setp.add_argument("--touch", action="store_true",
                      help="append a last-modified timestamp")
    setp.set_defaults(func=cmd_meta)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except Exception as exc:  # every failure, expected or not, exits 2
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
