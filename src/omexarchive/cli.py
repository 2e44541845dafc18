"""Command-line front end: pack, unpack, list, validate, info, meta.

Exit codes: 0 success / no validation errors, 1 validation errors
present, 2 any failure (usage, I/O, an unreadable archive or an
unexpected exception), reported as one `error:` line on stderr.
`--json` output carries a schemaVersion field for pipeline consumers.
"""

from __future__ import annotations

import argparse
import errno
import os
import re
import stat
import sys
from collections.abc import Iterator
from contextlib import contextmanager

from .archive import (
    Archive,
    _documents,
    _written,
    extract_all,
    open_archive,
    pack_directory,
    set_metadata,
    validate_archive,
)
from .errors import OmexError
from .formats import EXTENSIONS, classify_format, infer_extension
from .manifest import write_element
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
    from .metadata import Creator
    email, name = None, text
    m = re.search(r"<([^<>]*)>", text)
    if m:
        email = m.group(1).strip() or None
        name = (text[: m.start()] + text[m.end():]).strip()
    tokens = name.split()
    family = tokens[-1] if tokens else None
    given = " ".join(tokens[:-1]) or None
    creator = Creator(family_name=family, given_name=given, email=email)
    if creator.is_empty():
        raise ValueError(f"cannot parse creator: {text!r}")
    return creator


@contextmanager
def _archive_file(path: str):
    """The archive file at `path`, open while the caller reads it; a pipe,
    which cannot seek, is read whole."""
    with open(path, "rb") as file:
        yield file if file.seekable() else file.read()


@contextmanager
def _open(path: str, **private) -> Iterator[Archive]:
    """The archive at `path`, read from its file, which stays open until the block ends."""
    with _archive_file(path) as source:
        yield open_archive(source, **private)


@contextmanager
def _replace(path):
    """A new file beside the resolved target `path`, open for writing in
    binary, so no platform turns LF into CR LF, while the block runs. When
    the block ends cleanly the file is flushed to disk and renamed over the
    target; when it raises, the file is removed, so a write that fails
    leaves the target as it was. The file keeps the mode of the regular
    file it replaces; a new one gets the umask default. A directory at the
    target is refused before any byte is written. That refusal, a file
    that cannot be made there and a rename that fails are reported at
    `path`, not at the file's hidden name."""
    from pathlib import Path
    target = Path(path).resolve()
    temporary = target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")
    try:
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        out = open(temporary, "xb")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with out:
            if target.is_file():
                os.chmod(out.fileno() if os.chmod in os.supports_fd else temporary,
                         stat.S_IMODE(target.stat().st_mode))
            yield out
            out.flush()
            os.fsync(out.fileno())
        try:
            os.replace(temporary, target)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def cmd_pack(args) -> int:
    if not os.path.isdir(args.directory):
        return _fail(f"not a directory: {args.directory}")
    overrides = {}
    for item in args.format or []:
        location, sep, uri = item.partition("=")
        if not uri:  # also empty without "="
            return _fail(f"--format expects LOCATION=URI, got {item!r}")
        overrides[location] = uri
    creator = parse_creator(args.creator) if args.creator else None
    archive = pack_directory(
        args.directory,
        masters=set(args.master or []),
        format_overrides=overrides,
        stamp=not args.no_stamp,
        creator=creator,
    )
    ext = args.ext
    if ext == "auto":
        ext = infer_extension(archive.manifest)
    from pathlib import Path
    out = Path(args.output).with_suffix("." + ext)
    with _replace(out) as file:
        archive.write(file)
    print(out)
    return EXIT_OK


def cmd_unpack(args) -> int:
    with _open(args.archive, _keep=_written, _copied=True) as archive:
        for path in extract_all(archive, args.destination):
            print(path)
    return EXIT_OK


def cmd_list(args) -> int:
    with _open(args.archive) as archive:  # the manifest and each size are read at the open
        members = {member.path: member for member in archive.container.entries}
    rows = []
    for entry in archive.manifest.entries:
        member = members.get(entry.path)
        rows.append(
            {
                "location": entry.path,
                "format": entry.format,
                "formatClass": classify_format(entry.format).kind.value,
                "size": None if member is None else member.size,
                "master": bool(entry.master),
            }
        )
    if args.json:
        import json
        print(json.dumps({"schemaVersion": SCHEMA_VERSION, "entries": rows}, indent=2))
    else:
        for row in rows:
            size = "-" if row["size"] is None else str(row["size"])
            master = "*" if row["master"] else " "
            print(f"{master} {size:>10}  {row['location']}  [{row['format']}]")
    return EXIT_OK


def cmd_validate(args) -> int:
    mode = "lenient" if args.lenient else "strict"
    with _archive_file(args.archive) as source:
        report = validate_archive(source, mode)
    if args.json:
        import json
        payload = {"schemaVersion": SCHEMA_VERSION, "mode": mode, **report.to_json()}
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
    from .metadata import _ABOUT_ATTR, _RESOURCE_ATTR
    if not isinstance(elem.tag, str):  # a comment or processing instruction, as written
        out = [indent]
        write_element(out, elem, str)
        print("".join(out))
        return
    values, todo = [], [elem]
    while todo:  # in document order, tails included, comment and instruction text not
        node = todo.pop()
        if isinstance(node, str):
            values.append(node.strip())
        elif isinstance(node.tag, str):
            values += node.get(_RESOURCE_ATTR), node.get(_ABOUT_ATTR), (node.text or "").strip()
            todo += reversed([part for child in node for part in (child, child.tail or "")])
    print(f"{indent}{elem.tag.lstrip('{').replace('}', '', 1)}: {' '.join(filter(None, values))}")


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
    with _open(args.archive, _keep=_documents) as archive:
        return _show(archive)


def cmd_meta(args) -> int:
    if args.action == "show":
        with _open(args.archive, _keep=_documents) as archive:
            return _show(archive)
    # the archive is read from its file while the new one is written, and
    # closed before the rename, which Windows refuses over an open file; one
    # longer than 64 KiB as stored is checked by its copy or read alone
    import dataclasses
    from .metadata import DescriptionBlock, MetadataSet, Timestamp
    with _replace(args.archive) as out, _archive_file(args.archive) as source:
        archive = open_archive(source, _keep=_documents, _copied=True)
        if archive.metadata_error is not None:
            raise OmexError(f"{archive.metadata_path} is unreadable: {archive.metadata_error}")
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
        set_metadata(archive, metadata).write(out)
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
