"""The records every command builds, `Archive`, `Manifest`, `ContentEntry`,
`FormatClass`, `Finding` and `ValidationReport`, behave as the frozen (and,
for the report, plain) dataclasses they replace: equal values compare and
hash equal, each prints as the dataclass printed, and the frozen ones refuse
assignment. Building one costs no more than building that dataclass."""

import timeit
from dataclasses import dataclass, field

import pytest

from omexarchive import (
    Archive,
    Container,
    ContainerEntry,
    ContentEntry,
    Finding,
    FormatClass,
    FormatKind,
    Manifest,
    Severity,
    ValidationReport,
    classify_format,
)
from omexarchive.manifest import OMEX_FORMAT_URI, check_location

TEXT = "http://purl.org/NET/mediatypes/text/plain"


def _entry() -> ContentEntry:
    return ContentEntry("a%20b.txt", TEXT, True)


def _manifest() -> Manifest:
    return Manifest([ContentEntry(".", OMEX_FORMAT_URI), _entry()])


def _finding() -> Finding:
    return Finding(Severity.ERROR, "rule", "loc", "msg")


def _archive() -> Archive:
    return Archive(Container([ContainerEntry("a b.txt", b"x")]), _manifest())


def test_equal_values_compare_and_hash_equal():
    for make in (_entry, _manifest, _finding, lambda: FormatClass(FormatKind.INVALID, "x y")):
        assert make() == make() and hash(make()) == hash(make()), make
    assert ContentEntry("a.txt", TEXT) != ContentEntry("a.txt", TEXT, False)
    assert Manifest([_entry()]) != _manifest()
    assert _archive() == _archive()
    assert _archive() != Archive(Container([ContainerEntry("a b.txt", b"y")]), _manifest())
    assert ValidationReport([_finding()]) == ValidationReport([_finding()])
    assert ValidationReport() != ValidationReport([_finding()])
    assert classify_format(TEXT) == FormatClass(FormatKind.REGISTERED_MEDIA_TYPE, "text/plain")


def test_a_record_equals_no_other_kind_of_value():
    entry = _entry()
    assert entry != ("a%20b.txt", TEXT, True)
    assert _manifest() != _manifest().entries
    assert ValidationReport([_finding()]) != [_finding()]


def test_the_archive_and_the_report_stay_unhashable():
    with pytest.raises(TypeError):
        hash(_archive())  # its container compares by value and has no hash
    with pytest.raises(TypeError):
        hash(ValidationReport())


def test_each_prints_as_its_dataclass_printed():
    assert repr(_entry()) == (
        "ContentEntry(location='a%20b.txt', "
        "format='http://purl.org/NET/mediatypes/text/plain', master=True)")
    assert repr(_manifest()) == (
        "Manifest(entries=(ContentEntry(location='.', "
        "format='http://identifiers.org/combine.specifications/omex', master=None), "
        "ContentEntry(location='a%20b.txt', "
        "format='http://purl.org/NET/mediatypes/text/plain', master=True)))")
    assert repr(_finding()) == (
        "Finding(severity=<Severity.ERROR: 'error'>, rule='rule', location='loc', "
        "message='msg')")
    assert repr(FormatClass(FormatKind.INVALID, "x y")) == (
        "FormatClass(kind=<FormatKind.INVALID: 'invalid'>, key='x y')")
    assert repr(ValidationReport([_finding()])) == f"ValidationReport(items=[{_finding()!r}])"
    assert repr(ValidationReport()) == "ValidationReport(items=[])"
    archive = _archive()
    assert repr(archive) == (
        f"Archive(container={archive.container!r}, manifest={archive.manifest!r})")


@pytest.mark.parametrize("make,name", [
    (_entry, "location"), (_entry, "path"), (_entry, "other"),
    (_manifest, "entries"), (_manifest, "metadata_path"),
    (_archive, "container"), (_archive, "manifest"),
    (_finding, "rule"), (lambda: FormatClass(FormatKind.INVALID, "x"), "key"),
])
def test_a_frozen_record_refuses_assignment(make, name):
    value = make()
    before = getattr(value, name, None)
    with pytest.raises(AttributeError):
        setattr(value, name, "changed")
    assert getattr(value, name, None) == before


def test_an_entry_or_a_manifest_refuses_deletion():
    entry, manifest = _entry(), _manifest()
    with pytest.raises(AttributeError):
        del entry.location
    with pytest.raises(AttributeError):
        del manifest.entries
    assert entry.location == "a%20b.txt" and len(manifest.entries) == 2


def test_an_entry_holds_its_checked_path_and_no_dict():
    entry = ContentEntry("./a%20b.txt", TEXT)
    assert (entry.path, entry.master) == ("a b.txt", None)
    assert not hasattr(entry, "__dict__")


def test_a_report_stays_mutable():
    report = ValidationReport()
    report.items = [_finding()]
    report.warning("r", "l", "m")
    assert [f.severity for f in report] == [Severity.ERROR, Severity.WARNING]


@dataclass(frozen=True)
class _DataclassEntry:
    """ContentEntry as the frozen dataclass it was."""
    location: str
    format: str
    master: bool | None = None
    path: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "path", check_location(self.location))


@dataclass(frozen=True)
class _DataclassFinding:
    """Finding as the frozen dataclass it was."""
    severity: Severity
    rule: str
    location: str
    message: str


@pytest.mark.parametrize("record,dataclass_record,args", [
    (ContentEntry, _DataclassEntry, ("models/model.xml", TEXT, True)),
    (Finding, _DataclassFinding, (Severity.WARNING, "unlisted-file", "a.txt", "unlisted")),
], ids=["ContentEntry", "Finding"])
def test_building_a_record_costs_no_more_than_its_dataclass(record, dataclass_record, args):
    assert repr(record(*args)).partition("(")[2] == repr(dataclass_record(*args)).partition("(")[2]
    best = {record: float("inf"), dataclass_record: float("inf")}
    for _ in range(21):  # rounds alternate, so both see the same load
        for kind in best:
            best[kind] = min(best[kind], timeit.timeit(lambda: kind(*args), number=2_000))
    assert best[record] <= best[dataclass_record], best
