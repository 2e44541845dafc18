"""Validation reports: ordered findings with severity, rule id and location."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    severity: Severity
    rule: str
    location: str
    message: str


@dataclass
class ValidationReport:
    """Findings in the order added; `sorted()` orders them by rule then location."""

    items: list[Finding] = field(default_factory=list)

    def add(self, severity: Severity, rule: str, location: str, message: str) -> None:
        self.items.append(Finding(severity, rule, location, message))

    def error(self, rule: str, location: str, message: str) -> None:
        self.add(Severity.ERROR, rule, location, message)

    def warning(self, rule: str, location: str, message: str) -> None:
        self.add(Severity.WARNING, rule, location, message)

    def extend(self, other: "ValidationReport") -> None:
        self.items.extend(other.items)

    def sorted(self) -> "ValidationReport":
        key = lambda f: (f.rule, f.location, f.severity.value, f.message)
        return ValidationReport(sorted(self.items, key=key))

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.items if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.items if f.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def to_json(self) -> dict:
        return {
            "items": [
                {
                    "severity": f.severity.value,
                    "rule": f.rule,
                    "location": f.location,
                    "message": f.message,
                }
                for f in self.items
            ],
            "errors": len(self.errors),
            "warnings": len(self.warnings),
        }
