"""Shared diagnostic core for the static-analysis subsystem.

Every rule in :mod:`repro.checks` — model DRC and codebase lint alike —
reports through the same vocabulary:

* a :class:`Rule` (stable identifier, title, rationale, default severity)
  registered in a process-wide registry so IDs stay unique and documented;
* a :class:`Diagnostic` (rule ID, severity, location, message, fix hint);
* a :class:`CheckReport` accumulating diagnostics, with plain-text and
  machine-readable JSON renderings.

Rule IDs are part of the tool's contract: tests, suppression comments
(``# repro: noqa RULE-ID``) and CI all key on them, so IDs are never
reused or renamed (see ``docs/CHECKS.md``).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional


class Severity(enum.Enum):
    """How bad a diagnostic is.

    ``ERROR`` means the checked artefact is unsafe to use (a simulation or
    reconfiguration built on it would misbehave or die mid-run); CI and the
    CLI exit non-zero on any error.  ``WARNING`` marks hazards that are
    legitimate in controlled circumstances (e.g. a differential bitstream
    with a guaranteed baseline).  ``INFO`` is advisory.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]


@dataclass(frozen=True)
class Rule:
    """One check, stable across releases."""

    id: str
    title: str
    rationale: str
    severity: Severity = Severity.ERROR


#: Process-wide registry: rule ID -> Rule.
_REGISTRY: Dict[str, Rule] = {}


def register_rule(
    rule_id: str, title: str, rationale: str, severity: Severity = Severity.ERROR
) -> Rule:
    """Register a rule (module import time).  IDs must be unique."""
    if rule_id in _REGISTRY:
        existing = _REGISTRY[rule_id]
        if existing.title != title:
            raise ValueError(f"rule ID {rule_id!r} already registered as {existing.title!r}")
        return existing
    rule = Rule(id=rule_id, title=title, rationale=rationale, severity=severity)
    _REGISTRY[rule_id] = rule
    return rule


def get_rule(rule_id: str) -> Rule:
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(f"unknown rule ID {rule_id!r}") from None


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by ID."""
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule violated at a location."""

    rule: str
    severity: Severity
    message: str
    #: Source file (lint) — repo-relative where possible.
    file: Optional[str] = None
    #: 1-based source line (lint).
    line: Optional[int] = None
    #: Logical object path (DRC), e.g. ``"system64.plb"`` or ``"chain[2]"``.
    obj: Optional[str] = None
    #: Short actionable suggestion.
    hint: Optional[str] = None

    def location(self) -> str:
        if self.file is not None:
            where = self.file if self.line is None else f"{self.file}:{self.line}"
        else:
            where = self.obj or "<unknown>"
        return where

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
        }
        for key in ("file", "line", "obj", "hint"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        return data

    def render(self) -> str:
        text = f"{self.severity.value.upper():7s} {self.rule}  {self.location()}: {self.message}"
        if self.hint:
            text += f"\n        hint: {self.hint}"
        return text


class CheckReport:
    """Accumulator shared by every check pass."""

    def __init__(self) -> None:
        self.diagnostics: List[Diagnostic] = []

    # -- collection -------------------------------------------------------
    def add(
        self,
        rule_id: str,
        message: str,
        *,
        file: Optional[str] = None,
        line: Optional[int] = None,
        obj: Optional[str] = None,
        hint: Optional[str] = None,
        severity: Optional[Severity] = None,
    ) -> Diagnostic:
        """Record one finding; severity defaults to the rule's."""
        rule = get_rule(rule_id)
        diag = Diagnostic(
            rule=rule.id,
            severity=severity or rule.severity,
            message=message,
            file=file,
            line=line,
            obj=obj,
            hint=hint,
        )
        self.diagnostics.append(diag)
        return diag

    def extend(self, other: "CheckReport") -> "CheckReport":
        self.diagnostics.extend(other.diagnostics)
        return self

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    # -- queries ----------------------------------------------------------
    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def summary(self) -> Dict[str, int]:
        counts = {"error": 0, "warning": 0, "info": 0}
        for diag in self.diagnostics:
            counts[diag.severity.value] += 1
        return counts

    # -- rendering ---------------------------------------------------------
    def sorted(self) -> List[Diagnostic]:
        """Most severe first, then by location for stable output."""
        return sorted(
            self.diagnostics,
            key=lambda d: (-d.severity.rank, d.file or "", d.line or 0, d.obj or "", d.rule),
        )

    def format_text(self) -> str:
        if not self.diagnostics:
            return "no findings"
        lines = [diag.render() for diag in self.sorted()]
        counts = self.summary()
        lines.append(
            f"{counts['error']} error(s), {counts['warning']} warning(s), "
            f"{counts['info']} info"
        )
        return "\n".join(lines)

    def to_json(self, indent: Optional[int] = 2) -> str:
        payload = {
            "version": 1,
            "summary": self.summary(),
            "diagnostics": [diag.as_dict() for diag in self.sorted()],
        }
        return json.dumps(payload, indent=indent)


def merge(reports: Iterable[CheckReport]) -> CheckReport:
    merged = CheckReport()
    for report in reports:
        merged.extend(report)
    return merged
