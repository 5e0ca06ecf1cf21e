"""Findings model: severities, suppression, baseline, JSON report.

A :class:`Finding` is one checker hit.  Its identity for baseline
purposes is the :meth:`Finding.fingerprint` — deliberately
line-number-free so that unrelated edits above a baselined finding do
not resurrect it.  The committed baseline
(``tools/analyze/baseline.json``) is the set of fingerprints the repo
has accepted; CI fails on any finding outside it.  The repo's policy is
that the baseline stays *empty* — it exists as the escape hatch for
landing the framework ahead of a fix, not as a parking lot.

Per-line suppression reuses the pre-existing lint marker: a trailing
``# lint: ok`` comment drops every finding on that line (reserved for
code the analyses cannot classify correctly; say why next to it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

#: Severity levels, in increasing order of concern.  ``error`` findings
#: are invariant violations (crashes, confinement breaks); ``warn`` are
#: discipline regressions (hot-path waste); ``info`` is advisory.
SEVERITIES = ("info", "warn", "error")

#: The suppression marker: one annotation syntax serves every static
#: check in the repo.
SUPPRESS_MARKER = "lint: ok"


@dataclass(frozen=True)
class Finding:
    """One static-analysis hit."""

    path: str          #: file path as reported (relative to repo root in CI)
    line: int          #: 1-based line number
    checker: str       #: checker name, e.g. "dissector-safety"
    rule: str          #: rule id within the checker, e.g. "ds-unguarded-read"
    message: str       #: human-readable explanation
    severity: str = "error"
    function: str = ""  #: enclosing function qualname, when known

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def __str__(self) -> str:
        return (f"{self.path}:{self.line}: [{self.checker}/{self.rule}] "
                f"{self.message}")

    def fingerprint(self) -> str:
        """Line-independent identity used by the baseline."""
        return f"{self.path}::{self.rule}::{self.function}::{self.message}"

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "checker": self.checker,
            "rule": self.rule,
            "severity": self.severity,
            "function": self.function,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }


def suppressed(source_lines: list[str], line: int) -> bool:
    """Whether *line* (1-based) carries the suppression marker."""
    if 1 <= line <= len(source_lines):
        return SUPPRESS_MARKER in source_lines[line - 1]
    return False


@dataclass
class Baseline:
    """The committed set of accepted finding fingerprints."""

    fingerprints: set[str] = field(default_factory=set)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        if not Path(path).exists():
            return cls()
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(fingerprints=set(data.get("findings", [])))

    def save(self, path: Path) -> None:
        payload = {"version": 1, "findings": sorted(self.fingerprints)}
        Path(path).write_text(json.dumps(payload, indent=2) + "\n",
                              encoding="utf-8")

    def split(self, findings: Iterable[Finding]
              ) -> tuple[list[Finding], list[Finding]]:
        """Partition into (new, baselined) findings."""
        new: list[Finding] = []
        old: list[Finding] = []
        for finding in findings:
            (old if finding.fingerprint() in self.fingerprints
             else new).append(finding)
        return new, old


@dataclass
class Report:
    """One analysis run's output, serializable for the CI artifact."""

    root: str
    checkers: list[str]
    findings: list[Finding]
    baselined: list[Finding] = field(default_factory=list)
    suppressed_count: int = 0
    modules_analyzed: int = 0
    elapsed_s: float = 0.0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_json(self) -> dict:
        by_severity: dict[str, int] = {s: 0 for s in SEVERITIES}
        for finding in self.findings:
            by_severity[finding.severity] += 1
        return {
            "root": self.root,
            "checkers": self.checkers,
            "modules_analyzed": self.modules_analyzed,
            "elapsed_s": round(self.elapsed_s, 3),
            "counts": {
                "new": len(self.findings),
                "baselined": len(self.baselined),
                "suppressed": self.suppressed_count,
                "by_severity": by_severity,
            },
            "findings": [f.to_json() for f in self.findings],
            "baselined": [f.to_json() for f in self.baselined],
        }

    def write_json(self, path: Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json(), indent=2) + "\n", encoding="utf-8")
