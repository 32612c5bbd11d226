"""Findings and reports for the voltlint verifier and race sanitizer.

A :class:`Finding` names the smallest unit a human needs to locate the
problem: the function, the machine-level block label, the region id from
``compiled.attrs["regions"]``, the core, and (when one op is to blame)
the op itself.  The mutation harness asserts on exactly these fields, so
diagnostics are part of the verifier's contract, not cosmetics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class Finding:
    """One verifier diagnostic.

    ``kind`` is a stable machine-readable tag (``orphan-send``,
    ``missing-sync``, ...); ``message`` is the human explanation.  ``core``
    is None only for whole-block findings with no single core to blame.
    """

    kind: str
    function: str
    block: str
    region: int
    core: Optional[int]
    message: str
    op: Optional[str] = None
    suppressed: bool = False

    def location(self) -> str:
        where = f"{self.function}:{self.block} region={self.region}"
        if self.core is not None:
            where += f" core={self.core}"
        return where

    def render(self) -> str:
        text = f"[{self.kind}] {self.location()}: {self.message}"
        if self.op is not None:
            text += f" ({self.op})"
        if self.suppressed:
            text = f"(suppressed) {text}"
        return text

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "function": self.function,
            "block": self.block,
            "region": self.region,
            "core": self.core,
            "message": self.message,
            "op": self.op,
            "suppressed": self.suppressed,
        }


def match_suppression(finding: Finding, patterns: Sequence[str]) -> bool:
    """A suppression names a finding by ``kind``, ``kind:function``, or
    ``kind:function:block``; the longest spelling wins nothing -- any
    match suppresses."""
    keys = {
        finding.kind,
        f"{finding.kind}:{finding.function}",
        f"{finding.kind}:{finding.function}:{finding.block}",
    }
    return any(pattern in keys for pattern in patterns)


@dataclass
class VerificationReport:
    """The result of verifying one compiled program (one cell)."""

    benchmark: Optional[str] = None
    cores: int = 0
    strategy: Optional[str] = None
    findings: List[Finding] = field(default_factory=list)
    #: How much work the checks did -- a report that "passed" because it
    #: looked at nothing should be distinguishable from a clean pass.
    checked: Dict[str, int] = field(default_factory=dict)

    def add(self, finding: Finding) -> Finding:
        self.findings.append(finding)
        return finding

    def count(self, what: str, n: int = 1) -> None:
        self.checked[what] = self.checked.get(what, 0) + n

    @property
    def ok(self) -> bool:
        return not any(not f.suppressed for f in self.findings)

    def active_findings(self) -> List[Finding]:
        return [f for f in self.findings if not f.suppressed]

    def cell(self) -> str:
        parts = []
        if self.benchmark:
            parts.append(self.benchmark)
        if self.cores:
            parts.append(f"{self.cores}-core")
        if self.strategy:
            parts.append(self.strategy)
        return " ".join(parts) or "<program>"

    def render(self) -> str:
        lines = [
            f"verify {self.cell()}: "
            + ("OK" if self.ok else f"{len(self.active_findings())} finding(s)")
        ]
        if self.checked:
            checked = ", ".join(
                f"{name}={count}" for name, count in sorted(self.checked.items())
            )
            lines.append(f"  checked: {checked}")
        for finding in self.findings:
            lines.append(f"  {finding.render()}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "cores": self.cores,
            "strategy": self.strategy,
            "ok": self.ok,
            "checked": dict(self.checked),
            "findings": [f.to_dict() for f in self.findings],
        }


def merge_reports(
    reports: Sequence[VerificationReport],
) -> Dict[str, object]:
    """Fold per-cell reports into the JSON document the CI job uploads."""
    cells = [report.to_dict() for report in reports]
    active = sum(len(report.active_findings()) for report in reports)
    return {
        "schema": 1,
        "total_cells": len(cells),
        "total_findings": active,
        "ok": active == 0,
        "cells": cells,
    }
