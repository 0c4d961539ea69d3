"""Rendering for ``repro lint``: grouped text and machine-readable JSON."""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.analysis.framework import AnalysisReport, Finding

__all__ = ["render_json", "render_text", "summary_line"]


def _group_by_path(findings: Iterable[Finding]) -> dict[str, list[Finding]]:
    groups: dict[str, list[Finding]] = {}
    for finding in findings:
        groups.setdefault(finding.path, []).append(finding)
    return groups


def summary_line(report: AnalysisReport) -> str:
    n = len(report.findings)
    parts = [
        f"{n} finding{'s' if n != 1 else ''}",
        f"{report.n_files} files",
        f"{len(report.rules_run)} rules",
    ]
    if report.suppressed:
        parts.append(f"{len(report.suppressed)} allowed inline")
    return ", ".join(parts)


def render_text(report: AnalysisReport) -> str:
    """Human-readable findings, grouped per file, summary last."""
    lines: list[str] = []
    for path, findings in sorted(_group_by_path(report.findings).items()):
        lines.append(path)
        for finding in findings:
            lines.append(
                f"  {finding.line}:{finding.col}  {finding.rule_id} "
                f"[{finding.severity}]  {finding.message}"
            )
            if finding.hint:
                lines.append(f"      hint: {finding.hint}")
        lines.append("")
    lines.append(
        ("FAIL " if report.findings else "OK ")
        + summary_line(report)
    )
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    """One JSON document (the CI artifact format)."""
    payload: dict[str, Any] = report.to_dict()
    payload["summary"] = summary_line(report)
    return json.dumps(payload, indent=2, sort_keys=True)
