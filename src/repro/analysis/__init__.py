"""Static analysis for the reproduction's own invariants (``repro lint``).

A zero-dependency AST lint framework plus a repo-specific rule set:
determinism (no wall-clock reads or unseeded RNGs in core paths),
correctness (no mutable default args, no silent broad excepts), and
observability discipline (span/metric names must match the documented
inventory), together with a lock-discipline checker for the threaded
serving and observability subsystems.  See docs/ANALYSIS.md for the
rule catalog.
"""

from repro.analysis.framework import (
    AnalysisReport,
    FileContext,
    Finding,
    Rule,
    analyze,
    check_source,
)
from repro.analysis.registry import catalog, default_rules, register, rules_for
from repro.analysis.report import render_json, render_text

__all__ = [
    "AnalysisReport",
    "FileContext",
    "Finding",
    "Rule",
    "analyze",
    "catalog",
    "check_source",
    "default_rules",
    "register",
    "render_json",
    "render_text",
    "rules_for",
]
