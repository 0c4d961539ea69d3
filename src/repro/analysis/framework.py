"""AST lint framework: file contexts, rules, allow directives, the runner.

The analysis subsystem walks a Python source tree (``src/`` by default),
parses every file once, and hands the shared :class:`FileContext` to a
set of registered :class:`Rule` objects.  Each rule yields
:class:`Finding` objects -- ``path:line:col``, a stable rule id, a
severity, a human message, and a fix hint -- which the ``repro lint``
CLI renders as text or JSON and gates CI on.

Everything here is stdlib-only (``ast``, ``tokenize``, ``re``), mirroring
the zero-dependency discipline of :mod:`repro.obs`.

Suppression
-----------
A finding can be silenced in place with a *justified* allow directive on
the same line (or the line directly above)::

    created_s=time.time(),  # lint: allow[DET002] registration timestamp

The justification text is mandatory: a bare ``# lint: allow[DET002]``
does not suppress anything and instead raises a ``LINT001`` finding, so
every grandfathered violation documents *why* it is sanctioned.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

__all__ = [
    "AllowDirective",
    "AnalysisReport",
    "FileContext",
    "Finding",
    "Rule",
    "analyze",
    "build_context",
    "check_source",
    "iter_python_files",
]

SEVERITIES = ("error", "warning")


@dataclass(frozen=True, order=True)
class Finding:
    """One reported violation, anchored to a source location."""

    path: str  # posix-style path relative to the scan root
    line: int
    col: int
    rule_id: str
    severity: str
    message: str
    hint: str = ""
    snippet: str = ""  # the offending source line, stripped

    def format(self) -> str:
        text = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.severity}] {self.message}"
        )
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": self.severity,
            "message": self.message,
            "hint": self.hint,
            "snippet": self.snippet,
        }


@dataclass(frozen=True)
class AllowDirective:
    """One ``# lint: allow[RULE, ...] reason`` comment."""

    line: int
    rule_ids: frozenset[str]
    reason: str

    @property
    def justified(self) -> bool:
        return bool(self.reason)


_ALLOW_RE = re.compile(
    r"#\s*lint:\s*allow\[([A-Za-z0-9_*,\s]+)\]\s*(.*)$"
)


def parse_allows(source: str) -> list[AllowDirective]:
    """Extract allow directives from comment tokens (not string bodies)."""
    directives: list[AllowDirective] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.search(tok.string)
            if not match:
                continue
            ids = frozenset(
                part.strip()
                for part in match.group(1).split(",")
                if part.strip()
            )
            directives.append(
                AllowDirective(
                    line=tok.start[0],
                    rule_ids=ids,
                    reason=match.group(2).strip(" .-—:"),
                )
            )
    except tokenize.TokenError:
        pass  # the AST parse will report the syntax problem
    return directives


@dataclass
class FileContext:
    """Everything a rule needs about one source file (parsed once)."""

    path: Path  # absolute path on disk
    relpath: str  # posix path relative to the scan root
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    allows: list[AllowDirective] = field(default_factory=list)
    project_root: Path | None = None
    obs_doc: Path | None = None  # docs/OBSERVABILITY.md, when found

    @property
    def module(self) -> str:
        """Dotted module name (``repro.serve.server``)."""
        parts = Path(self.relpath).with_suffix("").parts
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def allowed_ids(self, line: int) -> frozenset[str]:
        """Justified allow ids covering ``line``.

        A trailing directive covers only its own line; a standalone
        comment line covers the line below it (so a directive tacked
        onto statement N never silently extends to statement N+1).
        """
        ids: set[str] = set()
        for directive in self.allows:
            if not directive.justified:
                continue
            if directive.line == line or (
                directive.line == line - 1
                and self.line_text(directive.line).startswith("#")
            ):
                ids |= directive.rule_ids
        return frozenset(ids)


class Rule:
    """Base class for one lint rule.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding findings for one :class:`FileContext`.  ``scopes`` limits a
    rule to dotted module prefixes (empty = the whole tree).
    """

    id: str = ""
    name: str = ""
    severity: str = "error"
    description: str = ""
    hint: str = ""
    scopes: tuple[str, ...] = ()

    def applies(self, ctx: FileContext) -> bool:
        if not self.scopes:
            return True
        module = ctx.module
        return any(
            module == scope or module.startswith(scope + ".")
            for scope in self.scopes
        )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST | int,
        message: str,
        hint: str | None = None,
    ) -> Finding:
        """Build a finding anchored to ``node`` (or a bare line number)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 0)
            col = getattr(node, "col_offset", 0)
        return Finding(
            path=ctx.relpath,
            line=line,
            col=col,
            rule_id=self.id,
            severity=self.severity,
            message=message,
            hint=self.hint if hint is None else hint,
            snippet=ctx.line_text(line),
        )


# ---------------------------------------------------------------------------
# File discovery and context construction
# ---------------------------------------------------------------------------
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "build", "dist"}


def iter_python_files(root: Path) -> list[Path]:
    """Every ``*.py`` under ``root``, sorted for deterministic output."""
    root = Path(root)
    if root.is_file():
        return [root]
    return sorted(
        path
        for path in root.rglob("*.py")
        if not (_SKIP_DIRS & set(path.parts))
    )


def find_obs_doc(root: Path) -> Path | None:
    """Locate docs/OBSERVABILITY.md relative to the scan root.

    Walks upward from ``root`` so both ``repro lint`` from a checkout
    and an explicit ``--root src`` resolve the same document.
    """
    for base in (root, *root.resolve().parents):
        candidate = base / "docs" / "OBSERVABILITY.md"
        if candidate.is_file():
            return candidate
    return None


def build_context(
    path: Path,
    root: Path,
    obs_doc: Path | None = None,
) -> "FileContext | Finding":
    """Parse one file; a :class:`Finding` stands in for a syntax error."""
    path = Path(path)
    root = Path(root)
    try:
        relpath = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        relpath = path.as_posix()
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as exc:
        return Finding(
            path=relpath,
            line=getattr(exc, "lineno", 0) or 0,
            col=0,
            rule_id="LINT002",
            severity="error",
            message=f"cannot parse file: {exc}",
            hint="fix the syntax error (nothing else was checked)",
        )
    return FileContext(
        path=path,
        relpath=relpath,
        source=source,
        tree=tree,
        lines=source.splitlines(),
        allows=parse_allows(source),
        project_root=root,
        obs_doc=obs_doc,
    )


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------
@dataclass
class AnalysisReport:
    """Outcome of one analysis run."""

    findings: list[Finding]
    suppressed: list[Finding]
    n_files: int
    rules_run: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": 1,
            "ok": self.ok,
            "files_checked": self.n_files,
            "rules_run": list(self.rules_run),
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
        }


def _directive_findings(ctx: FileContext, known_ids: set[str]) -> Iterator[Finding]:
    """LINT001: malformed or unjustified allow directives."""
    for directive in ctx.allows:
        if not directive.justified:
            yield Finding(
                path=ctx.relpath,
                line=directive.line,
                col=0,
                rule_id="LINT001",
                severity="error",
                message=(
                    "allow directive has no justification; write "
                    "'# lint: allow[RULE] <reason>'"
                ),
                hint="every suppression must say why it is sanctioned",
                snippet=ctx.line_text(directive.line),
            )
            continue
        unknown = sorted(
            rid for rid in directive.rule_ids
            if rid not in known_ids and rid != "*"
        )
        if unknown:
            yield Finding(
                path=ctx.relpath,
                line=directive.line,
                col=0,
                rule_id="LINT001",
                severity="error",
                message=(
                    "allow directive names unknown rule id(s): "
                    + ", ".join(unknown)
                ),
                hint="see docs/ANALYSIS.md for the rule catalog",
                snippet=ctx.line_text(directive.line),
            )


def analyze(
    root: str | Path,
    files: "Iterable[str | Path] | None" = None,
    rules: "Iterable[Rule] | None" = None,
    obs_doc: "str | Path | None" = None,
) -> AnalysisReport:
    """Run ``rules`` over every Python file under ``root``.

    ``files`` restricts the run to an explicit subset (still reported
    relative to ``root``).  ``obs_doc`` overrides the auto-located
    docs/OBSERVABILITY.md used by the observability naming rules.
    """
    from repro.analysis.registry import default_rules, known_rule_ids

    root = Path(root)
    rule_list = list(rules) if rules is not None else default_rules()
    # The full registry, not just the selected rules: a --select subset
    # run must not flag allow directives naming non-selected rules.
    known_ids = known_rule_ids() | {rule.id for rule in rule_list}
    doc = Path(obs_doc) if obs_doc is not None else find_obs_doc(root)
    paths = (
        [Path(p) for p in files] if files is not None
        else iter_python_files(root)
    )

    findings: list[Finding] = []
    suppressed: list[Finding] = []
    n_files = 0
    for path in paths:
        ctx = build_context(path, root, obs_doc=doc)
        if isinstance(ctx, Finding):
            findings.append(ctx)
            continue
        n_files += 1
        raw: list[Finding] = []
        for rule in rule_list:
            if rule.applies(ctx):
                raw.extend(rule.check(ctx))
        for item in raw:
            if item.rule_id in ctx.allowed_ids(item.line):
                suppressed.append(item)
            else:
                findings.append(item)
        findings.extend(_directive_findings(ctx, known_ids))
    findings.sort()
    suppressed.sort()
    return AnalysisReport(
        findings=findings,
        suppressed=suppressed,
        n_files=n_files,
        rules_run=tuple(sorted(rule.id for rule in rule_list)),
    )


def check_source(
    source: str,
    relpath: str = "repro/example.py",
    rules: "Iterable[Rule] | None" = None,
    obs_doc: "str | Path | None" = None,
) -> list[Finding]:
    """Lint a source string (test helper; applies allow directives)."""
    tree = ast.parse(source)
    ctx = FileContext(
        path=Path(relpath),
        relpath=relpath,
        source=source,
        tree=tree,
        lines=source.splitlines(),
        allows=parse_allows(source),
        obs_doc=Path(obs_doc) if obs_doc is not None else None,
    )
    from repro.analysis.registry import default_rules, known_rule_ids

    rule_list = list(rules) if rules is not None else default_rules()
    known_ids = known_rule_ids() | {rule.id for rule in rule_list}
    out: list[Finding] = []
    for rule in rule_list:
        if rule.applies(ctx):
            for item in rule.check(ctx):
                if item.rule_id not in ctx.allowed_ids(item.line):
                    out.append(item)
    out.extend(_directive_findings(ctx, known_ids))
    return sorted(out)
