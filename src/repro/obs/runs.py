"""Run manifests and the JSONL run ledger.

Every CLI subcommand, experiment, and benchmark run can record *how* it
ran — the provenance a result needs to be interpretable later:

- a :class:`RunManifest` captures run id, UTC timestamp, CLI argv,
  resolved parameters, a deterministic **config hash**, seed, **git
  SHA**, Python/platform, wall time, **peak RSS**, a per-stage span
  table with a content digest, the metrics snapshot, a
  :class:`~repro.obs.quality.QualityReport`, and the run's headline
  result numbers;
- a :class:`RunLedger` appends manifests as JSON lines (one run per
  line, ``results/runs.jsonl`` by default) and reads them back for the
  ``repro obs`` CLI family (``runs`` / ``show`` / ``diff`` / ``check``);
- :class:`RunRecorder` is the context helper the CLI and benchmark
  harness wrap a run in: it times the run, then snapshots the active
  span collector / metrics registry / quality monitor into the manifest.

Everything is stdlib-only and opt-in: nothing in the library imports
this module on the hot path, and with the ledger disabled (``repro
--no-ledger`` or ``REPRO_LEDGER=0``) no manifest is ever built.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.obs.quality import QualityReport

__all__ = [
    "MANIFEST_SCHEMA",
    "RunLedger",
    "RunManifest",
    "RunRecorder",
    "config_fingerprint",
    "default_ledger_path",
    "git_revision",
    "new_run_id",
    "peak_rss_bytes",
    "record_bench",
    "write_manifest_json",
]

MANIFEST_SCHEMA = 1

DEFAULT_LEDGER = "results/runs.jsonl"


# ---------------------------------------------------------------------------
# Provenance probes
# ---------------------------------------------------------------------------
def new_run_id() -> str:
    """A unique, sortable run id: ``<UTC compact timestamp>-<6 hex>``."""
    # lint: allow[DET002] run ids are provenance, stamped at wall-clock
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    # lint: allow[DET003] run-id entropy must differ across runs by design
    return f"{stamp}-{os.urandom(3).hex()}"


def _canonical(value: Any) -> Any:
    """Coerce a parameter structure to a canonical JSON-able form.

    Dicts are key-sorted downstream by ``json.dumps(sort_keys=True)``;
    here we normalise the values: tuples/sets become lists (sets sorted
    by repr for determinism), enums become their ``value``, numpy
    scalars unwrap, dataclass-like objects fall back to ``vars``.
    """
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_canonical(v) for v in value), key=repr)
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, int):
        return value
    if isinstance(value, enum.Enum):
        return _canonical(value.value)
    if hasattr(value, "item"):  # numpy scalar
        return _canonical(value.item())
    if hasattr(value, "__dataclass_fields__"):
        return _canonical(vars(value))
    return repr(value)


def config_fingerprint(params: Mapping[str, Any] | Any) -> str:
    """Deterministic SHA-256 over the canonical JSON of ``params``.

    Stable across processes and ``PYTHONHASHSEED`` values: the only
    sources of order are sorted keys and the input values themselves.
    Accepts mappings, dataclasses (e.g. ``BSTConfig``), or any nested
    structure of scalars/sequences.
    """
    canon = _canonical(params)
    payload = json.dumps(
        canon, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def git_revision(start: str | Path | None = None) -> str | None:
    """The current git commit SHA, or ``None`` outside a repository.

    Reads ``.git/HEAD`` directly (works without a ``git`` binary and
    costs no subprocess on the common path), falling back to
    ``git rev-parse HEAD`` for exotic layouts (worktrees, packed refs in
    unusual places).
    """
    root = Path(start) if start is not None else Path.cwd()
    for candidate in (root, *root.parents):
        git_dir = candidate / ".git"
        if git_dir.is_dir():
            sha = _read_git_head(git_dir)
            if sha:
                return sha
            break
        if git_dir.is_file():  # worktree: ".git" is a pointer file
            break
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(root),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _read_git_head(git_dir: Path) -> str | None:
    try:
        head = (git_dir / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref:"):
        return head or None
    ref = head.split(None, 1)[1].strip()
    ref_file = git_dir / ref
    try:
        return ref_file.read_text(encoding="utf-8").strip() or None
    except OSError:
        pass
    try:
        packed = (git_dir / "packed-refs").read_text(encoding="utf-8")
    except OSError:
        return None
    for line in packed.splitlines():
        if line.startswith("#") or line.startswith("^"):
            continue
        parts = line.split()
        if len(parts) == 2 and parts[1] == ref:
            return parts[0]
    return None


def peak_rss_bytes() -> int | None:
    """Peak resident set size of this process, in bytes (None if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - Windows
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if usage <= 0:
        return None
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    return int(usage) if sys.platform == "darwin" else int(usage) * 1024


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------
@dataclass
class RunManifest:
    """Provenance record of one pipeline run (one ledger line)."""

    run_id: str
    kind: str  # "cli" | "experiment" | "bench"
    name: str  # subcommand, "experiment.<id>", or "bench.<id>"
    started_utc: str
    argv: list[str] = field(default_factory=list)
    params: dict[str, Any] = field(default_factory=dict)
    config_hash: str = ""
    seed: int | None = None
    git_sha: str | None = None
    python: str = ""
    platform: str = ""
    wall_s: float = 0.0
    peak_rss_bytes: int | None = None
    exit_code: int | None = None
    span_table: dict[str, dict[str, float]] = field(default_factory=dict)
    span_digest: str | None = None
    metrics: dict[str, dict[str, float]] = field(default_factory=dict)
    quality: QualityReport | None = None
    results: dict[str, float] = field(default_factory=dict)
    schema: int = MANIFEST_SCHEMA

    def to_dict(self) -> dict[str, Any]:
        row = {
            "schema": self.schema,
            "run_id": self.run_id,
            "kind": self.kind,
            "name": self.name,
            "started_utc": self.started_utc,
            "argv": list(self.argv),
            "params": _canonical(self.params),
            "config_hash": self.config_hash,
            "seed": self.seed,
            "git_sha": self.git_sha,
            "python": self.python,
            "platform": self.platform,
            "wall_s": round(self.wall_s, 6),
            "peak_rss_bytes": self.peak_rss_bytes,
            "exit_code": self.exit_code,
            "span_table": self.span_table,
            "span_digest": self.span_digest,
            "metrics": _sanitize_metrics(self.metrics),
            "quality": self.quality.to_dict() if self.quality else None,
            "results": {
                k: _nan_safe(v) for k, v in self.results.items()
            },
        }
        return row

    @classmethod
    def from_dict(cls, row: Mapping[str, Any]) -> "RunManifest":
        quality = row.get("quality")
        return cls(
            run_id=row["run_id"],
            kind=row.get("kind", "cli"),
            name=row.get("name", ""),
            started_utc=row.get("started_utc", ""),
            argv=list(row.get("argv", [])),
            params=dict(row.get("params", {})),
            config_hash=row.get("config_hash", ""),
            seed=row.get("seed"),
            git_sha=row.get("git_sha"),
            python=row.get("python", ""),
            platform=row.get("platform", ""),
            wall_s=float(row.get("wall_s", 0.0)),
            peak_rss_bytes=row.get("peak_rss_bytes"),
            exit_code=row.get("exit_code"),
            span_table=dict(row.get("span_table", {})),
            span_digest=row.get("span_digest"),
            metrics=dict(row.get("metrics", {})),
            quality=(
                QualityReport.from_dict(quality) if quality else None
            ),
            results={
                k: _restore(v) for k, v in row.get("results", {}).items()
            },
            schema=int(row.get("schema", MANIFEST_SCHEMA)),
        )

    def render(self) -> str:
        """Full text view of the manifest (``repro obs show``)."""
        lines = [
            f"== run {self.run_id} ==",
            f"kind/name:    {self.kind} / {self.name}",
            f"started:      {self.started_utc}",
            f"argv:         {' '.join(self.argv) or '(none)'}",
            f"git sha:      {self.git_sha or 'n/a'}",
            f"config hash:  {self.config_hash[:16] or 'n/a'}",
            f"seed:         {self.seed if self.seed is not None else 'n/a'}",
            f"python:       {self.python}",
            f"platform:     {self.platform}",
            f"wall time:    {self.wall_s:.3f} s",
            f"peak RSS:     {_fmt_bytes(self.peak_rss_bytes)}",
            f"exit code:    "
            f"{self.exit_code if self.exit_code is not None else 'n/a'}",
        ]
        if self.params:
            lines.append("-- params --")
            for key in sorted(self.params):
                lines.append(f"{key}: {self.params[key]}")
        if self.span_table:
            lines.append(f"-- span table (digest {self.span_digest}) --")
            width = max(len(name) for name in self.span_table)
            lines.append(
                f"{'stage'.ljust(width)}  calls  total ms   p95 ms"
            )
            for name in sorted(
                self.span_table,
                key=lambda n: self.span_table[n].get("total_s", 0.0),
                reverse=True,
            ):
                entry = self.span_table[name]
                lines.append(
                    f"{name.ljust(width)}  "
                    f"{int(entry.get('count', 0)):>5}  "
                    f"{entry.get('total_s', 0.0) * 1e3:>8.1f}  "
                    f"{entry.get('p95_s', 0.0) * 1e3:>7.2f}"
                )
        if self.results:
            lines.append("-- results --")
            for key in sorted(self.results):
                lines.append(f"{key}: {self.results[key]:.6g}")
        if self.metrics:
            lines.append(f"-- metrics ({len(self.metrics)} instruments) --")
            for name in sorted(self.metrics):
                entry = self.metrics[name]
                if entry.get("type") == "histogram":
                    lines.append(
                        f"{name}: n={entry.get('count')} "
                        f"mean={_g(entry.get('mean'))} "
                        f"p95={_g(entry.get('p95'))}"
                    )
                else:
                    lines.append(f"{name}: {_g(entry.get('value'))}")
        if self.quality is not None:
            lines.append("-- data quality --")
            lines.append(self.quality.render())
        return "\n".join(lines)


def _nan_safe(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _restore(value: Any) -> float:
    return float("nan") if value is None else float(value)


def _g(value: Any) -> str:
    if value is None:
        return "n/a"
    try:
        return f"{float(value):g}"
    except (TypeError, ValueError):
        return str(value)


def _sanitize_metrics(
    metrics: Mapping[str, Mapping[str, Any]],
) -> dict[str, dict[str, Any]]:
    return {
        name: {k: _nan_safe(v) for k, v in entry.items()}
        for name, entry in metrics.items()
    }


def _fmt_bytes(n: int | None) -> str:
    if n is None:
        return "n/a"
    if n >= 1 << 30:
        return f"{n / (1 << 30):.2f} GiB"
    if n >= 1 << 20:
        return f"{n / (1 << 20):.1f} MiB"
    return f"{n} B"


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------
class RunLedger:
    """Append-only JSONL store of run manifests."""

    def __init__(self, path: str | Path = DEFAULT_LEDGER) -> None:
        self.path = Path(path)

    def append(self, manifest: RunManifest) -> None:
        """Append one manifest as a JSON line (creating parent dirs)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(manifest.to_dict(), sort_keys=True) + "\n")

    def read(self) -> list[RunManifest]:
        """Every parseable manifest, oldest first (corrupt lines skipped)."""
        if not self.path.exists():
            return []
        manifests: list[RunManifest] = []
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    manifests.append(RunManifest.from_dict(json.loads(line)))
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    continue
        return manifests

    def matching(
        self,
        kind: str | None = None,
        name: str | None = None,
    ) -> list[RunManifest]:
        """Manifests filtered by kind and/or name, oldest first."""
        return [
            m
            for m in self.read()
            if (kind is None or m.kind == kind)
            and (name is None or m.name == name)
        ]

    def find(self, run_id: str) -> RunManifest:
        """The manifest whose id equals or starts with ``run_id``.

        ``"latest"``/``"last"`` select the most recent run.  Raises
        ``KeyError`` when the id is unknown or the prefix ambiguous.
        """
        manifests = self.read()
        if not manifests:
            raise KeyError(f"run ledger {self.path} is empty")
        if run_id in ("latest", "last"):
            return manifests[-1]
        exact = [m for m in manifests if m.run_id == run_id]
        if exact:
            return exact[-1]
        prefixed = [m for m in manifests if m.run_id.startswith(run_id)]
        if not prefixed:
            raise KeyError(f"no run with id {run_id!r} in {self.path}")
        distinct = {m.run_id for m in prefixed}
        if len(distinct) > 1:
            raise KeyError(
                f"run id prefix {run_id!r} is ambiguous: {sorted(distinct)}"
            )
        return prefixed[-1]


def default_ledger_path() -> str | None:
    """The ledger path after the ``REPRO_LEDGER`` env override.

    ``REPRO_LEDGER=0`` / ``off`` / ``none`` / empty disables the ledger;
    any other value is used as the path; unset falls back to
    ``results/runs.jsonl``.
    """
    value = os.environ.get("REPRO_LEDGER")
    if value is None:
        return DEFAULT_LEDGER
    if value.strip().lower() in ("", "0", "off", "none", "false"):
        return None
    return value


# ---------------------------------------------------------------------------
# Recorder
# ---------------------------------------------------------------------------
class RunRecorder:
    """Times a run and snapshots the active obs sinks into a manifest.

    Usage::

        rec = RunRecorder(kind="cli", name="contextualize", argv=argv,
                          params=params, seed=seed)
        with use_collector() as collector, use_registry() as registry:
            with rec:
                code = run_the_command()
        manifest = rec.finish(
            exit_code=code, collector=collector, registry=registry
        )
        RunLedger(path).append(manifest)

    ``finish`` reads only the span collector, metrics registry and
    quality monitor it is passed, so the caller controls which sinks
    feed the manifest.
    """

    def __init__(
        self,
        kind: str,
        name: str,
        argv: Iterable[str] | None = None,
        params: Mapping[str, Any] | None = None,
        seed: int | None = None,
    ) -> None:
        self.kind = kind
        self.name = name
        self.argv = list(argv or [])
        self.params = dict(params or {})
        self.seed = seed
        self.run_id = new_run_id()
        # lint: allow[DET002] manifest start timestamp is provenance
        self.started_utc = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        self._start = None
        self._wall: float | None = None

    def __enter__(self) -> "RunRecorder":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._wall = time.perf_counter() - self._start

    def finish(
        self,
        exit_code: int | None = None,
        collector: Any = None,
        registry: Any = None,
        quality: Any = None,
        results: Mapping[str, float] | None = None,
        wall_s: float | None = None,
    ) -> RunManifest:
        """Build the manifest from the given sinks and outcome.

        A sink left as None contributes nothing.  The quality report's
        scalars are published as ``quality.*`` gauges into ``registry``
        before it is snapshotted, so the manifest's metrics carry them.
        """
        span_table: dict[str, dict[str, float]] = {}
        span_digest = None
        if getattr(collector, "enabled", False):
            span_table = collector.aggregate_stats()
            span_digest = hashlib.sha256(
                json.dumps(
                    span_table, sort_keys=True, separators=(",", ":")
                ).encode("utf-8")
            ).hexdigest()[:16]

        metrics_snap: dict[str, dict[str, float]] = {}
        quality_report = None
        if getattr(quality, "enabled", False):
            quality_report = quality.report()
        if getattr(registry, "enabled", False):
            if quality_report is not None:
                quality_report.publish_metrics(registry)
            metrics_snap = registry.snapshot()

        if wall_s is None:
            wall_s = self._wall if self._wall is not None else 0.0

        return RunManifest(
            run_id=self.run_id,
            kind=self.kind,
            name=self.name,
            started_utc=self.started_utc,
            argv=self.argv,
            params=self.params,
            config_hash=config_fingerprint(self.params),
            seed=self.seed,
            git_sha=git_revision(),
            python=platform.python_version(),
            platform=f"{platform.system()}-{platform.machine()}",
            wall_s=float(wall_s),
            peak_rss_bytes=peak_rss_bytes(),
            exit_code=exit_code,
            span_table=span_table,
            span_digest=span_digest,
            metrics=metrics_snap,
            quality=quality_report,
            results=dict(results or {}),
        )


def write_manifest_json(manifest: RunManifest, path: str | Path) -> Path:
    """Write one manifest as a standalone JSON file (``BENCH_<name>.json``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(manifest.to_dict(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return path


def record_bench(
    name: str,
    wall_s: float,
    collector: Any = None,
    registry: Any = None,
    quality: Any = None,
    results: Mapping[str, float] | None = None,
    params: Mapping[str, Any] | None = None,
    seed: int | None = None,
    out_dir: str | Path = ".",
) -> RunManifest:
    """Ledger one benchmark run and drop its ``BENCH_<name>.json``.

    The benchmark-harness entry point into the manifest writer: builds a
    ``kind="bench"`` manifest named ``bench.<name>`` from the given sinks
    and timings, writes ``<out_dir>/BENCH_<name>.json`` (CI uploads these
    as artifacts), and -- when the run ledger is enabled (see
    :func:`default_ledger_path`) -- appends the manifest so ``repro obs
    check`` can compare benchmark runs over time.
    """
    recorder = RunRecorder(
        kind="bench", name=f"bench.{name}", params=params, seed=seed
    )
    manifest = recorder.finish(
        exit_code=0,
        collector=collector,
        registry=registry,
        quality=quality,
        results=results,
        wall_s=wall_s,
    )
    safe = name.replace("/", "_")
    write_manifest_json(manifest, Path(out_dir) / f"BENCH_{safe}.json")
    ledger = default_ledger_path()
    if ledger is not None:
        RunLedger(ledger).append(manifest)
    return manifest
