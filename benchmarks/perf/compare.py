"""Parent against change, metric by metric, one row per workload.

The rule (choosing-metrics section 8): a change *gains* on a metric when
at least ten alternated pairs were run, it wins at least nine tenths of
them (ties count for neither side), and the medians differ by more than
the parent's own quartile spread.  It *regresses* when its median is
worse than the parent's by more than the metric's bound.  Where the
parent's run-to-run spread is wider than the bound the metric is
*unresolved* rather than unchanged, unless every change run beats every
parent run.

A relative bound is set per workload and metric: 1.5 times the spread
(IQR / median) the committed baseline of that workload measured, floored
at :data:`MIN_BOUND`.  With ten runs a side, the gap between the medians
of two sets of runs of the same code has a standard deviation of 0.42
IQR (normal approximation), so a false regression at 1 IQR would come
once in ~125 comparisons per metric: about one comparison in seven
across the ~20 relative metrics of the four workloads.  At 1.5 IQR it
is rare.  The declared bound (``BENCHMARK.json`` for the
end-to-end metrics, :data:`~benchmarks.perf.spec.DETAILS` for the
others) is only its ceiling: one end-to-end name serves every workload,
so its declared bound has to admit the noisiest of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from benchmarks.perf.spec import DETAILS, LADDERS, PERF_DIR, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9
MIN_BOUND = 0.05
SPREADS_PER_BOUND = 1.5
BASELINE_DIR = PERF_DIR / "baseline"


@dataclass(frozen=True)
class MetricSpec:
    name: str
    unit: str
    better: str
    bound: float
    kind: str  # "rel" | "abs" | "step"
    source: str  # "metrics" (BENCHMARK.json) or "details"


def specs(
    bench: dict, workload: str, baseline: list[dict] | None = None
) -> list[MetricSpec]:
    """Every metric ``compare`` judges for a workload, with its bound.

    Given ``baseline`` runs of the workload, each relative bound shrinks
    to 1.5 times the spread those runs show, but not below
    :data:`MIN_BOUND`.
    """
    out = [
        MetricSpec(
            m["name"], m["unit"], m["better"], m["bound"], "rel", "metrics"
        )
        for m in bench["end_to_end"]
    ]
    out += [
        MetricSpec(d.name, d.unit, d.better, d.bound, d.kind, "details")
        for d in DETAILS.get(workload, ())
    ]
    return [_fitted(spec, baseline or []) for spec in out]


def _fitted(spec: MetricSpec, baseline: list[dict]) -> MetricSpec:
    measured = values(baseline, spec)
    if spec.kind != "rel" or len(measured) < 4:
        return spec
    q1, median, q3 = quartiles(measured)
    spread = (q3 - q1) / abs(median) if median else spec.bound
    bound = max(MIN_BOUND, SPREADS_PER_BOUND * spread)
    return replace(spec, bound=min(spec.bound, bound))


def baseline_runs(workload: str) -> list[dict]:
    """The committed baseline runs of a workload (none if absent)."""
    path = BASELINE_DIR / f"{workload}.json"
    if not path.is_file():
        return []
    return load_runs(path).get(workload, [])


def values(runs: list[dict], spec: MetricSpec) -> list[float]:
    out = []
    for run in runs:
        value = run.get(spec.source, {}).get(spec.name)
        if isinstance(value, dict):
            value = value["value"]
        if value is not None:
            out.append(float(value))
    return out


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Untraced runs per workload, in the order they were made.

    Reads a committed baseline file or JSON lines written by
    ``run --record``.
    """
    text = path.read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "runs" in doc:
        rows = [dict(run, workload=doc["workload"]) for run in doc["runs"]]
    else:
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    grouped: dict[str, list[dict]] = {}
    for row in rows:
        if not row.get("trace"):
            grouped.setdefault(row["workload"], []).append(row)
    return grouped


def _steps(value: float, workload: str) -> float:
    """How many ladder rates ``value`` reaches (the ``step`` scale)."""
    nominal, ladder = LADDERS[workload]
    return float(sum(rate <= value for rate in (nominal, *ladder)))


def judge(
    parent: list[float], change: list[float], spec: MetricSpec, workload: str
) -> tuple[str, float]:
    """``(verdict, worsening)``; worsening is in the bound's terms."""
    sign = 1.0 if spec.better == "higher" else -1.0
    q1, median_p, q3 = quartiles(parent)
    median_c = quartiles(change)[1]
    if spec.kind == "rel":
        scale = abs(median_p) or 1.0
        worse = sign * (median_p - median_c) / scale
        spread = (q3 - q1) / scale
    elif spec.kind == "abs":
        worse = sign * (median_p - median_c)
        spread = q3 - q1
    else:
        steps_p = _steps(median_p, workload)
        worse = sign * (steps_p - _steps(median_c, workload))
        spread = _steps(q3, workload) - _steps(q1, workload)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and sign * (median_c - median_p) > q3 - q1
    ):
        return "gain", worse
    dominates = (
        min(change) > max(parent)
        if sign > 0
        else max(change) < min(parent)
    )
    if spread > spec.bound and not dominates:
        return "unresolved", worse
    if worse > spec.bound:
        return "REGRESSED", worse
    return "ok", worse


def _fmt(amount: float, spec: MetricSpec, sign: str = "+") -> str:
    if spec.kind == "rel":
        return f"{amount:{sign}.1%}"
    if spec.kind == "step":
        return f"{amount:{sign}g} steps"
    return f"{amount:{sign}.4g}"


def compare_files(parent_path: Path, change_path: Path, bench: dict) -> int:
    """Print one summary row per workload, then every metric; exit 1 on
    a regression."""
    parent, change = load_runs(parent_path), load_runs(change_path)
    summary, details = [], []
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        verdicts: dict[str, list[str]] = {}
        for spec in specs(bench, workload, baseline_runs(workload)):
            p, c = values(p_runs, spec), values(c_runs, spec)
            if not p or not c:
                continue
            verdict, worse = judge(p, c, spec, workload)
            verdicts.setdefault(verdict, []).append(spec.name)
            delta = _fmt(-worse or 0.0, spec)  # a gain is positive
            details.append(
                f"{workload:<15} {spec.name:<18} {quartiles(p)[1]:>12.5g} "
                f"{quartiles(c)[1]:>12.5g} {delta:>12} "
                f"{_fmt(spec.bound, spec, ''):>10}  "
                f"{verdict}  ({min(len(p), len(c))} pairs, {spec.unit})"
            )
        cells = [
            f"{verdict}: {', '.join(names)}"
            for verdict, names in sorted(verdicts.items())
            if verdict != "ok"
        ]
        summary.append(
            f"{workload:<15} {len(p_runs)}/{len(c_runs)} runs  "
            + ("; ".join(cells) or "ok: within every bound")
        )
    if not summary:
        print("no workload appears in both files")
        return 2
    print("\n".join(summary))
    print()
    print(
        f"{'workload':<15} {'metric':<18} {'parent':>12} {'change':>12} "
        f"{'delta':>12} {'bound':>10}  verdict"
    )
    print("\n".join(details))
    return 1 if any("REGRESSED" in row for row in summary) else 0


def agreement(runs: list[dict], bench: dict, seeds: list[int]) -> dict:
    """Whether two sets of runs (one per seed) agree within each bound;
    the bounds are those ``compare`` derives from these runs."""
    workload = runs[0]["workload"]
    sets = [[r for r in runs if r["seed"] == seed] for seed in seeds]
    out = {}
    for spec in specs(bench, workload, runs):
        a, b = values(sets[0], spec), values(sets[1], spec)
        if not a or not b:
            continue
        _, worse = judge(a, b, spec, workload)
        qa, qb = quartiles(a), quartiles(b)
        out[spec.name] = {
            "set_medians": [qa[1], qb[1]],
            "set_quartiles": [[qa[0], qa[2]], [qb[0], qb[2]]],
            "gap": abs(worse),
            "bound": spec.bound,
            "kind": spec.kind,
            "ok": abs(worse) <= spec.bound,
        }
    return out
