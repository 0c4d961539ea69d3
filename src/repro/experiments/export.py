"""Export experiment reports to a results directory.

``export_all`` runs every registered experiment (or a chosen subset) at
one scale and writes each rendered report to
``<out_dir>/<experiment>.txt`` plus a combined ``summary.txt`` and a
machine-readable ``metrics.csv``.  The CLI's ``report-all`` subcommand
wraps this.

With ``ledger`` set, every experiment additionally appends a
``kind="experiment"`` run manifest (name ``experiment.<id>``, carrying
the experiment's headline metrics, span table, and quality report) to
the given run ledger -- the per-experiment provenance trail ``repro obs
check`` compares against.

``scorecard`` reads ``metrics.csv`` files back -- one per seed -- and
scores every metric the paper reports a value for by its relative error.
``results/scorecard.csv`` is its table for seeds 0-9 at medium scale::

    for s in 0 1 2 3 4 5 6 7 8 9; do
        repro report-all --scale medium --seed $s --out-dir runs/s$s
    done
    PYTHONPATH=src python -m repro.experiments.export \\
        results/scorecard.csv runs/s*/metrics.csv
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.experiments.base import ExperimentResult, Scale
from repro.experiments.registry import REGISTRY, run_experiment
from repro.frame import ColumnTable, read_csv, write_csv

__all__ = ["export_all", "scorecard"]


def export_all(
    out_dir: str | Path,
    experiment_ids: list[str] | None = None,
    scale: Scale = Scale.MEDIUM,
    seed: int = 0,
    jobs: int = 1,
    ledger: str | Path | None = None,
) -> dict[str, ExperimentResult]:
    """Run experiments and write their reports under ``out_dir``.

    Returns the results keyed by experiment id.  Unknown ids raise
    before anything runs.  ``jobs`` is forwarded to each experiment (see
    :func:`run_experiment`).  ``ledger`` appends one run manifest per
    experiment to the given JSONL run ledger (see module docstring).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ids = sorted(REGISTRY) if experiment_ids is None else experiment_ids
    unknown = [eid for eid in ids if eid not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")

    results: dict[str, ExperimentResult] = {}
    summary_lines: list[str] = []
    metric_rows: dict[str, list] = {
        "experiment": [],
        "metric": [],
        "measured": [],
        "paper": [],
    }
    for eid in ids:
        if ledger is not None:
            result = _run_with_manifest(eid, scale, seed, jobs, ledger)
        else:
            result = run_experiment(eid, scale=scale, seed=seed, jobs=jobs)
        results[eid] = result
        report = result.render()
        (out_dir / f"{eid.replace('/', '_')}.txt").write_text(
            report + "\n"
        )
        summary_lines.append(report)
        summary_lines.append("")
        for name, value in result.metrics.items():
            metric_rows["experiment"].append(eid)
            metric_rows["metric"].append(name)
            metric_rows["measured"].append(float(value))
            paper = result.paper_values.get(name)
            metric_rows["paper"].append(
                float(paper) if paper is not None else float("nan")
            )
    (out_dir / "summary.txt").write_text("\n".join(summary_lines))
    write_csv(ColumnTable(metric_rows), out_dir / "metrics.csv")
    return results


def _run_with_manifest(
    eid: str, scale: Scale, seed: int, jobs: int, ledger: str | Path
) -> ExperimentResult:
    """Run one experiment under fresh obs sinks and ledger its manifest."""
    from repro.obs import use_collector, use_quality, use_registry
    from repro.obs.runs import RunLedger, RunRecorder

    recorder = RunRecorder(
        kind="experiment",
        name=f"experiment.{eid}",
        params={
            "experiment_id": eid,
            "scale": scale.value,
            "seed": seed,
            "jobs": jobs,
        },
        seed=seed,
    )
    with use_collector() as collector, use_registry() as registry:
        with use_quality() as quality:
            with recorder:
                result = run_experiment(
                    eid, scale=scale, seed=seed, jobs=jobs
                )
    manifest = recorder.finish(
        exit_code=0,
        collector=collector,
        registry=registry,
        quality=quality,
        results=dict(result.metrics),
    )
    RunLedger(ledger).append(manifest)
    return result


def scorecard(
    metrics_csvs: Sequence[str | Path],
) -> tuple[ColumnTable, dict[str, np.ndarray]]:
    """Relative error of every paper-paired metric, per ``metrics.csv``.

    Each file is one run of :func:`export_all` (one seed).  A metric is
    paper-paired when its ``paper`` cell is filled; its relative error
    is ``|measured - paper| / |paper|``.  Returns the per-metric table
    -- ``experiment``, ``metric``, ``paper``, one ``seed<i>`` column per
    file (in the given order) and their ``median`` -- and three
    aggregates, each an array with one entry per file:
    ``median_rel_error``, ``within_10`` and ``within_25`` (the count of
    metrics within 10% and 25% of the paper).  Every file must pair the
    same metrics with the same paper values.
    """
    if not metrics_csvs:
        raise ValueError("a scorecard needs at least one metrics.csv")
    key = None
    errors = []
    for path in metrics_csvs:
        table = read_csv(path)
        paired = ~np.isnan(np.asarray(table["paper"], dtype=float))
        rows = (
            table["experiment"][paired].tolist(),
            table["metric"][paired].tolist(),
            np.asarray(table["paper"], dtype=float)[paired].tolist(),
        )
        if key is None:
            key = rows
        elif rows != key:
            raise ValueError(f"{path} pairs other metrics than the first file")
        paper = np.asarray(rows[2])
        measured = np.asarray(table["measured"], dtype=float)[paired]
        errors.append(np.abs(measured - paper) / np.abs(paper))
    errors = np.asarray(errors)
    columns = {"experiment": key[0], "metric": key[1], "paper": key[2]}
    for i, column in enumerate(errors):
        columns[f"seed{i}"] = column
    columns["median"] = np.median(errors, axis=0)
    aggregates = {
        "median_rel_error": np.median(errors, axis=1),
        "within_10": (errors <= 0.10).sum(axis=1),
        "within_25": (errors <= 0.25).sum(axis=1),
    }
    return ColumnTable(columns), aggregates


if __name__ == "__main__":
    out, *inputs = sys.argv[1:]
    card, totals = scorecard(inputs)
    write_csv(card, out)
    for name, values in totals.items():
        print(
            f"{name}: mean {values.mean():.4f} sd {values.std(ddof=1):.4f} "
            f"per file {np.round(values, 4).tolist()}"
        )
