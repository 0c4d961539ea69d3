"""Command line of the repository benchmark.

``run``       one workload once; prints every metric by name with its
              unit, then one JSON object as the last line of stdout.
``compare``   parent runs against change runs, metric by metric.
``baseline``  alternated sets of runs on seeds 0 and 1, written as the
              committed baseline of one workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

from benchmarks.perf.spec import (
    BENCHMARK_JSON,
    DETAILS,
    OUT_DIR,
    PERF_DIR,
    SRC,
    RunResult,
    load_benchmark,
)


def _workload_runner(name: str) -> Callable[..., RunResult]:
    if name in ("serve_small", "serve_bulk"):
        from benchmarks.perf import serving

        return lambda *args: serving.run(name, *args)
    if name == "paper_pipeline":
        from benchmarks.perf import pipeline

        return pipeline.run
    from benchmarks.perf import streaming

    return streaming.run


def declared_metrics(bench: dict, trace: bool) -> dict[str, str]:
    """Metric name -> unit that a run of the given mode must print."""
    rows = bench["per_layer"] if trace else bench["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def finalize(
    result: RunResult, bench: dict, trace: bool
) -> dict[str, dict[str, float | str]]:
    """The JSON ``metrics`` object: every declared metric with its unit.

    Per-layer metrics a workload does not reach read 0 (the layer is
    bypassed).  A workload printing an undeclared name is a bug in the
    benchmark; a missing or non-finite end-to-end value fails the run.
    """
    from benchmarks.perf import tracing

    units = declared_metrics(bench, trace)
    unknown = sorted(set(result.metrics) - set(units))
    if unknown:
        raise ValueError(f"metrics not declared in BENCHMARK.json: {unknown}")
    values = dict(result.metrics)
    for name, value in tracing.layer_metrics(result.layers).items():
        if name in units:  # the table shows every span; JSON the layers
            values[name] = value
    if result.attempted < 1:
        result.fail("no operation was attempted", n=0)
    out: dict[str, dict[str, float | str]] = {}
    for name, unit in units.items():
        value = values.get(name, 0.0 if trace else math.nan)
        if not math.isfinite(value):
            result.fail(f"{name} was not measured ({value})", n=0)
            value = 0.0
        out[name] = {"value": float(value), "unit": unit}
    return out


def machine() -> dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def cmd_run(args: argparse.Namespace) -> int:
    bench = load_benchmark()
    names = [row["name"] for row in bench["workloads"]]
    if args.workload not in names:
        print(
            f"unknown workload {args.workload!r}; one of {names}",
            file=sys.stderr,
        )
        return 2
    seconds = float(args.seconds or bench["run_seconds"])
    trace = bool(args.trace)

    def log(line: str) -> None:
        print(line, flush=True)

    log(
        f"== {args.workload}  seed {args.seed}  {seconds:g} s  "
        f"trace {int(trace)} =="
    )
    t0 = time.perf_counter()
    result = _workload_runner(args.workload)(args.seed, seconds, trace, log)
    metrics = finalize(result, bench, trace)
    log(f"-- metrics ({time.perf_counter() - t0:.1f} s wall) --")
    for name, row in metrics.items():
        log(f"{name:<36} {row['value']:>14.6g}  {row['unit']}")
    if not trace:
        for detail in DETAILS.get(args.workload, ()):
            if detail.name in result.details:
                log(
                    f"{detail.name:<36} "
                    f"{result.details[detail.name]:>14.6g}  {detail.unit}"
                )
    log(f"{'ops_attempted':<36} {result.attempted:>14}")
    log(f"{'ops_failed':<36} {result.failed:>14}")
    for problem in result.problems:
        log(f"WRONG: {problem}")
    record = {
        "correct": result.correct,
        "attempted": max(result.attempted, 1),  # 0 already failed the run
        "failed": result.failed,
        "metrics": metrics,
    }
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            row = dict(
                record,
                workload=args.workload,
                seed=args.seed,
                seconds=seconds,
                trace=int(trace),
                details=result.details,
            )
            fh.write(json.dumps(row) + "\n")
    print(json.dumps(record), flush=True)
    return 0 if result.correct else 1


def cmd_compare(args: argparse.Namespace) -> int:
    from benchmarks.perf.compare import compare_files

    return compare_files(
        Path(args.parent), Path(args.change), load_benchmark()
    )


BASELINE_SEEDS = [0, 1]
BASELINE_RUNS = 5  # per seed


def cmd_baseline(args: argparse.Namespace) -> int:
    """Alternate runs of two seeds (A B, B A, ...) in fresh processes."""
    bench = load_benchmark()
    seconds = float(bench["run_seconds"])
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    runs = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        record = Path(tmp) / "runs.jsonl"
        for i in range(BASELINE_RUNS):
            seeds = BASELINE_SEEDS if i % 2 == 0 else BASELINE_SEEDS[::-1]
            for seed in seeds:
                argv = [
                    sys.executable, str(PERF_DIR / "run.py"),
                    "--workload", args.workload, "--seed", str(seed),
                    "--seconds", f"{seconds:g}", "--trace", "0",
                    "--record", str(record),
                ]
                code = subprocess.run(
                    argv, stdout=subprocess.DEVNULL
                ).returncode
                if code != 0:
                    print(f"run {argv} exited {code}", file=sys.stderr)
                    return 1
                runs.append(json.loads(record.read_text().splitlines()[-1]))
                metrics = runs[-1]["metrics"]
                print(
                    f"seed {seed}: "
                    + ", ".join(
                        f"{k}={v['value']:.4g}" for k, v in metrics.items()
                    ),
                    flush=True,
                )
    from benchmarks.perf.compare import agreement

    payload = {
        "workload": args.workload,
        "seconds": seconds,
        "machine": machine(),
        "seeds": BASELINE_SEEDS,
        "runs": runs,
        "agreement": agreement(runs, bench, BASELINE_SEEDS),
    }
    out = PERF_DIR / "baseline" / f"{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if all(row["ok"] for row in payload["agreement"].values()) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one workload once")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--seconds", type=float, default=None,
        help="measured run length (default: run_seconds in BENCHMARK.json)",
    )
    run.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: a traced run printing the per-layer table instead",
    )
    run.add_argument("--record", help="append the run as one JSON line here")
    run.set_defaults(func=cmd_run)
    compare = sub.add_parser("compare", help="parent runs vs change runs")
    compare.add_argument("parent", help="JSON-lines runs or a baseline file")
    compare.add_argument("change", help="JSON-lines runs or a baseline file")
    compare.set_defaults(func=cmd_compare)
    base = sub.add_parser("baseline", help="record a workload's baseline")
    base.add_argument("--workload", required=True)
    base.set_defaults(func=cmd_baseline)
    return parser


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.command == "run":
        try:
            import repro  # noqa: F401
        except ImportError as exc:
            print(f"cannot import repro from {SRC}: {exc}", file=sys.stderr)
            return 2
        if not BENCHMARK_JSON.is_file():
            print(f"missing {BENCHMARK_JSON}", file=sys.stderr)
            return 2
    # A terminated run still stops the server it started (finally blocks).
    signal.signal(signal.SIGTERM, _terminate)
    return args.func(args)
