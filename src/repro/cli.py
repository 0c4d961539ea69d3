"""Command-line interface.

Subcommands cover the full reproduction workflow:

- ``repro generate``: simulate a vendor dataset for a city and write CSV.
- ``repro join-ndt``: associate NDT upload records with downloads.
- ``repro contextualize``: run BST over a CSV and write the augmented CSV.
- ``repro evaluate``: score BST against an MBA panel's ground truth.
- ``repro experiment``: run one registered paper artifact and print it.
- ``repro list-experiments``: show the registry.
- ``repro audit``: metadata audit + Section 8 recommendations for a CSV.
- ``repro challenge``: challenge-process triage for a contextualised CSV.
- ``repro serve``: run the tier-assignment HTTP service over a model
  registry (fitting and registering the city's model on first use).
- ``repro assign``: one-shot batch assignment from a registry (fit and
  register on miss; warm runs skip the fit entirely).
- ``repro obs``: inspect the run ledger (``runs`` / ``show`` / ``diff`` /
  ``check``) or watch a live server (``watch`` polls ``/metrics`` +
  ``/healthz`` and renders a refreshing telemetry table).
- ``repro lint``: static analysis of the source tree against the repo's
  own invariants -- determinism, correctness, observability naming, lock
  discipline (see docs/ANALYSIS.md).

Every command is deterministic given ``--seed``, and every command
accepts the shared observability flags (``--log-level``, ``--log-format``,
``--trace-out FILE.jsonl``, ``--metrics``, ``--profile``; see
docs/OBSERVABILITY.md) plus ``--jobs N`` to fan independent BST fits out
over a process pool (results identical to serial; see
docs/PERFORMANCE.md).

Every run additionally appends a provenance manifest (run id, config
hash, seed, git SHA, wall time, peak RSS, span digest, metrics and
quality snapshots) to the JSONL run ledger -- ``results/runs.jsonl`` by
default, another path via ``--ledger``, off via ``--no-ledger`` or
``REPRO_LEDGER=0``.  With the ledger disabled the CLI installs no sinks
and its output is byte-identical to an unledgered build.  A long-running
command (``repro serve``) records its startup only: its live numbers are
on ``/metrics`` and ``/healthz``.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Callable

import numpy as np

from repro.core.assignment import accuracy_report
from repro.core.bst import BSTModel
from repro.experiments import REGISTRY, Scale, run_experiment
from repro.frame import read_csv, write_csv
from repro.market.isps import CITY_IDS, city_catalog, state_catalog
from repro.pipeline.challenge import CATEGORIES, classify_tests
from repro.pipeline.contextualize import contextualize
from repro.pipeline.metadata import audit_metadata, recommend
from repro.pipeline.ndt_join import join_ndt_tests
from repro.pipeline.report import format_table
from repro.vendors.mba import MBASimulator
from repro.vendors.mlab import MLabSimulator
from repro.vendors.ookla import OoklaSimulator

__all__ = ["main", "build_parser"]


def _obs_parent() -> argparse.ArgumentParser:
    """Parent parser carrying the shared observability flags.

    Every subcommand inherits these, so ``repro <cmd> --trace-out t.jsonl
    --metrics`` works uniformly across the CLI.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="enable structured logging at this threshold (stderr)",
    )
    group.add_argument(
        "--log-format", choices=("human", "json"), default="human",
        help="log line format (with --log-level)",
    )
    group.add_argument(
        "--trace-out", metavar="FILE.jsonl", default=None,
        help="record pipeline spans and write them as JSON lines",
    )
    group.add_argument(
        "--metrics", action="store_true",
        help="print a metrics summary (counters/gauges/histograms)",
    )
    group.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the top functions",
    )
    perf = parent.add_argument_group("performance")
    perf.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for independent BST fits "
             "(1 = serial, 0 = all CPUs); results are identical to serial",
    )
    ledger = parent.add_argument_group("run ledger")
    ledger.add_argument(
        "--ledger", metavar="FILE.jsonl", default=None,
        help="run-ledger path (default results/runs.jsonl, or the "
             "REPRO_LEDGER env var; every run appends a provenance "
             "manifest)",
    )
    ledger.add_argument(
        "--no-ledger", action="store_true",
        help="do not record this run in the run ledger",
    )
    return parent


def _add_seed(parser: argparse.ArgumentParser, default: int = 0) -> None:
    """Shared ``--seed`` wiring (every command is deterministic per seed)."""
    parser.add_argument("--seed", type=int, default=default)


def _add_city(
    parser: argparse.ArgumentParser,
    required: bool = False,
    default: str | None = "A",
    flag: str = "--city",
    help: str | None = None,
) -> None:
    """Shared city/state argument wiring."""
    kwargs: dict = {"choices": CITY_IDS}
    if required:
        kwargs["required"] = True
    else:
        kwargs["default"] = default
    if help:
        kwargs["help"] = help
    parser.add_argument(flag, **kwargs)


def _add_scale(
    parser: argparse.ArgumentParser, default: Scale | None = None
) -> None:
    parser.add_argument(
        "--scale",
        choices=[s.value for s in Scale],
        default=(default or Scale.MEDIUM).value,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'The Importance of Contextualization of "
            "Crowdsourced Active Speed Test Measurements' (IMC 2022)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    obs = [_obs_parent()]

    def subparser(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, parents=obs)

    generate = subparser(
        "generate", "simulate a vendor dataset and write CSV"
    )
    generate.add_argument(
        "--vendor", choices=("ookla", "mlab", "mba"), required=True
    )
    _add_city(generate, help="city (or state, for MBA)")
    generate.add_argument("--n", type=int, default=20_000,
                          help="tests / sessions / rows to generate")
    _add_seed(generate)
    generate.add_argument("--out", required=True, help="output CSV path")
    generate.set_defaults(func=_cmd_generate)

    join = subparser(
        "join-ndt", "pair NDT upload records with downloads (120 s window)"
    )
    join.add_argument("--input", required=True, help="raw NDT CSV")
    join.add_argument("--out", required=True, help="joined CSV path")
    join.add_argument("--window", type=float, default=120.0)
    join.set_defaults(func=_cmd_join)

    ctx = subparser(
        "contextualize",
        "run BST over a measurement CSV and write the augmented CSV",
    )
    ctx.add_argument("--input", required=True)
    _add_city(ctx, required=True)
    ctx.add_argument("--out", required=True)
    ctx.set_defaults(func=_cmd_contextualize)

    evaluate = subparser(
        "evaluate", "score BST against an MBA panel's ground truth"
    )
    _add_city(evaluate, flag="--state")
    evaluate.add_argument("--n", type=int, default=12_000)
    _add_seed(evaluate)
    evaluate.set_defaults(func=_cmd_evaluate)

    experiment = subparser(
        "experiment", "run one registered paper artifact"
    )
    experiment.add_argument("experiment_id", choices=sorted(REGISTRY))
    _add_scale(experiment)
    _add_seed(experiment)
    experiment.set_defaults(func=_cmd_experiment)

    list_cmd = subparser(
        "list-experiments", "list the registered paper artifacts"
    )
    list_cmd.set_defaults(func=_cmd_list)

    report_all = subparser(
        "report-all", "run experiments and export reports to a directory"
    )
    report_all.add_argument("--out-dir", required=True)
    _add_scale(report_all, default=Scale.SMALL)
    _add_seed(report_all)
    report_all.add_argument(
        "--only", nargs="*", default=None,
        help="experiment ids to run (default: all)",
    )
    report_all.set_defaults(func=_cmd_report_all)

    audit = subparser(
        "audit", "metadata audit + Section 8 recommendations for a CSV"
    )
    audit.add_argument("--input", required=True)
    audit.set_defaults(func=_cmd_audit)

    challenge = subparser(
        "challenge", "challenge-process triage over a contextualised CSV"
    )
    challenge.add_argument("--input", required=True)
    challenge.add_argument("--ratio", type=float, default=0.5,
                           help="under-performance ratio threshold")
    challenge.set_defaults(func=_cmd_challenge)

    serve = subparser(
        "serve", "run the tier-assignment HTTP service (see docs/SERVING.md)"
    )
    _add_city(serve)
    serve.add_argument(
        "--registry", default="models", metavar="DIR",
        help="model-registry directory (created if missing)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8000,
        help="listen port (0 binds an ephemeral port)",
    )
    serve.add_argument(
        "--n", type=int, default=20_000,
        help="training sample size when the city's model must be fitted",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes; >1 runs the sharded router in front of "
             "N repro.serve.worker subprocesses (see docs/SERVING.md)",
    )
    serve.add_argument(
        "--quantized", action="store_true",
        help="serve via registered byte-identity-proven lookup tables "
             "where available",
    )
    serve.add_argument(
        "--trace-sample", type=float, default=1.0, metavar="RATE",
        help="fraction of requests that get a serve.request span "
             "(trace ids are always issued)",
    )
    serve.add_argument(
        "--alert-rules", default=None, metavar="FILE.json",
        help="alert rules (see docs/ALERTING.md; default: built-in "
             "serve rules)",
    )
    serve.add_argument(
        "--alert-log", default="results/alerts.jsonl",
        metavar="FILE.jsonl",
        help="append alert transitions as JSON lines ('off' disables)",
    )
    serve.add_argument(
        "--alert-interval", type=float, default=1.0, metavar="SECONDS",
        help="alert evaluation period (<= 0 disables the evaluator)",
    )
    serve.add_argument(
        "--refit", action="store_true",
        help="refit models whose /healthz drift verdict holds, on their "
             "own served rows, and hot-swap them (each worker refits its "
             "shard; see docs/STREAMING.md)",
    )
    serve.add_argument(
        "--refit-interval", type=float, default=5.0, metavar="SECONDS",
        help="drift-poll period of the refit scheduler (with --refit)",
    )
    _add_seed(serve)
    serve.set_defaults(func=_cmd_serve)

    stream_cmd = subparser(
        "stream",
        "measurement firehose + online model lifecycle "
        "(see docs/STREAMING.md)",
    )
    stream_sub = stream_cmd.add_subparsers(
        dest="stream_command", required=True
    )
    stream_run = stream_sub.add_parser(
        "run", parents=obs,
        help="drive a simulated firehose through the drift monitor and "
             "refit scheduler under the injected clock",
    )
    _add_city(stream_run, help="city (or state, for MBA)")
    stream_run.add_argument(
        "--vendors", default="ookla", metavar="V1[,V2...]",
        help="comma-separated vendor streams to mux (ookla, mlab, mba)",
    )
    stream_run.add_argument(
        "--registry", default="models", metavar="DIR",
        help="model registry the warmup fit registers into and refits "
             "hot-swap through (created if missing)",
    )
    stream_run.add_argument(
        "--rate", type=float, default=2000.0, metavar="EVENTS_PER_S",
        help="total mean arrival rate, split evenly across vendors",
    )
    stream_run.add_argument(
        "--batch", type=int, default=256, help="events per micro-batch"
    )
    stream_run.add_argument(
        "--pool", type=int, default=4096,
        help="simulator-generated base pool size per vendor stream",
    )
    stream_run.add_argument(
        "--duration", type=float, default=120.0, metavar="SECONDS",
        help="stream-time duration to simulate",
    )
    stream_run.add_argument(
        "--drift-at", type=float, default=None, metavar="SECONDS",
        help="inject a drift segment starting at this stream time",
    )
    stream_run.add_argument(
        "--drift-scale", type=float, default=0.5, metavar="FACTOR",
        help="download/upload scale inside the segment (with --drift-at)",
    )
    stream_run.add_argument(
        "--tier-shift", type=float, default=0.0, metavar="FRACTION",
        help="upper-tier share dropped inside the segment "
             "(with --drift-at)",
    )
    stream_run.add_argument(
        "--window", type=float, default=60.0, metavar="SECONDS",
        help="sliding stats window of the drift monitor",
    )
    stream_run.add_argument(
        "--min-hold", type=float, default=5.0, metavar="SECONDS",
        help="a drift breach must persist this long before a refit",
    )
    stream_run.add_argument(
        "--cooldown", type=float, default=60.0, metavar="SECONDS",
        help="per-model immunity after a refit",
    )
    stream_run.add_argument(
        "--poll", type=float, default=1.0, metavar="SECONDS",
        help="stream-time period between scheduler/alert polls",
    )
    _add_seed(stream_run)
    stream_run.set_defaults(func=_cmd_stream_run)

    assign = subparser(
        "assign",
        "one-shot batch tier assignment from a model registry "
        "(fits and registers on miss)",
    )
    assign.add_argument("--input", required=True, help="measurement CSV")
    _add_city(assign, required=True)
    assign.add_argument("--out", required=True, help="augmented CSV path")
    assign.add_argument(
        "--registry", default="models", metavar="DIR",
        help="model-registry directory (created if missing)",
    )
    assign.set_defaults(func=_cmd_assign)

    describe = subparser(
        "describe", "print a city's plan menu and the BST pipeline over it"
    )
    _add_city(describe)
    describe.set_defaults(func=_cmd_describe)

    dossier = subparser(
        "dossier", "generate and render the full city dossier"
    )
    _add_city(dossier)
    dossier.add_argument("--n", type=int, default=20_000)
    _add_seed(dossier)
    dossier.set_defaults(func=_cmd_dossier)

    lint = subparser(
        "lint",
        "static analysis: determinism, correctness, observability "
        "naming, lock discipline (see docs/ANALYSIS.md)",
    )
    lint.add_argument(
        "paths", nargs="*", default=None, metavar="PATH",
        help="files or directories to lint (default: the whole --root)",
    )
    lint.add_argument(
        "--root", default=None, metavar="DIR",
        help="scan root findings are reported relative to "
             "(default: ./src when present, else .)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json is the CI artifact schema)",
    )
    lint.add_argument(
        "--select", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all rules)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    lint.set_defaults(func=_cmd_lint)

    obs_cmd = subparser("obs", "inspect the run ledger")
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)

    obs_runs = obs_sub.add_parser(
        "runs", parents=obs, help="list recorded runs"
    )
    obs_runs.add_argument(
        "--kind", choices=("cli", "experiment", "bench", "refit"),
        default=None,
    )
    obs_runs.add_argument(
        "--name", default=None,
        help="filter by run name (e.g. experiment.tab2)",
    )
    obs_runs.add_argument(
        "--last", type=int, default=20, metavar="N",
        help="show only the N most recent matching runs",
    )
    obs_runs.set_defaults(func=_cmd_obs_runs, ledger_exempt=True)

    obs_show = obs_sub.add_parser(
        "show", parents=obs, help="show one run's full manifest"
    )
    obs_show.add_argument(
        "run_id", help="run id or unique prefix ('latest' for the last run)"
    )
    obs_show.set_defaults(func=_cmd_obs_show, ledger_exempt=True)

    obs_diff = obs_sub.add_parser(
        "diff", parents=obs, help="compare two recorded runs"
    )
    obs_diff.add_argument("run_a")
    obs_diff.add_argument("run_b")
    obs_diff.set_defaults(func=_cmd_obs_diff, ledger_exempt=True)

    obs_check = obs_sub.add_parser(
        "check",
        parents=obs,
        help="compare the latest run against a rolling baseline; "
             "non-zero exit on regression",
    )
    obs_check.add_argument(
        "--run", default=None,
        help="run id to check (default: the most recent run)",
    )
    obs_check.add_argument(
        "--baseline-n", type=int, default=5, metavar="K",
        help="rolling-baseline window: mean of the K previous runs "
             "with the same kind and name",
    )
    obs_check.add_argument(
        "--max-slowdown", type=float, default=50.0, metavar="PCT",
        help="fail when wall time exceeds the baseline mean by more "
             "than PCT percent",
    )
    obs_check.add_argument(
        "--max-metric-delta", type=float, default=10.0, metavar="PCT",
        help="fail when a headline result drifts from the baseline "
             "mean by more than PCT percent",
    )
    obs_check.add_argument(
        "--max-quality-delta", type=float, default=0.05, metavar="ABS",
        help="fail when a quality rate (NaN/negative/outlier/unmapped) "
             "moves by more than ABS from the baseline mean",
    )
    obs_check.set_defaults(func=_cmd_obs_check, ledger_exempt=True)

    obs_watch = obs_sub.add_parser(
        "watch",
        parents=obs,
        help="poll a live server's /metrics + /healthz and render a "
             "refreshing telemetry table",
    )
    obs_watch.add_argument(
        "--url", required=True, metavar="http://HOST:PORT",
        help="base URL of a running `repro serve` instance",
    )
    obs_watch.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="seconds between polls",
    )
    obs_watch.add_argument(
        "--count", type=int, default=0, metavar="N",
        help="stop after N snapshots (0 = run until interrupted)",
    )
    obs_watch.add_argument(
        "--no-clear", action="store_true",
        help="append snapshots instead of clearing the screen",
    )
    obs_watch.set_defaults(func=_cmd_obs_watch, ledger_exempt=True)

    return parser


# ---------------------------------------------------------------------------
def _cmd_generate(args) -> int:
    if args.vendor == "ookla":
        table = OoklaSimulator(args.city, seed=args.seed).generate(args.n)
    elif args.vendor == "mlab":
        table = MLabSimulator(args.city, seed=args.seed).generate(args.n)
    else:
        table = MBASimulator(args.city, seed=args.seed).generate(args.n)
    write_csv(table, args.out)
    print(f"wrote {len(table)} {args.vendor} rows to {args.out}")
    return 0


def _cmd_join(args) -> int:
    raw = read_csv(args.input)
    joined = join_ndt_tests(raw, window_s=args.window)
    write_csv(joined, args.out)
    print(
        f"joined {len(joined)} download/upload pairs "
        f"(from {len(raw)} records) to {args.out}"
    )
    return 0


def _cmd_contextualize(args) -> int:
    table = read_csv(args.input)
    ctx = contextualize(table, city_catalog(args.city), jobs=args.jobs)
    write_csv(ctx.table, args.out)
    rows = []
    for label in ctx.group_labels:
        group_rows = ctx.rows_for_group(label)
        median = (
            float(np.median(group_rows["normalized_download"]))
            if len(group_rows)
            else float("nan")
        )
        rows.append([label, len(group_rows), round(median, 3)])
    print(format_table(rows, ["group", "tests", "median dl/plan"]))
    print(f"wrote {len(ctx)} contextualised rows to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    mba = MBASimulator(args.state, seed=args.seed).generate(args.n)
    catalog = state_catalog(args.state)
    result = BSTModel(catalog).fit(
        mba["download_mbps"], mba["upload_mbps"], jobs=args.jobs
    )
    report = accuracy_report(result, mba["tier"])
    args.run_results = {
        "upload_group_accuracy": report.upload_group_accuracy,
        "tier_accuracy": report.tier_accuracy,
    }
    print(
        f"State-{args.state} ({catalog.isp_name}), "
        f"{report.n_measurements} measurements"
    )
    print(
        f"upload-group accuracy: {report.upload_group_accuracy:.2%}  "
        f"(paper: >96%)"
    )
    print(f"plan-tier accuracy:    {report.tier_accuracy:.2%}")
    rows = [
        [label, f"{acc:.2%}"]
        for label, acc in report.per_group_tier_accuracy.items()
    ]
    print(format_table(rows, ["group", "tier accuracy"]))
    return 0


def _cmd_experiment(args) -> int:
    result = run_experiment(
        args.experiment_id,
        scale=Scale(args.scale),
        seed=args.seed,
        jobs=args.jobs,
    )
    # Headline numbers flow into the run manifest (repro obs check
    # compares them across runs).
    args.run_results = dict(result.metrics)
    print(result.render())
    return 0


def _cmd_list(args) -> int:
    rows = [[eid, REGISTRY[eid].__doc__.strip().splitlines()[0]]
            for eid in sorted(REGISTRY)]
    print(format_table(rows, ["experiment", "description"]))
    return 0


def _cmd_report_all(args) -> int:
    from repro.experiments.export import export_all

    results = export_all(
        args.out_dir,
        experiment_ids=args.only,
        scale=Scale(args.scale),
        seed=args.seed,
        jobs=args.jobs,
        ledger=getattr(args, "resolved_ledger", None),
    )
    print(
        f"exported {len(results)} experiment reports to {args.out_dir} "
        "(summary.txt, metrics.csv, one .txt per experiment)"
    )
    return 0


def _cmd_audit(args) -> int:
    table = read_csv(args.input)
    audit = audit_metadata(table)
    rows = [
        [
            fp.field.name,
            "yes" if fp.present else "no",
            f"{fp.coverage:.0%}",
        ]
        for fp in audit.fields
    ]
    print(format_table(rows, ["context field", "present", "coverage"]))
    print(f"interpretability score: {audit.interpretability:.2f} / 1.00")
    recommendations = recommend(audit)
    if recommendations:
        print("\nrecommendations (Section 8):")
        for i, text in enumerate(recommendations, 1):
            print(f"  {i}. {text}")
    else:
        print("\nno gaps: every recommended context field is covered.")
    return 0


def _cmd_challenge(args) -> int:
    from repro.pipeline.challenge import ChallengeConfig

    table = read_csv(args.input)
    summary = classify_tests(
        table, ChallengeConfig(underperformance_ratio=args.ratio)
    )
    rows = [
        [category, summary.counts.get(category, 0),
         f"{summary.share(category):.1%}"]
        for category in CATEGORIES
    ]
    print(format_table(rows, ["category", "tests", "share"]))
    print(
        f"\n{summary.counts.get('challenge-worthy', 0)} tests are "
        "evidence-grade for a coverage challenge."
    )
    return 0


def _cmd_serve(args) -> Callable[[], int]:
    from repro.serve.registry import ModelRegistry
    from repro.serve.server import ServeConfig
    from repro.serve.worker import run

    registry = ModelRegistry(args.registry)
    catalog = city_catalog(args.city)
    key = registry.key_for(args.city, catalog)
    if registry.lookup(key) is None:
        print(
            f"no model for City-{args.city} in {args.registry}; "
            f"fitting on {args.n} simulated tests...",
            flush=True,
        )
        tests = OoklaSimulator(args.city, seed=args.seed).generate(args.n)
        contextualize(
            tests, catalog, registry=registry, city=args.city, jobs=args.jobs
        )
    return partial(
        run,
        args.registry,
        ServeConfig(
            host=args.host,
            port=args.port,
            default_city=args.city,
            trace_sample_rate=args.trace_sample,
            alert_rules_path=args.alert_rules,
            alert_log=args.alert_log if args.alert_log != "off" else None,
            alert_interval_s=args.alert_interval,
            quantized=args.quantized,
            workers=args.workers,
            refit_interval_s=args.refit_interval if args.refit else 0.0,
            refit_jobs=args.jobs,
            refit_ledger=args.resolved_ledger,
        ),
    )


def _cmd_stream_run(args) -> int:
    from repro.serve.registry import ModelRegistry
    from repro.stream.clock import SimClock
    from repro.stream.firehose import (
        DriftSegment,
        MeasurementStream,
        StreamMux,
    )
    from repro.stream.monitor import StreamMonitor
    from repro.stream.run import StreamSession, warmup_and_register
    from repro.stream.scheduler import RefitPolicy, RefitScheduler

    vendors = [v.strip() for v in args.vendors.split(",") if v.strip()]
    unknown = sorted(set(vendors) - {"ookla", "mlab", "mba"})
    if not vendors or unknown:
        print(f"unknown vendors: {', '.join(unknown) or args.vendors!r}")
        return 2
    segments: tuple[DriftSegment, ...] = ()
    if args.drift_at is not None:
        segments = (
            DriftSegment(
                start_s=args.drift_at,
                download_scale=args.drift_scale,
                upload_scale=args.drift_scale,
                tier_share_shift=args.tier_shift,
            ),
        )
    registry = ModelRegistry(args.registry)
    streams = [
        MeasurementStream(
            vendor=vendor,
            city=args.city,
            seed=args.seed + i,
            events_per_s=args.rate / len(vendors),
            batch_size=args.batch,
            pool_size=args.pool,
            segments=segments,
        )
        for i, vendor in enumerate(vendors)
    ]
    for stream in streams:
        record = warmup_and_register(stream, registry, jobs=args.jobs)
        print(
            f"warmup: {stream.vendor} -> {record.key.slug} "
            f"(train_size={record.train_size})"
        )
    source = streams[0] if len(streams) == 1 else StreamMux(streams)
    clock = SimClock()
    monitor = StreamMonitor(
        registry=registry, clock=clock, window_s=args.window
    )
    scheduler = RefitScheduler(
        registry=registry,
        monitor=monitor,
        policy=RefitPolicy(
            min_hold_s=args.min_hold, cooldown_s=args.cooldown
        ),
        clock=clock,
        jobs=args.jobs,
        ledger_path=None if args.no_ledger else (args.ledger or "auto"),
    )
    session = StreamSession(
        source, monitor, clock,
        scheduler=scheduler,
        poll_interval_s=args.poll,
    )
    summary = session.run(duration_s=args.duration)
    alerts = summary["alerts"]
    print(
        f"stream: {summary['n_events']} events / "
        f"{summary['n_batches']} batches over "
        f"{summary['stream_t_s']:.0f}s stream time"
    )
    print(
        f"alerts: fired={alerts['fired']} resolved={alerts['resolved']} "
        f"active={alerts['active']}"
    )
    refits = summary["refits"]
    print(f"refits: {len(refits)}")
    for refit in refits:
        print(
            f"  {refit['model']}: "
            f"drift_to_swap={refit['drift_to_swap_s']:.2f}s "
            f"n={refit['n_samples']} trigger={refit['trigger']}"
        )
    args.run_results = {
        "events": float(summary["n_events"]),
        "refits": float(len(refits)),
        "alerts_fired": float(alerts["fired"]),
        "stream_t_s": float(summary["stream_t_s"]),
    }
    return 0


def _cmd_assign(args) -> int:
    from repro.serve.registry import ModelRegistry

    registry = ModelRegistry(args.registry)
    catalog = city_catalog(args.city)
    hit = registry.lookup(registry.key_for(args.city, catalog)) is not None
    table = read_csv(args.input)
    ctx = contextualize(
        table, catalog, registry=registry, city=args.city, jobs=args.jobs
    )
    write_csv(ctx.table, args.out)
    args.run_results = {
        "rows": float(len(ctx)),
        "registry_hit": float(hit),
    }
    print(
        f"assigned {len(ctx)} rows from "
        f"{'registered model' if hit else 'fresh fit (now registered)'} "
        f"-> {args.out}"
    )
    return 0


def _cmd_describe(args) -> int:
    print(BSTModel(city_catalog(args.city)).describe())
    return 0


def _cmd_dossier(args) -> int:
    from repro.pipeline.dossier import city_dossier

    catalog = city_catalog(args.city)
    tests = OoklaSimulator(args.city, seed=args.seed).generate(args.n)
    ctx = contextualize(tests, catalog, jobs=args.jobs)
    print(city_dossier(ctx, city_label=f"City-{args.city}"))
    return 0


# ---------------------------------------------------------------------------
# Static analysis (repro lint)
# ---------------------------------------------------------------------------
def _cmd_lint(args) -> int:
    from pathlib import Path

    from repro.analysis import (
        analyze,
        catalog,
        render_json,
        render_text,
        rules_for,
    )
    from repro.analysis.framework import iter_python_files
    from repro.obs import metrics as obs_metrics
    from repro.obs import span

    if args.list_rules:
        rows = [
            [
                rule["id"],
                rule["name"],
                rule["severity"],
                ", ".join(rule["scopes"]),
            ]
            for rule in catalog()
        ]
        print(format_table(rows, ["id", "name", "severity", "scopes"]))
        print("\nfull descriptions: docs/ANALYSIS.md")
        return 0

    select = (
        [part.strip() for part in args.select.split(",") if part.strip()]
        if args.select
        else None
    )
    try:
        rules = rules_for(select)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.root:
        root = Path(args.root)
    else:
        root = Path("src") if Path("src").is_dir() else Path(".")
    files = None
    if args.paths:
        files = [
            found
            for path in args.paths
            for found in iter_python_files(Path(path))
        ]

    with span("lint.run", rules=len(rules)) as sp:
        report = analyze(root, files=files, rules=rules)
        sp.set(files=report.n_files, findings=len(report.findings))

    obs_metrics.counter("lint.findings").inc(len(report.findings))
    obs_metrics.counter("lint.rules_run").inc(len(rules))
    args.run_results = {
        "findings": float(len(report.findings)),
        "files_checked": float(report.n_files),
    }

    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return 1 if report.findings else 0


# ---------------------------------------------------------------------------
# Run-ledger inspection (repro obs ...)
# ---------------------------------------------------------------------------
def _open_ledger(args):
    """The ledger an ``obs`` command reads (explicit flag, env, default)."""
    from repro.obs.runs import RunLedger, default_ledger_path

    path = args.ledger or default_ledger_path()
    if path is None:
        print(
            "error: run ledger disabled (REPRO_LEDGER=0); "
            "pass --ledger FILE.jsonl",
            file=sys.stderr,
        )
        return None
    return RunLedger(path)


def _cmd_obs_runs(args) -> int:
    ledger = _open_ledger(args)
    if ledger is None:
        return 2
    manifests = ledger.matching(kind=args.kind, name=args.name)
    if not manifests:
        print(f"no matching runs in {ledger.path}")
        return 0
    rows = [
        [
            m.run_id,
            m.started_utc,
            m.kind,
            m.name,
            f"{m.wall_s:.2f}",
            (m.git_sha or "")[:7] or "n/a",
            "ok" if not m.exit_code else f"exit {m.exit_code}",
        ]
        for m in manifests[-max(args.last, 1):]
    ]
    print(
        format_table(
            rows,
            ["run id", "started (UTC)", "kind", "name", "wall s",
             "git", "status"],
        )
    )
    print(f"{len(manifests)} matching runs in {ledger.path}")
    return 0


def _cmd_obs_show(args) -> int:
    ledger = _open_ledger(args)
    if ledger is None:
        return 2
    try:
        manifest = ledger.find(args.run_id)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(manifest.render())
    return 0


def _cmd_obs_diff(args) -> int:
    ledger = _open_ledger(args)
    if ledger is None:
        return 2
    try:
        a = ledger.find(args.run_a)
        b = ledger.find(args.run_b)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(_diff_lines(a, b)))
    return 0


def _diff_lines(a, b) -> list[str]:
    lines = [f"== diff {a.run_id} .. {b.run_id} =="]

    def same_or_changed(label: str, va, vb, short: int | None = None):
        def fmt(value):
            if value is None or value == "":
                return "n/a"
            text = str(value)
            return text[:short] if short else text

        if va == vb:
            lines.append(f"{label}: unchanged ({fmt(va)})")
        else:
            lines.append(f"{label}: {fmt(va)} -> {fmt(vb)}")

    same_or_changed("kind/name", f"{a.kind}/{a.name}", f"{b.kind}/{b.name}")
    same_or_changed("git sha", a.git_sha, b.git_sha, short=12)
    same_or_changed("config hash", a.config_hash, b.config_hash, short=12)
    same_or_changed("seed", a.seed, b.seed)
    lines.append(
        f"wall time: {a.wall_s:.3f} s -> {b.wall_s:.3f} s "
        f"({_pct_delta(a.wall_s, b.wall_s)})"
    )
    if a.peak_rss_bytes and b.peak_rss_bytes:
        lines.append(
            f"peak RSS: {a.peak_rss_bytes / 2**20:.1f} MiB -> "
            f"{b.peak_rss_bytes / 2**20:.1f} MiB "
            f"({_pct_delta(a.peak_rss_bytes, b.peak_rss_bytes)})"
        )
    keys = sorted(set(a.results) | set(b.results))
    if keys:
        lines.append("-- results --")
        for key in keys:
            va, vb = a.results.get(key), b.results.get(key)
            if va is None or vb is None:
                lines.append(
                    f"{key}: {_opt(va)} -> {_opt(vb)} (only one run)"
                )
            else:
                lines.append(
                    f"{key}: {va:.6g} -> {vb:.6g} ({_pct_delta(va, vb)})"
                )
    qa = a.quality.scalars() if a.quality else {}
    qb = b.quality.scalars() if b.quality else {}
    changed = [
        key
        for key in sorted(set(qa) | set(qb))
        if abs(qa.get(key, 0.0) - qb.get(key, 0.0)) > 1e-12
    ]
    if changed:
        lines.append("-- quality --")
        for key in changed:
            lines.append(
                f"{key}: {_opt(qa.get(key))} -> {_opt(qb.get(key))}"
            )
    stages = sorted(
        set(a.span_table) | set(b.span_table),
        key=lambda n: -abs(
            b.span_table.get(n, {}).get("total_s", 0.0)
            - a.span_table.get(n, {}).get("total_s", 0.0)
        ),
    )
    if stages:
        lines.append("-- span stages (top movement) --")
        for name in stages[:8]:
            ta = a.span_table.get(name, {}).get("total_s", 0.0)
            tb = b.span_table.get(name, {}).get("total_s", 0.0)
            lines.append(
                f"{name}: {ta * 1e3:.1f} ms -> {tb * 1e3:.1f} ms "
                f"({_pct_delta(ta, tb)})"
            )
    return lines


def _pct_delta(before: float, after: float) -> str:
    if not before:
        return "n/a"
    delta = (after - before) / before * 100.0
    return f"{delta:+.1f}%"


def _opt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def _cmd_obs_check(args) -> int:
    ledger = _open_ledger(args)
    if ledger is None:
        return 2
    try:
        target = ledger.find(args.run or "latest")
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    history = ledger.matching(kind=target.kind, name=target.name)
    try:
        cut = next(
            i for i, m in enumerate(history) if m.run_id == target.run_id
        )
    except StopIteration:
        cut = len(history)
    baseline = history[max(0, cut - max(args.baseline_n, 1)):cut]
    if not baseline:
        print(
            f"run {target.run_id} ({target.name}): no earlier matching "
            "runs to compare against; recording as baseline"
        )
        return 0

    failures: list[str] = []
    checks = 0

    base_wall = sum(m.wall_s for m in baseline) / len(baseline)
    checks += 1
    if base_wall > 0:
        slowdown = (target.wall_s - base_wall) / base_wall * 100.0
        if slowdown > args.max_slowdown:
            failures.append(
                f"timing regression: wall {target.wall_s:.3f} s is "
                f"{slowdown:+.1f}% vs baseline mean {base_wall:.3f} s "
                f"(threshold {args.max_slowdown:.0f}%)"
            )

    for key in sorted(target.results):
        base_values = [
            m.results[key] for m in baseline if key in m.results
        ]
        base_values = [v for v in base_values if v == v]  # drop NaN
        value = target.results[key]
        if not base_values or value != value:
            continue
        checks += 1
        base_mean = sum(base_values) / len(base_values)
        if base_mean == 0:
            continue
        drift = abs(value - base_mean) / abs(base_mean) * 100.0
        if drift > args.max_metric_delta:
            failures.append(
                f"result drift: {key} = {value:.6g} is {drift:.1f}% off "
                f"baseline mean {base_mean:.6g} "
                f"(threshold {args.max_metric_delta:.0f}%)"
            )

    target_quality = target.quality.scalars() if target.quality else {}
    for key in sorted(target_quality):
        if key.endswith("tail_ratio") or key.endswith("tier_entropy"):
            continue  # unbounded scales; covered by results/entropy_norm
        base_values = [
            m.quality.scalars()[key]
            for m in baseline
            if m.quality and key in m.quality.scalars()
        ]
        if not base_values:
            continue
        checks += 1
        base_mean = sum(base_values) / len(base_values)
        delta = abs(target_quality[key] - base_mean)
        if delta > args.max_quality_delta:
            failures.append(
                f"quality drift: {key} = {target_quality[key]:.4f} moved "
                f"{delta:.4f} from baseline mean {base_mean:.4f} "
                f"(threshold {args.max_quality_delta:.2f})"
            )

    label = (
        f"run {target.run_id} ({target.name}) vs {len(baseline)}-run "
        f"rolling baseline"
    )
    if failures:
        print(f"{label}: {len(failures)} regression(s)")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print(f"{label}: ok ({checks} checks)")
    return 0


def _cmd_obs_watch(args) -> int:
    from repro.obs.watch import watch
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.url)
    try:
        watch(
            client,
            interval_s=max(args.interval, 0.1),
            max_polls=max(args.count, 0),
            clear=not args.no_clear,
        )
    except KeyboardInterrupt:
        print()  # leave the last snapshot intact
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _resolve_ledger(args) -> "str | None":
    """The ledger path a command should record to, or ``None``.

    Read-only ``obs`` subcommands (``ledger_exempt``) and ``--no-ledger``
    never record.  An explicit ``--ledger`` wins over the ``REPRO_LEDGER``
    environment variable (so a test can force one on even when the env
    disables it), which wins over the ``results/runs.jsonl`` default.
    """
    from repro.obs.runs import default_ledger_path

    if getattr(args, "ledger_exempt", False) or getattr(
        args, "no_ledger", False
    ):
        return None
    explicit = getattr(args, "ledger", None)
    if explicit:
        return str(explicit)
    path = default_ledger_path()
    return str(path) if path is not None else None


def _manifest_name(args) -> str:
    """Ledger name for this invocation (the `obs check` grouping key)."""
    if args.command == "experiment":
        return f"experiment.{args.experiment_id}"
    return args.command


def _run_with_obs(args, argv: "list[str] | None" = None) -> int:
    """Dispatch a parsed command inside the requested obs session.

    With no obs flags and the ledger disabled this adds nothing: no
    collector, no registry, no handlers -- the command runs exactly as
    before.  Otherwise the requested sinks are installed around the
    command and their outputs (metrics summary, trace file, profile)
    emitted after it returns.  When the run ledger is enabled (the
    default; see ``--ledger``/``--no-ledger``/``REPRO_LEDGER``) a span
    collector, metrics registry, and quality monitor always run so the
    appended manifest carries the span digest, metrics snapshot, and
    quality report -- printed output is still governed by the flags.

    A long-running command returns its serving phase (a callable).  Its
    manifest records the startup: spans, metrics and quality as they
    stand when serving begins, which runs with none of the sinks but
    ``--trace-out``'s collector installed.
    """
    from repro import obs
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace
    from repro.obs import quality as obs_quality

    if args.log_level:
        obs.configure_logging(level=args.log_level, fmt=args.log_format)

    ledger_path = _resolve_ledger(args)
    args.resolved_ledger = ledger_path

    collector = (
        obs.SpanCollector() if (args.trace_out or ledger_path) else None
    )
    registry = (
        obs.MetricsRegistry() if (args.metrics or ledger_path) else None
    )
    quality = obs_quality.QualityMonitor() if ledger_path else None
    report = None

    if args.trace_out:
        # Fail fast on an unwritable trace path rather than discovering
        # it only after the (possibly long) command has finished.
        try:
            with open(args.trace_out, "w", encoding="utf-8"):
                pass
        except OSError as exc:
            print(f"error: cannot write --trace-out: {exc}", file=sys.stderr)
            return 2

    recorder = None
    if ledger_path:
        from repro.obs.runs import RunRecorder

        recorder = RunRecorder(
            kind="cli",
            name=_manifest_name(args),
            argv=list(argv) if argv is not None else None,
            params={
                key: value
                for key, value in vars(args).items()
                if key not in ("func", "ledger_exempt", "resolved_ledger")
                and not callable(value)
            },
            seed=getattr(args, "seed", None),
        )

    # NB: "is not None" -- the collector/registry are sized containers,
    # so an empty one is falsy.
    prev_collector = (
        obs_trace.set_collector(collector) if collector is not None else None
    )
    prev_registry = (
        obs_metrics.set_registry(registry) if registry is not None else None
    )
    prev_quality = (
        obs_quality.set_quality(quality) if quality is not None else None
    )

    def uninstall(keep_collector: bool = False) -> None:
        if collector is not None and not keep_collector:
            obs_trace.set_collector(prev_collector)
        if registry is not None:
            obs_metrics.set_registry(prev_registry)
        if quality is not None:
            obs_quality.set_quality(prev_quality)

    startup_spans = collector

    def dispatch() -> int:
        nonlocal startup_spans
        code = args.func(args)
        if callable(code):  # a long-running command's serving phase
            if args.trace_out:  # keeps collecting for the trace file
                startup_spans = obs.SpanCollector()
                for sp in collector.spans():
                    startup_spans.record(sp)
            uninstall(keep_collector=bool(args.trace_out))
            code = code()
        return code

    try:
        if recorder is not None:
            recorder.__enter__()
        try:
            if args.profile:
                from repro.obs.profile import profile_block

                with profile_block() as report:
                    code = dispatch()
            else:
                code = dispatch()
        finally:
            if recorder is not None:
                recorder.__exit__(None, None, None)
    finally:
        uninstall()

    if recorder is not None:
        from repro.obs.runs import RunLedger

        manifest = recorder.finish(
            exit_code=code,
            collector=startup_spans,
            registry=registry,
            quality=quality,
            results=getattr(args, "run_results", None),
        )
        try:
            RunLedger(ledger_path).append(manifest)
        except OSError as exc:
            print(f"warning: could not append run ledger: {exc}",
                  file=sys.stderr)
        else:
            print(
                f"recorded run {manifest.run_id} -> {ledger_path}",
                file=sys.stderr,
            )

    if args.metrics and registry is not None:
        print()
        print(registry.render())
    if args.trace_out and collector is not None:
        n_spans = collector.export_jsonl(args.trace_out)
        print(f"wrote {n_spans} spans to {args.trace_out}")
    if report is not None:
        print()
        print("-- profile (top 25 by cumulative time) --")
        print(report.render())
    return code


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _run_with_obs(args, argv=argv if argv is not None else sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
