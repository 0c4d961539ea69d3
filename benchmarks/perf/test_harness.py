"""Self-tests of the benchmark harness.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from repro.core.bst import BSTModel
from repro.core.config import BSTConfig
from repro.market.isps import city_catalog
from repro.obs.runs import config_fingerprint
from repro.obs.trace import Span
from repro.serve.registry import ModelKey, ModelRegistry
from repro.serve.server import AssignmentService, ServeConfig
from repro.stats import kde

from benchmarks.perf import cli, compare, loadgen, pipeline, serving
from benchmarks.perf.spec import DETAILS, RunResult, load_benchmark

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@contextlib.contextmanager
def stalling_server(stall_s: float):
    """A single-threaded HTTP server that takes ``stall_s`` per request."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_POST(self):  # noqa: N802 (stdlib naming)
            self.rfile.read(int(self.headers["Content-Length"]))
            time.sleep(stall_s)
            self.send_response(200)
            self.send_header("Content-Length", "2")
            self.end_headers()
            self.wfile.write(b"{}")

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def _phase(port, rate, duration_s, grace_s):
    sender = loadgen.HttpSender("127.0.0.1", port, keepalive=True)
    ops = loadgen.schedule(rate, duration_s, lambda i: i)
    try:
        return loadgen.run_phase(
            ops,
            lambda k, op: sender.request(k, "POST", "/", b"{}"),
            duration_s,
            threads=1,
            grace_s=grace_s,
        )
    finally:
        sender.close()


def test_open_loop_latency_from_due_time_shows_backlog():
    # 40 req/s against a 20 req/s server: each request waits for all
    # earlier ones, so latency from the due time grows by ~25 ms a step.
    with stalling_server(0.05) as port:
        outcomes = _phase(port, rate=40.0, duration_s=0.5, grace_s=5.0)
    latencies = [o.latency_s for o in outcomes]
    assert all(o.status == 200 for o in outcomes)
    assert latencies[-1] > latencies[0] + 0.3
    assert latencies == sorted(latencies)
    # The generator itself ran late by the backlog, and says so.
    assert outcomes[-1].late_s > 0.25


def test_step_ends_at_wall_time_and_counts_unfinished_as_failed():
    with stalling_server(0.2) as port:
        t0 = time.perf_counter()
        outcomes = _phase(port, rate=20.0, duration_s=0.5, grace_s=0.2)
        elapsed = time.perf_counter() - t0
    assert elapsed < 1.3  # not the 2 s the 10 requests would take
    shed = [o for o in outcomes if o.status == loadgen.SHED]
    assert shed
    stats = loadgen.step_stats(
        [(outcomes, [o.status == 200 for o in outcomes])],
        20.0,
        0.5,
        grace_s=0.2,
    )
    assert stats.scheduled == 10
    assert stats.in_time < stats.scheduled
    assert not stats.passed


def _span(span_id, parent, start, end, name="x"):
    return Span(name, span_id, parent, start_s=start, end_s=end)


def test_self_time_on_a_synthetic_span_tree():
    from benchmarks.perf import tracing

    spans = [
        _span(1, None, 0.0, 10.0, "root"),
        _span(2, 1, 1.0, 4.0, "a"),
        _span(3, 1, 3.0, 6.0, "b"),  # overlaps a
        _span(4, 2, 2.0, 3.0, "leaf"),
        _span(5, 1, 8.0, 12.0, "late"),  # runs past its parent
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 4.0})
    for sp in spans:
        assert 0.0 <= own[sp.span_id] <= sp.duration_s
    stats = tracing.layer_stats(spans)
    assert stats["root"] == {"calls": 1.0, "self_s": 3.0, "p50_s": 10.0}


def test_correctness_check_flags_a_tampered_response(tmp_path):
    rng = np.random.default_rng(0)
    ups = np.concatenate([rng.normal(5.5, 0.4, 400), rng.normal(40, 2, 400)])
    downs = np.concatenate([rng.normal(110, 9, 400), rng.normal(900, 60, 400)])
    key = ModelKey(
        "A", city_catalog("A").isp_name, config_fingerprint(BSTConfig())
    )
    model = serving.Model(
        key, BSTModel(city_catalog("A")).fit(downs, ups), downs, ups
    )
    inputs = serving.Inputs([model], [], [], keepalive=True, reloads=False)
    payload = {
        "downloads": [110.0, 905.5, 101.25],
        "uploads": [5.4, 39.0, 5.9],
        "city": "A",
        "isp": key.isp,
    }
    serving._expect(inputs, [(0, payload)])
    registry = serving.populate(tmp_path, [model])
    service = AssignmentService(ModelRegistry(registry.root), ServeConfig())
    try:
        answer = service.assign_payload(json.loads(inputs.bodies[0]))
    finally:
        service.close()
    load = serving.Load(inputs, port=1, registry=registry)
    op = loadgen.Op(0.0, 0)

    def outcome(status, body):
        return loadgen.Outcome(op, status, json.dumps(body).encode(), 0, 0, 0)

    assert load.good(outcome(200, answer))
    tampered = dict(answer, tiers=[t + 1 for t in answer["tiers"]])
    assert not load.good(outcome(200, tampered))
    assert not load.good(outcome(500, answer))


def test_compare_rules():
    spec = compare.MetricSpec(
        "latency_p50_ms", "ms", "lower", 0.1, "rel", "metrics"
    )

    def verdict(parent, change):
        return compare.judge(parent, change, spec, "x")[0]

    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    assert verdict(parent, [v * 0.8 for v in parent]) == "gain"
    assert verdict(parent, [v * 1.2 for v in parent]) == "REGRESSED"
    assert verdict(parent, [v * 1.05 for v in parent]) == "ok"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, noisy) == "unresolved"
    # Fewer than ten pairs never claim a gain.
    assert verdict(parent[:5], [5.0] * 5) == "ok"


def _scaled(runs, name, factor):
    out = []
    for run in runs:
        metric = dict(run["metrics"][name])
        metric["value"] *= factor
        out.append(dict(run, metrics=dict(run["metrics"], **{name: metric})))
    return out


def test_compare_flags_a_15_percent_throughput_loss_on_serve_small(
    tmp_path, capsys
):
    # The declared bound is only a ceiling; serve_small's own baseline
    # spread sets a much tighter one for its throughput.
    bench = load_benchmark()
    parent_path = compare.BASELINE_DIR / "serve_small.json"
    parent = compare.baseline_runs("serve_small")
    bound = next(
        s.bound
        for s in compare.specs(bench, "serve_small", parent)
        if s.name == "throughput_per_s"
    )
    assert compare.MIN_BOUND <= bound < 0.15
    for factor, code, verdict in ((1.0, 0, "ok"), (0.85, 1, "REGRESSED")):
        change = tmp_path / f"change-{factor}.jsonl"
        change.write_text(
            "".join(
                json.dumps(run) + "\n"
                for run in _scaled(parent, "throughput_per_s", factor)
            )
        )
        assert compare.compare_files(parent_path, change, bench) == code
        row = next(
            line.split() for line in capsys.readouterr().out.splitlines()
            if line.split()[:2] == ["serve_small", "throughput_per_s"]
        )
        assert row[6] == verdict, row


def test_benchmark_json_meets_the_contract():
    bench = load_benchmark()
    assert set(bench) == {
        "command", "paths", "run_seconds",
        "workloads", "end_to_end", "per_layer",
    }
    assert bench["paths"] == ["benchmarks/perf"]
    assert 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    names = []
    for row in bench["workloads"]:
        assert set(row) == {"name", "why"} and len(row["why"]) <= 200
        names.append(row["name"])
    for row in bench["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in bench["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    for row in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(row["unit"]) and row["better"] in ("higher", "lower")
        names.append(row["name"])
    setup = next(r for r in bench["end_to_end"] if r["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(r["bound"] for r in bench["end_to_end"])
    for detail in (d for group in DETAILS.values() for d in group):
        assert detail.name not in names
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))


def test_an_undeclared_metric_is_refused():
    result = RunResult(attempted=1, metrics={"made_up_ms": 1.0})
    with pytest.raises(ValueError, match="made_up_ms"):
        cli.finalize(result, load_benchmark(), trace=False)


def _printed(argv):
    """Run the CLI; return the metric names it printed, and its JSON."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    lines = out.getvalue().splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("-- metrics"))
    stop = next(
        i for i, l in enumerate(lines) if l.startswith("ops_attempted")
    )
    names = {line.split()[0] for line in lines[start + 1 : stop]}
    return code, names, json.loads(lines[-1])


@pytest.fixture
def small(monkeypatch):
    """Shrink paper_pipeline so a self-test runs it in seconds; the MBA
    panels stay large enough for the binned KDE path."""
    monkeypatch.setattr(pipeline, "N_OOKLA", 400)
    monkeypatch.setattr(pipeline, "N_MBA", 1000)
    monkeypatch.setattr(pipeline, "MIN_PASSES", 2)
    monkeypatch.setattr(pipeline, "SETUP_REPEATS", 1)
    monkeypatch.setattr(kde, "FAST_PATH_MIN_SAMPLES", 1000)


@pytest.mark.parametrize(
    "workload,trace",
    [
        ("paper_pipeline", 0),
        ("paper_pipeline", 1),
        ("stream_refit", 1),
        ("serve_bulk", 1),
    ],
)
def test_every_printed_metric_is_declared(small, workload, trace):
    bench = load_benchmark()
    code, names, record = _printed(
        ["run", "--workload", workload, "--seconds", "1",
         "--trace", str(trace)]
    )
    declared = set(cli.declared_metrics(bench, bool(trace)))
    details = {d.name for d in DETAILS.get(workload, ())}
    assert code == 0 and record["correct"], record
    assert names <= declared | details
    assert set(record["metrics"]) == declared
    assert record["attempted"] >= 1 and record["failed"] == 0


def test_a_traced_pipeline_without_binned_grids_fails(small, monkeypatch):
    monkeypatch.setattr(kde, "FAST_PATH_MIN_SAMPLES", 10**9)
    code, _, record = _printed(
        ["run", "--workload", "paper_pipeline", "--seconds", "1",
         "--trace", "1"]
    )
    assert code == 1 and not record["correct"]
    assert record["metrics"]["kde.grid.binned"]["value"] == 0
