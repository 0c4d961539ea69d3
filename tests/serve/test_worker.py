"""Tests for the router -> worker hand-off of one ``ServeConfig``.

The router passes each worker the deployment's whole config as
``--config`` JSON, re-pointed at the worker's shard, so every ``repro
serve`` setting reaches every worker.  The alerting test spawns real
worker subprocesses; the hand-off tests parse the worker's command line
in-process.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.serve import worker
from repro.serve.router import WorkerHandle, build_router
from repro.serve.server import ServeConfig

REPO_ROOT = Path(__file__).resolve().parents[2]

# Every field off its default; the paths set.
_ALL_SET = ServeConfig(
    host="0.0.0.0",
    port=8123,
    default_city="B",
    max_body_bytes=4096,
    drift_min_samples=17,
    trace_sample_rate=0.25,
    metrics_window_s=12.0,
    alert_interval_s=0.2,
    alert_log="alerts.jsonl",
    alert_rules_path="rules.json",
    shard=(1, 3),
    mmap_models=False,
    quantized=True,
    workers=3,
    refit_interval_s=0.5,
    refit_jobs=2,
    refit_ledger="runs.jsonl",
)
# The defaults: shard and every path None.
_DEFAULTS = ServeConfig(workers=2)


@pytest.mark.parametrize("config", [_ALL_SET, _DEFAULTS])
def test_config_survives_the_worker_hand_off(monkeypatch, tmp_path, config):
    argv = WorkerHandle(1, tmp_path, config).argv()
    assert argv[1:3] == ["-m", "repro.serve.worker"]
    # What the worker's main hands to run().
    seen = []
    monkeypatch.setattr(
        worker, "run", lambda root, config: seen.append((root, config)) or 0
    )
    assert worker.main(argv[3:]) == 0
    ((root, received),) = seen
    assert root == str(tmp_path)
    expected = dataclasses.replace(
        config,
        host="127.0.0.1",
        port=0,
        workers=1,
        shard=(1, config.workers),
        mmap_models=True,
    )
    assert received == expected
    for field in dataclasses.fields(ServeConfig):
        value = getattr(received, field.name)
        assert value == getattr(expected, field.name), field.name
        assert type(value) is type(getattr(expected, field.name)), field.name


@pytest.mark.parametrize("config", [_ALL_SET, _DEFAULTS])
def test_config_json_round_trip(config):
    assert ServeConfig.from_json(config.to_json()) == config


@pytest.mark.parametrize(
    "config_json",
    [
        ServeConfig(shard=(2, 2)).to_json(),
        ServeConfig(shard=(-1, 2)).to_json(),
        json.dumps({"port": 0, "no_such_setting": 1}),
        json.dumps(["port", 0]),
        "{not json",
    ],
    ids=["shard-too-high", "shard-negative", "unknown-key", "not-object",
         "malformed"],
)
def test_worker_rejects_a_bad_config_as_usage_error(
    monkeypatch, tmp_path, capsys, config_json
):
    monkeypatch.setattr(worker, "run", lambda root, config: 0)
    with pytest.raises(SystemExit) as exc:
        worker.main(["--registry", str(tmp_path), "--config", config_json])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_every_worker_runs_the_alert_evaluator(tmp_path):
    """The alert settings reach each worker: every worker evaluates its
    rules, and each appends its own start row to the shared log."""
    log = tmp_path / "alerts.jsonl"
    server = build_router(
        tmp_path / "models",
        ServeConfig(
            port=0, workers=2, alert_interval_s=0.1, alert_log=str(log)
        ),
    )
    try:
        deadline = time.monotonic() + 30
        while True:
            health = server.router.health()
            evaluations = [
                row["alerts"]["evaluations"] for row in health["workers"]
            ]
            if all(n > 0 for n in evaluations):
                break
            assert time.monotonic() < deadline, evaluations
            time.sleep(0.1)
    finally:
        server.server_close()
    assert len(evaluations) == 2
    events = [json.loads(row)["event"] for row in log.read_text().splitlines()]
    assert events.count("start") == 2


def test_sigterm_handler_is_installed_before_serving_on(monkeypatch, tmp_path):
    """A supervisor may SIGTERM as soon as it reads the line, so the
    graceful handler must already be in place when it is printed."""
    before = signal.getsignal(signal.SIGTERM)
    servers = []
    build = worker.build_server
    monkeypatch.setattr(
        worker,
        "build_server",
        lambda *args: servers.append(build(*args)) or servers[-1],
    )
    at_line = []

    class Probe(io.StringIO):
        def write(self, text):
            if "serving on" in text:
                at_line.append(signal.getsignal(signal.SIGTERM))
                threading.Thread(target=servers[0].shutdown).start()
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", Probe())
    config = ServeConfig(port=0, alert_interval_s=0.0)
    assert worker.run(tmp_path / "models", config) == 0
    (handler,) = at_line
    assert handler not in (signal.SIG_DFL, before)
    assert signal.getsignal(signal.SIGTERM) == before


def test_sigterm_right_after_serving_on_stops_every_worker(tmp_path):
    """`repro serve --workers 2` signalled the moment it prints its
    address exits 0, and no worker outlives it."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--city", "A", "--registry", str(tmp_path / "models"),
            "--port", "0", "--n", "2000", "--workers", "2",
            "--alert-log", "off", "--no-ledger",
            "--log-level", "info", "--log-format", "json",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=str(tmp_path),
    )
    try:
        for line in proc.stdout:
            if line.startswith("serving on"):
                proc.send_signal(signal.SIGTERM)
                break
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 0, stderr
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    pids = [
        json.loads(row)["pid"]
        for row in stderr.splitlines()
        if '"worker started"' in row
    ]
    assert len(pids) == 2, stderr
    survivors = []
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            continue
        survivors.append(pid)
    assert survivors == []
