"""Scheduler debounce tests: min-hold, cooldown, max-concurrent, ledger."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.core.bst import BSTConfig
from repro.obs.metrics import use_registry
from repro.obs.runs import RunLedger
from repro.pipeline.contextualize import contextualize
from repro.serve.registry import ModelRegistry
from repro.stream.clock import SimClock
from repro.stream.scheduler import RefitPolicy, RefitScheduler

SLUG_A = "A|ISP-A|" + "0" * 64
SLUG_B = "B|ISP-B|" + "1" * 64


def _verdict(slug: str, drifted: bool = True) -> dict:
    city, isp, _ = slug.split("|")
    return {
        "model": slug,
        "city": city,
        "isp": isp,
        "drifted": drifted,
        "directions": {"download_mbps": {"status": "drifted"}},
    }


class StubMonitor:
    def __init__(self):
        self.verdict_list: list[dict] = []
        self.rebaselined: list[tuple[str, str]] = []
        self.sample_n = 500

    def verdicts(self):
        return [dict(v) for v in self.verdict_list]

    def recent_sample(self, city, isp):
        return (
            np.ones(self.sample_n, dtype=float),
            np.ones(self.sample_n, dtype=float),
        )

    def rebaseline(self, city, isp):
        self.rebaselined.append((city, isp))


def _scheduler(monitor, clock, ledger_path=None, **policy_kwargs):
    defaults = dict(min_hold_s=5.0, cooldown_s=60.0, max_concurrent=1)
    defaults.update(policy_kwargs)
    scheduler = RefitScheduler(
        registry=object(),
        monitor=monitor,
        policy=RefitPolicy(**defaults),
        clock=clock,
        ledger_path=ledger_path,
    )
    return scheduler


def _stub_refits(scheduler, clock):
    """Replace the expensive fit with a provenance-shaped stub."""
    performed = []

    def fake_refit(verdict):
        now = clock()
        outcome = {
            "model": verdict["model"],
            "city": verdict["city"],
            "isp": verdict["isp"],
            "old_digest": "old",
            "new_digest": "new",
            "n_samples": 500,
            "breach_since": verdict["breach_since"],
            "refit_started": now,
            "refit_done": now,
            "drift_to_swap_s": now - verdict["breach_since"],
            "trigger": verdict["directions"],
        }
        performed.append(outcome)
        scheduler.n_refits += 1
        return outcome

    scheduler._refit_one = fake_refit
    return performed


class TestConstruction:
    def test_clock_is_required(self):
        with pytest.raises(ValueError, match="injected clock"):
            RefitScheduler(registry=object(), monitor=StubMonitor())

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RefitPolicy(min_hold_s=-1.0)
        with pytest.raises(ValueError):
            RefitPolicy(max_concurrent=0)


class TestMinHold:
    def test_breach_must_persist(self):
        monitor = StubMonitor()
        clock = SimClock()
        scheduler = _scheduler(monitor, clock)
        _stub_refits(scheduler, clock)
        monitor.verdict_list = [_verdict(SLUG_A)]
        assert scheduler.poll() == []  # breach recorded, not acted on
        clock.advance(4.9)
        assert scheduler.poll() == []
        clock.advance(0.1)
        refits = scheduler.poll()
        assert [r["model"] for r in refits] == [SLUG_A]
        assert refits[0]["drift_to_swap_s"] == pytest.approx(5.0)

    def test_recovery_resets_the_hold(self):
        monitor = StubMonitor()
        clock = SimClock()
        scheduler = _scheduler(monitor, clock)
        _stub_refits(scheduler, clock)
        monitor.verdict_list = [_verdict(SLUG_A)]
        scheduler.poll()
        clock.advance(3.0)
        monitor.verdict_list = [_verdict(SLUG_A, drifted=False)]
        scheduler.poll()  # healthy poll clears the breach
        monitor.verdict_list = [_verdict(SLUG_A)]
        clock.advance(3.0)
        assert scheduler.poll() == []  # hold restarts from the re-breach
        clock.advance(5.0)
        assert len(scheduler.poll()) == 1


class TestCooldown:
    def test_repeated_verdicts_inside_cooldown_do_not_refit(self):
        monitor = StubMonitor()
        clock = SimClock()
        scheduler = _scheduler(monitor, clock, cooldown_s=60.0)
        _stub_refits(scheduler, clock)
        monitor.verdict_list = [_verdict(SLUG_A)]
        scheduler.poll()
        clock.advance(5.0)
        assert len(scheduler.poll()) == 1
        for _ in range(10):  # keep shouting inside the cooldown
            clock.advance(5.0)
            assert scheduler.poll() == []
        clock.advance(60.0)  # past cooldown; breach persisted throughout
        assert len(scheduler.poll()) == 1

    def test_insufficient_sample_releases_the_reservation(self):
        monitor = StubMonitor()
        monitor.sample_n = 3  # below policy.min_samples
        clock = SimClock()
        scheduler = _scheduler(monitor, clock, min_samples=200)
        monitor.verdict_list = [_verdict(SLUG_A)]
        scheduler.poll()
        clock.advance(5.0)
        assert scheduler.poll() == []  # skipped: not enough data
        assert SLUG_A not in scheduler._last_refit  # no phantom cooldown
        monitor.sample_n = 500
        assert scheduler.poll() == []  # registry=object() -> fit fails
        assert scheduler.n_failures == 1


class TestMaxConcurrent:
    def test_one_refit_per_cycle(self):
        monitor = StubMonitor()
        clock = SimClock()
        scheduler = _scheduler(monitor, clock, max_concurrent=1)
        _stub_refits(scheduler, clock)
        monitor.verdict_list = [_verdict(SLUG_A), _verdict(SLUG_B)]
        scheduler.poll()
        clock.advance(5.0)
        first = scheduler.poll()
        assert [r["model"] for r in first] == [SLUG_A]
        second = scheduler.poll()  # B is still due, A now cooling down
        assert [r["model"] for r in second] == [SLUG_B]
        assert scheduler.poll() == []


class TestSideEffects:
    def test_reload_and_rebaseline_and_ledger(self, tmp_path):
        monitor = StubMonitor()
        clock = SimClock()
        ledger_path = tmp_path / "runs.jsonl"
        scheduler = _scheduler(monitor, clock, ledger_path=str(ledger_path))
        reloaded: list[list[str]] = []
        scheduler.reload_cb = reloaded.append
        _stub_refits(scheduler, clock)
        monitor.verdict_list = [_verdict(SLUG_A)]
        scheduler.poll()
        clock.advance(5.0)
        scheduler.poll()
        assert reloaded == [[SLUG_A]]
        assert monitor.rebaselined == [("A", "ISP-A")]
        rows = [
            json.loads(line)
            for line in ledger_path.read_text().splitlines()
        ]
        assert len(rows) == 1
        manifest = rows[0]
        assert manifest["kind"] == "refit"
        assert manifest["name"] == "stream.refit"
        assert manifest["params"]["model"] == SLUG_A
        assert manifest["params"]["old_digest"] == "old"
        assert manifest["params"]["new_digest"] == "new"
        assert manifest["params"]["policy"]["cooldown_s"] == 60.0
        assert manifest["results"]["drift_to_swap_s"] == pytest.approx(5.0)
        # And the ledger round-trips through the reader API.
        ledger = RunLedger(str(ledger_path))
        assert [m.kind for m in ledger.matching(kind="refit")] == ["refit"]

    def test_reload_failure_does_not_lose_the_refit(self):
        monitor = StubMonitor()
        clock = SimClock()
        scheduler = _scheduler(monitor, clock)

        def explode(slugs):
            raise OSError("worker gone")

        scheduler.reload_cb = explode
        _stub_refits(scheduler, clock)
        monitor.verdict_list = [_verdict(SLUG_A)]
        scheduler.poll()
        clock.advance(5.0)
        refits = scheduler.poll()
        assert len(refits) == 1  # swap failure is logged, refit survives
        assert monitor.rebaselined == [("A", "ISP-A")]


class TestRefitConfig:
    def test_key_of_another_config_fails_and_registers_nothing(
        self, tmp_path, ookla_a, catalog_a
    ):
        """A refit fits the default config, so it may only replace a
        model registered under the default config's hash."""
        registry = ModelRegistry(tmp_path / "models")
        kmeans = BSTConfig(clustering="kmeans")
        contextualize(
            ookla_a, catalog_a, config=kmeans, registry=registry, city="A"
        )
        key = registry.key_for("A", catalog_a, kmeans)
        before = registry.lookup(key)
        sample = (
            np.asarray(ookla_a["download_mbps"], dtype=float),
            np.asarray(ookla_a["upload_mbps"], dtype=float),
        )
        monitor = StubMonitor()
        monitor.recent_sample = lambda city, isp: sample
        monitor.verdict_list = [_verdict(key.slug)]
        scheduler = _scheduler(monitor, SimClock(), min_hold_s=0.0)
        scheduler.registry = registry
        with use_registry() as metrics:
            assert scheduler.poll() == []
        assert metrics.counter("stream.refit_failures").value == 1
        assert (scheduler.n_refits, scheduler.n_failures) == (0, 1)
        assert registry.lookup(key).digest == before.digest
        assert monitor.rebaselined == []


class TestDaemon:
    def test_start_poll_stop_with_injected_sleep(self):
        monitor = StubMonitor()
        clock = SimClock()
        scheduler = _scheduler(monitor, clock)
        _stub_refits(scheduler, clock)
        monitor.verdict_list = [_verdict(SLUG_A)]
        scheduler.start(interval_s=1.0, sleep=clock.sleep)
        deadline = time.monotonic() + 10.0
        while scheduler.n_refits == 0 and time.monotonic() < deadline:
            pass
        scheduler.stop()
        assert scheduler.n_refits >= 1
        assert scheduler._thread is None

    def test_start_is_idempotent(self):
        monitor = StubMonitor()
        clock = SimClock()
        scheduler = _scheduler(monitor, clock)
        scheduler.start(interval_s=0.01, sleep=clock.sleep)
        thread = scheduler._thread
        assert scheduler.start(interval_s=0.01) is scheduler
        assert scheduler._thread is thread
        scheduler.stop()
