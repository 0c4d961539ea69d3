"""Drift-triggered model lifecycle: the refit scheduler.

:class:`RefitScheduler` closes the loop the serving tier left open --
drift is *detected* (``/healthz`` verdicts, ``model_drift`` alerts) but
nothing acts on it.  The scheduler polls a drift source (a
:class:`~repro.stream.monitor.StreamMonitor` or a live
:class:`~repro.serve.server.AssignmentService`) for rolling verdicts,
debounces them, and refits the affected ``(city, isp)`` shard on the
source's retained recent sample:

1. **min-hold** -- a verdict must stay drifted for ``min_hold_s``
   before a refit starts (a single noisy window refits nothing);
2. **cooldown** -- a shard that just refit is immune for
   ``cooldown_s`` even if verdicts keep arriving (repeated verdicts
   inside the cooldown provably cause no second refit);
3. **max-concurrent** -- at most ``max_concurrent`` refits run per
   poll cycle, so a fleet-wide disruption cannot stampede the fitter.

A refit fits :class:`~repro.core.bst.BSTModel` with the default
:class:`~repro.core.bst.BSTConfig` on the source's recent raw sample
(``jobs`` fans the per-group download fits out through
:mod:`repro.core.parallel`), registers the result content-addressed
under the *same* model key (a key whose ``config_hash`` names another
config fails the refit and registers nothing), calls the optional
``reload_cb`` (``POST /reload`` on a separate server), rebaselines the
source (a serving source hot-swaps there; see docs/STREAMING.md), and
appends a ``kind="refit"`` manifest to the run ledger with full provenance
(old/new digest, sample size, the triggering verdict, drift-to-swap
latency).

The scheduler never reads the wall clock: ``clock`` and ``sleep`` are
injected (:mod:`repro.stream.clock`), so the end-to-end lifecycle --
including the debounce timings and the ``stream.refit_latency_s``
histogram -- is deterministic under :class:`SimClock`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.bst import BSTConfig, BSTModel
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger, kv
from repro.obs.runs import (
    RunLedger,
    RunRecorder,
    config_fingerprint,
    default_ledger_path,
)
from repro.obs.trace import span
from repro.serve.registry import ModelKey, ModelRegistry
from repro.serve.server import AssignmentService
from repro.stream.monitor import StreamMonitor

__all__ = ["RefitPolicy", "RefitScheduler"]

log = get_logger("repro.stream.scheduler")

#: The ``config_hash`` of the one config a refit fits with.
_REFIT_CONFIG_HASH = config_fingerprint(BSTConfig())


@dataclass(frozen=True)
class RefitPolicy:
    """Debounce knobs for the refit scheduler (times in clock seconds)."""

    min_hold_s: float = 5.0
    cooldown_s: float = 300.0
    max_concurrent: int = 1
    min_samples: int = 200

    def __post_init__(self) -> None:
        if self.min_hold_s < 0 or self.cooldown_s < 0:
            raise ValueError("debounce intervals cannot be negative")
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


class RefitScheduler:
    """Consumes drift verdicts, emits debounced shard-local refits.

    Parameters
    ----------
    registry:
        The serving model registry refits are registered into.
    monitor:
        Drift-verdict and refit-sample source (``verdicts``,
        ``recent_sample``, ``rebaseline``).
    policy:
        Debounce configuration (:class:`RefitPolicy`).
    clock:
        Injectable monotonic clock -- **required**; the scheduler keeps
        every timestamp it reasons about on this clock.
    reload_cb:
        Called with the list of refit model slugs after registration;
        wire this to ``ServeClient.reload`` so a server fed by a
        separate monitor hot-swaps.  None skips it (a serving source
        swaps in ``rebaseline``).
    jobs:
        Worker processes for each refit's per-group download fits
        (through :mod:`repro.core.parallel`; 1 = serial).
    ledger_path:
        Run-ledger path for refit provenance; defaults to
        :func:`repro.obs.runs.default_ledger_path` (None disables).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        monitor: StreamMonitor | AssignmentService,
        policy: RefitPolicy | None = None,
        clock: Callable[[], float] | None = None,
        reload_cb: Callable[[list[str]], Any] | None = None,
        jobs: int = 1,
        ledger_path: str | None = "auto",
    ):
        if clock is None:
            raise ValueError(
                "RefitScheduler needs an injected clock; pass "
                "stream.clock.system_clock() to run on real time"
            )
        self.registry = registry
        self.monitor = monitor
        self.policy = policy or RefitPolicy()
        self.clock = clock
        self.reload_cb = reload_cb
        self.jobs = int(jobs)
        self.ledger_path = (
            default_ledger_path() if ledger_path == "auto" else ledger_path
        )
        self._lock = threading.Lock()
        self._breach_since: dict[str, float] = {}
        self._last_refit: dict[str, float] = {}
        self.n_refits = 0
        self.n_failures = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._sleep: Callable[[float], None] | None = None

    # -- one poll cycle --------------------------------------------------
    def poll(self) -> list[dict[str, Any]]:
        """Evaluate verdicts once; run any refits that clear debounce.

        Returns one provenance dict per completed refit (empty when
        everything is healthy or still debouncing).
        """
        verdicts = self.monitor.verdicts()
        now = self.clock()
        due: list[dict[str, Any]] = []
        with self._lock:
            for verdict in verdicts:
                slug = verdict["model"]
                if not verdict["drifted"]:
                    self._breach_since.pop(slug, None)
                    continue
                since = self._breach_since.setdefault(slug, now)
                if now - since < self.policy.min_hold_s:
                    continue
                last = self._last_refit.get(slug)
                if last is not None and now - last < self.policy.cooldown_s:
                    continue
                if len(due) >= self.policy.max_concurrent:
                    continue
                due.append(dict(verdict, breach_since=since))
            # Reserve the slots inside the lock so a concurrent poll
            # cannot double-refit the same shard.
            for verdict in due:
                self._last_refit[verdict["model"]] = now
        if not due:
            return []
        active = obs_metrics.gauge("stream.active_refits")
        active.set(float(len(due)))
        completed: list[dict[str, Any]] = []
        try:
            for verdict in due:
                outcome = self._refit_one(verdict)
                if outcome is not None:
                    completed.append(outcome)
        finally:
            active.set(0.0)
        if completed and self.reload_cb is not None:
            slugs = [c["model"] for c in completed]
            try:
                self.reload_cb(slugs)
            except Exception as exc:
                log.error(
                    "hot-swap reload failed", extra=kv(error=repr(exc))
                )
        for outcome in completed:
            self.monitor.rebaseline(outcome["city"], outcome["isp"])
            self._record_refit(outcome)
        return completed

    def _refit_one(self, verdict: dict[str, Any]) -> dict[str, Any] | None:
        slug = verdict["model"]
        key = ModelKey.from_slug(slug)
        downloads, uploads = self.monitor.recent_sample(
            verdict["city"], verdict["isp"]
        )
        if len(downloads) < self.policy.min_samples:
            log.warning(
                "skipping refit: not enough retained samples",
                extra=kv(model=slug, n=len(downloads)),
            )
            with self._lock:
                # Release the reservation so the shard retries next poll.
                self._last_refit.pop(slug, None)
            return None
        t_start = self.clock()
        try:
            with span("stream.refit", model=slug, n=len(downloads)):
                if key.config_hash != _REFIT_CONFIG_HASH:
                    raise ValueError(
                        "refits fit the default BSTConfig; this key "
                        "names another config"
                    )
                served, old = self.registry.load(key)
                result = BSTModel(served.catalog).fit(
                    downloads, uploads, jobs=self.jobs
                )
                record = self.registry.register(
                    key, result, downloads=downloads, uploads=uploads
                )
        except Exception as exc:
            self.n_failures += 1
            obs_metrics.counter("stream.refit_failures").inc()
            log.error(
                "refit failed", extra=kv(model=slug, error=repr(exc))
            )
            return None
        t_done = self.clock()
        self.n_refits += 1
        latency = t_done - verdict["breach_since"]
        obs_metrics.counter("stream.refits").inc()
        obs_metrics.histogram("stream.refit_latency_s").observe(latency)
        log.info(
            "refit shard",
            extra=kv(
                model=slug,
                old_digest=old.digest[:16],
                new_digest=record.digest[:16],
                n_samples=len(downloads),
            ),
        )
        return {
            "model": slug,
            "city": verdict["city"],
            "isp": verdict["isp"],
            "old_digest": old.digest,
            "new_digest": record.digest,
            "n_samples": int(len(downloads)),
            "breach_since": verdict["breach_since"],
            "refit_started": t_start,
            "refit_done": t_done,
            "drift_to_swap_s": latency,
            "trigger": _jsonable(verdict["directions"]),
        }

    def _record_refit(self, outcome: dict[str, Any]) -> None:
        """Append the refit's provenance manifest to the run ledger."""
        if not self.ledger_path:
            return
        recorder = RunRecorder(
            kind="refit",
            name="stream.refit",
            params={
                "model": outcome["model"],
                "city": outcome["city"],
                "isp": outcome["isp"],
                "old_digest": outcome["old_digest"],
                "new_digest": outcome["new_digest"],
                "n_samples": outcome["n_samples"],
                "trigger": outcome["trigger"],
                "policy": {
                    "min_hold_s": self.policy.min_hold_s,
                    "cooldown_s": self.policy.cooldown_s,
                    "max_concurrent": self.policy.max_concurrent,
                },
            },
        )
        manifest = recorder.finish(
            exit_code=0,
            results={
                "drift_to_swap_s": outcome["drift_to_swap_s"],
                "n_samples": float(outcome["n_samples"]),
            },
            wall_s=outcome["refit_done"] - outcome["refit_started"],
        )
        try:
            RunLedger(self.ledger_path).append(manifest)
        except OSError as exc:
            log.error(
                "could not append refit to run ledger",
                extra=kv(path=str(self.ledger_path), error=repr(exc)),
            )

    # -- background daemon ----------------------------------------------
    def start(
        self,
        interval_s: float = 1.0,
        sleep: Callable[[float], None] | None = None,
    ) -> "RefitScheduler":
        """Run :meth:`poll` every ``interval_s`` in a daemon thread.

        ``sleep`` is injectable like ``clock``; the default waits on the
        stop event (real time), which is what live serving wants.
        """
        if self._thread is not None:
            return self
        self._sleep = sleep
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run,
            args=(float(interval_s),),
            name="refit-scheduler",
            daemon=True,
        )
        self._thread.start()
        return self

    def _run(self, interval_s: float) -> None:
        while not self._stop.is_set():
            try:
                self.poll()
            except Exception as exc:
                log.error(
                    "refit poll crashed", extra=kv(error=repr(exc))
                )
            if self._sleep is not None:
                self._sleep(interval_s)
                if self._stop.is_set():
                    return
            else:
                self._stop.wait(interval_s)

    def stop(self) -> None:
        """Stop the daemon and join it."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=10)
            self._thread = None


def _jsonable(value: Any) -> Any:
    """Round-trip-safe copy of a verdict fragment (numpy scalars -> py)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value
