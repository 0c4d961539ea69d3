"""Standalone stream session: firehose -> monitor -> alerts -> refits.

:class:`StreamSession` is the simulation harness behind ``repro stream
run`` and the streaming benchmark: it drains a firehose source
(:class:`~repro.stream.firehose.MeasurementStream` or
:class:`~repro.stream.firehose.StreamMux`), advances a
:class:`~repro.stream.clock.SimClock` to each batch's stream timestamp,
feeds the monitor, and periodically evaluates disruptions, alert rules,
and the refit scheduler -- all on simulated time, so two runs with the
same seeds produce identical ledgers down to the drift-to-swap latency.

:func:`warmup_and_register` bootstraps the lifecycle: it fits a model
on the firehose's base pool (the "static snapshot" the paper trains
on) and registers it, which is what the stream then drifts away from.
"""

from __future__ import annotations

from typing import Any, Union

from repro.core.bst import BSTModel
from repro.obs.alerts import AlertEngine, default_serve_rules
from repro.obs.logging import get_logger, kv
from repro.obs.metrics import active_or_new
from repro.serve.registry import ModelRecord, ModelRegistry
from repro.stream.clock import SimClock
from repro.stream.firehose import MeasurementStream, StreamMux
from repro.stream.monitor import StreamMonitor
from repro.stream.scheduler import RefitScheduler

__all__ = ["StreamSession", "warmup_and_register"]

log = get_logger("repro.stream.run")

Source = Union[MeasurementStream, StreamMux]


def warmup_and_register(
    stream: MeasurementStream,
    registry: ModelRegistry,
    jobs: int = 1,
) -> ModelRecord:
    """Fit the stream's base pool and register it as the serving model.

    The pool is the pre-drift snapshot, so the registered
    ``training_stats`` are the baseline the stream monitor compares
    live windows against.  The fit uses the default config, the one a
    refit of the model fits with.
    """
    pool = stream.pool  # forces the simulator to build the base pool
    result = BSTModel(stream.catalog).fit(
        pool["downloads"], pool["uploads"], jobs=jobs
    )
    key = registry.key_for(stream.city, stream.catalog)
    record = registry.register(
        key, result, downloads=pool["downloads"], uploads=pool["uploads"]
    )
    log.info(
        "registered warmup model",
        extra=kv(model=key.slug, n=len(pool["downloads"])),
    )
    return record


class StreamSession:
    """Drive a firehose through monitoring and the refit lifecycle.

    Parameters
    ----------
    source:
        The batch source (single stream or mux).
    monitor:
        Receives every batch; its verdicts drive alerts and refits.
    clock:
        The :class:`SimClock` shared with the scheduler and alert
        engine; advanced to each batch's stream timestamp.
    scheduler:
        Optional :class:`RefitScheduler` polled every
        ``poll_interval_s`` of stream time.
    alerts:
        Optional :class:`AlertEngine` evaluated on the same cadence;
        None builds one from :func:`default_serve_rules` wired to the
        monitor's verdicts, reading the installed process registry
        (a new one on ``clock`` when none is installed).
    """

    def __init__(
        self,
        source: Source,
        monitor: StreamMonitor,
        clock: SimClock,
        scheduler: RefitScheduler | None = None,
        alerts: AlertEngine | None = None,
        poll_interval_s: float = 1.0,
    ):
        if alerts is None:
            alerts = AlertEngine(
                default_serve_rules(),
                registry=active_or_new(clock=clock),
                drift_provider=monitor.verdicts,
                clock=clock,
            )
        self.source = source
        self.monitor = monitor
        self.clock = clock
        self.scheduler = scheduler
        self.alerts = alerts
        self.poll_interval_s = float(poll_interval_s)
        self.refits: list[dict[str, Any]] = []
        self.alert_events: list[dict[str, Any]] = []

    def run(
        self,
        duration_s: float | None = None,
        max_batches: int | None = None,
    ) -> dict[str, Any]:
        """Drain the source until a limit is hit; return a summary.

        At least one of ``duration_s`` (stream time) and
        ``max_batches`` must be given.
        """
        if duration_s is None and max_batches is None:
            raise ValueError("give duration_s and/or max_batches")
        t_end = (
            self.clock.now() + float(duration_s)
            if duration_s is not None
            else float("inf")
        )
        n_batches = 0
        n_events = 0
        next_poll = self.clock.now()
        while True:
            if max_batches is not None and n_batches >= max_batches:
                break
            if self.clock.now() >= t_end:
                break
            batch = self.source.next_batch()
            self.clock.advance_to(batch.t_s)
            self.monitor.observe(batch)
            n_batches += 1
            n_events += len(batch)
            if self.clock.now() >= next_poll:
                self._poll()
                next_poll = self.clock.now() + self.poll_interval_s
        self._poll()
        return {
            "n_batches": n_batches,
            "n_events": n_events,
            "stream_t_s": self.clock.now(),
            "refits": list(self.refits),
            "alerts": self.alerts.counts(),
            "alert_events": list(self.alert_events),
            "verdicts": self.monitor.verdicts(),
            "disruptions": self.monitor.disruptions(),
        }

    def _poll(self) -> None:
        self.monitor.disruptions()
        self.alert_events.extend(self.alerts.evaluate(now=self.clock.now()))
        if self.scheduler is not None:
            self.refits.extend(self.scheduler.poll())
