"""Declarative alerting over windowed metrics and drift verdicts.

ROADMAP item 1 calls for disruption detection on the live serving
stream; this module is the rule layer over the windowed instruments in
:mod:`repro.obs.metrics` and ``AssignmentService.verdicts()``.  A
rule names a metric and a predicate; the engine evaluates every rule
against the current window and drives a firing → resolved lifecycle
with optional hold times so flapping signals do not page::

    rules = default_serve_rules()
    engine = AlertEngine(rules, registry=service.metrics,
                         drift_provider=service.verdicts,
                         log_path="results/alerts.jsonl")
    engine.evaluate()           # one pass; or AlertEvaluator(engine)
    engine.active()             # currently-firing alerts

Rule kinds:

``threshold``
    Compare a windowed statistic of one instrument (``rate``/``sum``
    of a counter, ``value`` of a gauge or cumulative counter,
    ``count``/``mean``/``p50``/``p95``/``p99`` of a histogram window)
    against a constant.
``rate_of_change``
    Compare the change in a counter's per-second rate between the
    trailing window and the window before it (detects collapses and
    surges, e.g. throughput falling off a cliff).
``drift``
    Compare the number of drifted models reported by the engine's
    ``drift_provider`` (``AssignmentService.verdicts()``) against
    a constant.

Transitions append JSON lines to ``log_path`` and bump the
``serve.alerts_fired`` / ``serve.alerts_resolved`` counters and the
``serve.alerts_active`` gauge, so alert activity is itself visible in
``/metrics``.  See docs/ALERTING.md for the JSON rule syntax.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger, kv
from repro.obs.metrics import DEFAULT_WINDOW_S, MetricsRegistry
from repro.obs.trace import span

__all__ = [
    "AlertEngine",
    "AlertEvaluator",
    "AlertRule",
    "default_serve_rules",
    "load_rules",
]

log = get_logger("obs.alerts")

_KINDS = ("threshold", "rate_of_change", "drift")
_STATS = ("rate", "sum", "value", "count", "mean", "p50", "p95", "p99")
_OPS: dict[str, Callable[[float, float], bool]] = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}
_SEVERITIES = ("info", "warning", "critical")


@dataclass(frozen=True)
class AlertRule:
    """One declarative predicate over the telemetry stream."""

    name: str
    kind: str = "threshold"
    metric: str = ""
    stat: str = "rate"
    window_s: float = DEFAULT_WINDOW_S
    op: str = ">"
    threshold: float = 0.0
    min_hold_s: float = 0.0
    resolve_hold_s: float = 0.0
    severity: str = "warning"
    message: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("alert rules need a name")
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown rule kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.kind != "drift" and not self.metric:
            raise ValueError(f"rule {self.name!r} names no metric")
        if self.stat not in _STATS:
            raise ValueError(
                f"unknown stat {self.stat!r}; expected one of {_STATS}"
            )
        if self.op not in _OPS:
            raise ValueError(
                f"unknown comparison {self.op!r}; "
                f"expected one of {tuple(_OPS)}"
            )
        if self.severity not in _SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; "
                f"expected one of {_SEVERITIES}"
            )
        if self.window_s <= 0:
            raise ValueError(f"rule {self.name!r}: window_s must be > 0")

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "AlertRule":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(payload) - known
        if extra:
            raise ValueError(
                f"unknown rule field(s) {sorted(extra)} in "
                f"{payload.get('name', '<unnamed>')!r}"
            )
        return cls(**payload)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    def describe(self) -> str:
        """Human-readable predicate, used as the default message."""
        if self.kind == "drift":
            return f"drifted models {self.op} {self.threshold:g}"
        if self.kind == "rate_of_change":
            return (
                f"Δrate({self.metric}, {self.window_s:g}s) "
                f"{self.op} {self.threshold:g}/s"
            )
        return (
            f"{self.stat}({self.metric}, {self.window_s:g}s) "
            f"{self.op} {self.threshold:g}"
        )

    def value_from(
        self,
        registry: MetricsRegistry,
        drift_verdicts: Sequence[dict[str, Any]],
    ) -> float:
        """The rule's current input value; ``nan`` when no data exists.

        A ``nan`` value compares false against any threshold, so rules
        over instruments that have not reported yet stay quiet instead
        of firing on missing data.
        """
        if self.kind == "drift":
            return float(
                sum(1 for d in drift_verdicts if d.get("drifted"))
            )
        counters, gauges, histograms = registry.instruments()
        if self.kind == "rate_of_change":
            inst = counters.get(self.metric)
            if inst is None:
                return float("nan")
            recent = inst.window_sum(self.window_s)
            previous = inst.window_sum(2 * self.window_s) - recent
            return (recent - previous) / self.window_s
        inst = (
            counters.get(self.metric)
            or gauges.get(self.metric)
            or histograms.get(self.metric)
        )
        if inst is None:
            return float("nan")
        if isinstance(inst, obs_metrics.Counter):
            if self.stat == "rate":
                return inst.rate(self.window_s)
            if self.stat == "sum":
                return inst.window_sum(self.window_s)
            if self.stat == "value":
                return inst.value
            return float("nan")
        if isinstance(inst, obs_metrics.Gauge):
            return inst.value if self.stat == "value" else float("nan")
        snap = inst.window_snapshot(self.window_s)
        return snap.get(self.stat, float("nan"))

    def breached(self, value: float) -> bool:
        if math.isnan(value):
            return False
        return _OPS[self.op](value, self.threshold)


@dataclass
class _RuleState:
    """Mutable lifecycle state the engine tracks per rule."""

    rule: AlertRule
    firing: bool = False
    breach_since: float | None = None
    clear_since: float | None = None
    fired_at: float | None = None
    last_value: float = field(default=float("nan"))
    n_fired: int = 0


class AlertEngine:
    """Evaluates rules against a registry; owns the alert lifecycle.

    Lifecycle per rule: a breach must persist ``min_hold_s`` before the
    alert fires (one ``fired`` event — no re-fires while it stays
    breached, which is the dedup), and the predicate must stay clear
    ``resolve_hold_s`` before it resolves.  ``evaluate`` is safe to
    call from any thread; transitions are appended to ``log_path`` as
    JSON lines.
    """

    def __init__(
        self,
        rules: Iterable[AlertRule],
        registry: MetricsRegistry,
        drift_provider: Callable[[], Sequence[dict[str, Any]]] | None = None,
        log_path: str | Path | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        rules = list(rules)
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names in {names}")
        self._lock = threading.Lock()
        self._states = {rule.name: _RuleState(rule) for rule in rules}
        self.registry = registry
        self.drift_provider = drift_provider
        self.log_path = Path(log_path) if log_path else None
        self._clock = clock if clock is not None else time.monotonic
        self._n_evaluations = 0
        if self.log_path is not None:
            self.log_path.parent.mkdir(parents=True, exist_ok=True)
            self._append_log(
                {
                    "event": "start",
                    "rules": [rule.name for rule in rules],
                }
            )

    @property
    def rules(self) -> list[AlertRule]:
        return [state.rule for state in self._states.values()]

    def evaluate(self, now: float | None = None) -> list[dict[str, Any]]:
        """One evaluation pass; returns the transition events it caused."""
        with span("alerts.evaluate", n_rules=len(self._states)) as sp:
            # Gather drift verdicts before taking the engine lock: the
            # provider takes the service lock, and holding both here
            # would order engine-lock -> service-lock against any
            # service path that later asks the engine for state.
            drift_verdicts: Sequence[dict[str, Any]] = ()
            if self.drift_provider is not None and any(
                state.rule.kind == "drift"
                for state in self._states.values()
            ):
                drift_verdicts = self.drift_provider()
            events: list[dict[str, Any]] = []
            with self._lock:
                t = self._clock() if now is None else float(now)
                self._n_evaluations += 1
                for state in self._states.values():
                    rule = state.rule
                    value = rule.value_from(self.registry, drift_verdicts)
                    state.last_value = value
                    if rule.breached(value):
                        state.clear_since = None
                        if state.breach_since is None:
                            state.breach_since = t
                        if (
                            not state.firing
                            and t - state.breach_since >= rule.min_hold_s
                        ):
                            state.firing = True
                            state.fired_at = t
                            state.n_fired += 1
                            events.append(self._event("fired", state, t))
                    else:
                        state.breach_since = None
                        if state.firing:
                            if state.clear_since is None:
                                state.clear_since = t
                            if t - state.clear_since >= rule.resolve_hold_s:
                                state.firing = False
                                events.append(
                                    self._event("resolved", state, t)
                                )
                                state.fired_at = None
                                state.clear_since = None
                n_active = sum(
                    1 for state in self._states.values() if state.firing
                )
            sp.set(n_events=len(events), n_active=n_active)
        for event in events:
            self._append_log(event)
            self.registry.counter(f"serve.alerts_{event['event']}").inc()
            log.warning(
                "alert %s", event["event"],
                extra=kv(rule=event["rule"], value=event["value"]),
            )
        self.registry.gauge("serve.alerts_active").set(float(n_active))
        return events

    def active(self) -> list[dict[str, Any]]:
        """Currently-firing alerts, most severe first."""
        with self._lock:
            t = self._clock()
            rows = [
                {
                    "rule": state.rule.name,
                    "severity": state.rule.severity,
                    "value": state.last_value,
                    "threshold": state.rule.threshold,
                    "since_s": (
                        t - state.fired_at
                        if state.fired_at is not None
                        else 0.0
                    ),
                    "message": state.rule.message
                    or state.rule.describe(),
                }
                for state in self._states.values()
                if state.firing
            ]
        order = {sev: i for i, sev in enumerate(_SEVERITIES)}
        rows.sort(key=lambda r: (-order[r["severity"]], r["rule"]))
        return rows

    def counts(self) -> dict[str, int]:
        with self._lock:
            fired = sum(s.n_fired for s in self._states.values())
            active = sum(1 for s in self._states.values() if s.firing)
            return {
                "fired": fired,
                "active": active,
                "resolved": fired - active,
                "evaluations": self._n_evaluations,
            }

    def _event(
        self, kind: str, state: _RuleState, t: float
    ) -> dict[str, Any]:
        rule = state.rule
        value = state.last_value
        return {
            "event": kind,
            "rule": rule.name,
            "severity": rule.severity,
            "kind": rule.kind,
            "metric": rule.metric,
            "value": None if math.isnan(value) else round(value, 6),
            "threshold": rule.threshold,
            "t_mono_s": round(t, 3),
            "message": rule.message or rule.describe(),
        }

    def _append_log(self, event: dict[str, Any]) -> None:
        if self.log_path is None:
            return
        row = dict(event)
        row["ts_utc"] = time.strftime(
            "%Y-%m-%dT%H:%M:%SZ",
            time.gmtime(time.time()),  # lint: allow[DET002] provenance
        )
        try:
            with open(self.log_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(row) + "\n")
        except OSError as exc:
            log.error(
                "alert log write failed",
                extra=kv(path=str(self.log_path), error=str(exc)),
            )


class AlertEvaluator:
    """Background loop calling ``engine.evaluate()`` every interval."""

    def __init__(self, engine: AlertEngine, interval_s: float = 1.0) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.engine = engine
        self.interval_s = float(interval_s)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="obs-alerts", daemon=True
        )

    def start(self) -> "AlertEvaluator":
        self._thread.start()
        return self

    def stop(self, timeout_s: float = 5.0) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=timeout_s)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.engine.evaluate()
            except Exception as exc:
                log.error(
                    "alert evaluation failed", extra=kv(error=str(exc))
                )


def default_serve_rules() -> tuple[AlertRule, ...]:
    """The stock rule set the serving tier runs when none is supplied."""
    return (
        AlertRule(
            name="high_5xx_rate",
            metric="serve.errors_5xx",
            stat="rate",
            window_s=60.0,
            op=">",
            threshold=0.1,
            resolve_hold_s=5.0,
            severity="critical",
            message="server error rate above 0.1/s over the last minute",
        ),
        AlertRule(
            name="client_error_burst",
            metric="serve.errors_4xx",
            stat="rate",
            window_s=60.0,
            op=">",
            threshold=5.0,
            severity="warning",
            message="client errors above 5/s over the last minute",
        ),
        AlertRule(
            name="latency_p95_high",
            metric="serve.request_latency_s",
            stat="p95",
            window_s=60.0,
            op=">",
            threshold=0.5,
            min_hold_s=5.0,
            resolve_hold_s=5.0,
            severity="warning",
            message="p95 request latency above 500 ms over the last minute",
        ),
        AlertRule(
            name="throughput_collapse",
            kind="rate_of_change",
            metric="serve.requests",
            window_s=60.0,
            op="<",
            threshold=-5.0,
            severity="warning",
            message="request rate fell by more than 5/s minute-over-minute",
        ),
        AlertRule(
            name="model_drift",
            kind="drift",
            op=">",
            threshold=0.0,
            resolve_hold_s=0.0,
            severity="critical",
            message="serving traffic drifted from training distribution",
        ),
    )


def load_rules(path: str | Path) -> list[AlertRule]:
    """Load rules from a JSON file: a list, or ``{"rules": [...]}``."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        payload = payload.get("rules", [])
    if not isinstance(payload, list):
        raise ValueError(f"{path}: expected a list of rule objects")
    return [AlertRule.from_dict(entry) for entry in payload]
