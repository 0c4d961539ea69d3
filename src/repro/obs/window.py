"""Windowed statistics over caller-supplied time, and the drift verdict.

Every trailing-window view in the package is a :class:`TickRing`: the
windowed counters and histograms (:mod:`repro.obs.metrics`), the stream
monitor's moments (:mod:`repro.stream.monitor`), and each served
model's drift window (:mod:`repro.serve.server`).  A
:class:`PairRing` keeps the latest raw ``(download, upload)`` pairs,
the sample a drift-triggered refit trains on.  Moments are
Welford ``(n, mean, M2)`` triples merged with Chan's combine, which
stays exact where ``sumsq / n - mean**2`` cancels.  One
:func:`drift_verdict`, at the one :data:`DRIFT_REL_THRESHOLD`, serves
``/healthz``, the ``model_drift`` alert and the refit scheduler;
:class:`DriftFlags` turns polled verdicts into counted rising edges.
The rings do not lock: each owner mutates them under its own lock.
"""

from __future__ import annotations

import math
import operator
import threading
from typing import Any, Callable, Hashable, Mapping

import numpy as np

__all__ = [
    "EMPTY",
    "DIRECTIONS",
    "DRIFT_REL_THRESHOLD",
    "DriftFlags",
    "Moments",
    "PairRing",
    "TickRing",
    "WindowedMoments",
    "combine",
    "drift_verdict",
    "moments_of",
]

#: ``(n, mean, M2)``: count, mean, and sum of squared deviations.
Moments = tuple[float, float, float]
EMPTY: Moments = (0.0, 0.0, 0.0)

#: The measured quantities a drift verdict judges.
DIRECTIONS = ("download_mbps", "upload_mbps")

#: A direction drifts when ``|observed - training| / |training|`` of its
#: windowed mean exceeds this.
DRIFT_REL_THRESHOLD = 0.5

#: Slots per :class:`WindowedMoments` window: the granularity of
#: expiry, not of the statistics.
WINDOW_SLOTS = 12


class TickRing:
    """Fixed ring of tick-stamped slots over caller-supplied time.

    A write at time ``t`` lands in the slot of tick ``int(t // bucket_s)``
    and first resets that slot to ``fresh()`` if it holds an older tick;
    :meth:`live` skips stale and never-written slots.  Times are assumed
    non-negative.
    """

    __slots__ = ("bucket_s", "n_slots", "ticks", "values", "_fresh")

    def __init__(
        self, n_slots: int, bucket_s: float, fresh: Callable[[], Any]
    ) -> None:
        if not bucket_s > 0:
            raise ValueError("bucket_s must be positive")
        self.bucket_s = float(bucket_s)
        self.n_slots = n_slots
        self.ticks = [-1] * n_slots
        self.values = [fresh() for _ in range(n_slots)]
        self._fresh = fresh

    def index(self, t: float) -> int:
        """The slot for time ``t``, reset first if it holds another tick."""
        tick = int(t // self.bucket_s)
        i = tick % self.n_slots
        if self.ticks[i] != tick:
            self.ticks[i] = tick
            self.values[i] = self._fresh()
        return i

    def slot(self, t: float) -> Any:
        """The (mutable) value of the slot for time ``t``."""
        return self.values[self.index(t)]

    def add(
        self,
        t: float,
        value: Any,
        merge: Callable[[Any, Any], Any] = operator.add,
    ) -> None:
        """Fold ``value`` into the slot for time ``t`` (default ``+``)."""
        i = self.index(t)
        self.values[i] = merge(self.values[i], value)

    def live(self, t: float, window_s: float) -> list[Any]:
        """Values of the slots inside the trailing window ending at ``t``.

        ``window_s`` rounds to whole buckets, at least one and at most
        the ring.  Slot order, not time order, so merges reproduce bit
        for bit.
        """
        width = max(1, int(round(window_s / self.bucket_s)))
        now = int(t // self.bucket_s)
        lo = max(now - min(width, self.n_slots), -1)
        return [
            value
            for value, tick in zip(self.values, self.ticks)
            if lo < tick <= now
        ]


class PairRing:
    """Bounded ring of the latest ``(download, upload)`` pairs.

    A push keeps the tail of a batch that outgrows the ring.
    """

    __slots__ = ("_rings", "_pos", "_len")

    def __init__(self, cap: int = 8192) -> None:
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self._rings = (np.zeros(cap), np.zeros(cap))
        self._pos = 0
        self._len = 0

    def push(self, downloads: np.ndarray, uploads: np.ndarray) -> None:
        cap = len(self._rings[0])
        n = min(len(downloads), cap)
        pos = self._pos
        head = min(n, cap - pos)  # the rest wraps to the front
        for ring, values in zip(self._rings, (downloads[-n:], uploads[-n:])):
            ring[pos : pos + head] = values[:head]
            ring[: n - head] = values[head:]
        self._pos = (pos + n) % cap
        self._len = min(self._len + n, cap)

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The retained ``(downloads, uploads)``, oldest first (copies)."""
        pos, n = self._pos, self._len
        down, up = (np.concatenate((r[pos:n], r[:pos])) for r in self._rings)
        return down, up


def moments_of(values: np.ndarray) -> Moments:
    """The ``(n, mean, M2)`` triple of a non-empty array."""
    mean = float(values.mean())
    return float(values.size), mean, float(((values - mean) ** 2).sum())


def combine(a: Moments, b: Moments) -> Moments:
    """Chan's parallel combine of two ``(n, mean, M2)`` triples."""
    na, ma, m2a = a
    nb, mb, m2b = b
    n = na + nb
    if n == 0:
        return EMPTY
    delta = mb - ma
    return n, ma + delta * nb / n, m2a + m2b + delta * delta * na * nb / n


class WindowedMoments:
    """Trailing-window mean and population std of a value stream.

    A :class:`TickRing` of :data:`WINDOW_SLOTS` slots, each spanning
    ``window_s / WINDOW_SLOTS`` and holding one ``(n, mean, M2)``
    triple.  A batch folds into its slot with :func:`combine`; a read
    merges the live slots the same way.  Non-finite values are skipped.
    """

    __slots__ = ("window_s", "_ring")

    def __init__(self, window_s: float) -> None:
        self.window_s = float(window_s)
        self._ring = TickRing(
            WINDOW_SLOTS, self.window_s / WINDOW_SLOTS, lambda: EMPTY
        )

    def observe(self, t: float, values: np.ndarray) -> None:
        values = values[np.isfinite(values)]
        if values.size == 0:
            return
        self._ring.add(t, moments_of(values), combine)

    def snapshot(self, t: float) -> tuple[int, float, float]:
        """``(n, mean, std)`` over the window ending at ``t``."""
        acc = EMPTY
        for slot in self._ring.live(t, self.window_s):
            acc = combine(acc, slot)
        n, mean, m2 = acc
        if n == 0:
            return 0, float("nan"), float("nan")
        return int(n), float(mean), math.sqrt(m2 / n)


def drift_verdict(
    moments: Mapping[str, WindowedMoments],
    t: float,
    training_stats: Mapping[str, Any],
    min_samples: int,
) -> tuple[bool, dict[str, dict[str, Any]]]:
    """Judge each direction's window ending at ``t`` against training.

    A direction whose training mean is missing or zero is skipped; one
    with fewer than ``min_samples`` windowed observations is
    ``warming_up``; otherwise it is ``drifted`` when
    ``|observed - training| / |training|`` exceeds
    :data:`DRIFT_REL_THRESHOLD`.
    Returns ``(any direction drifted, per-direction rows)``.
    """
    drifted = False
    directions: dict[str, dict[str, Any]] = {}
    for direction, window in moments.items():
        train = training_stats.get(direction)
        if not train or not train.get("mean"):
            continue
        n, mean, std = window.snapshot(t)
        if n < min_samples:
            directions[direction] = {
                "status": "warming_up",
                "n_observed": n,
            }
            continue
        rel = abs(mean - train["mean"]) / abs(train["mean"])
        direction_drifted = rel > DRIFT_REL_THRESHOLD
        drifted = drifted or direction_drifted
        directions[direction] = {
            "status": "drifted" if direction_drifted else "ok",
            "n_observed": n,
            "observed_mean": mean,
            "observed_std": std,
            "training_mean": train["mean"],
            "rel_deviation": rel,
        }
    return drifted, directions


class DriftFlags:
    """Last flag per key (a model's drift, a group's disruption).

    ``/healthz``, the alert loop and the refit scheduler all poll the
    verdicts, so a counter must move on a key's unflagged -> flagged
    transition, not on every poll while it stays flagged.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flagged: dict[Hashable, bool] = {}

    def rose(self, key: Hashable, flagged: bool) -> bool:
        """Record ``key``'s flag; True on an unflagged -> flagged."""
        with self._lock:
            was = self._flagged.get(key, False)
            self._flagged[key] = flagged
        return flagged and not was

    def forget(self, key: Hashable) -> None:
        """Drop ``key``'s state (its next flag counts again)."""
        with self._lock:
            self._flagged.pop(key, None)
