"""TCP throughput model: per-flow limits and multi-flow aggregation.

Two classical per-flow ceilings are modelled:

- the **Mathis model** ``rate = (MSS / RTT) * C / sqrt(p)`` -- the
  congestion-avoidance throughput of a long-lived flow under random loss
  ``p`` (Mathis et al., CCR 1997); and
- the **receive-window limit** ``rate = window / RTT``.

A speed test reports the minimum of the two per flow.  Multi-flow tests
(Ookla runs "multiple TCP connections", Section 3.1) aggregate nearly
linearly until the path capacity binds; single-flow tests (M-Lab's NDT,
Section 3.2) keep the per-flow ceiling, which is why NDT "often
under-reports the connection capacity".

Finally, :func:`saturation_efficiency` models the fixed-duration shortfall:
a 10-15 s test spends a capacity-dependent fraction of its life ramping
up, so gigabit links measure well below capacity even on Ethernet -- the
paper's Section 4.3 observation that the 1200 Mbps MBA tier measures
~892 Mbps ("the limitation of speed test-like measurements in saturating
the available bandwidth in the higher end of the offered plans").
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mathis_throughput_mbps",
    "window_limited_throughput_mbps",
    "flow_throughput_mbps",
    "multi_flow_throughput_mbps",
    "saturation_efficiency",
]

MATHIS_CONSTANT = 1.22  # sqrt(3/2), random-loss variant
DEFAULT_MSS_BYTES = 1460


def mathis_throughput_mbps(
    rtt_ms,
    loss_rate,
    mss_bytes: int = DEFAULT_MSS_BYTES,
):
    """Mathis-model steady-state throughput of one TCP flow, in Mbps.

    ``loss_rate`` is the packet loss probability; zero loss returns
    ``inf`` (the window limit will bind instead).  ``rtt_ms`` and
    ``loss_rate`` may be floats or equal-shape arrays.
    """
    rtt = np.asarray(rtt_ms, dtype=float)
    loss = np.asarray(loss_rate, dtype=float)
    if (rtt <= 0).any():
        raise ValueError("RTT must be positive")
    if not ((loss >= 0.0) & (loss < 1.0)).all():
        raise ValueError("loss rate must be in [0, 1)")
    with np.errstate(divide="ignore"):
        bytes_per_second = (
            mss_bytes / (rtt / 1000.0) * MATHIS_CONSTANT / np.sqrt(loss)
        )
    return bytes_per_second * 8.0 / 1e6


def window_limited_throughput_mbps(
    window_bytes: float,
    rtt_ms,
):
    """Receive-window ceiling of one flow: ``window / RTT`` in Mbps.

    ``rtt_ms`` may be a float or an array.
    """
    rtt = np.asarray(rtt_ms, dtype=float)
    if (rtt <= 0).any():
        raise ValueError("RTT must be positive")
    if window_bytes <= 0:
        raise ValueError("window must be positive")
    return window_bytes * 8.0 / (rtt / 1000.0) / 1e6


def flow_throughput_mbps(
    rtt_ms,
    loss_rate,
    window_bytes: float = 4 * 1024 * 1024,
    mss_bytes: int = DEFAULT_MSS_BYTES,
):
    """Per-flow throughput: min of the Mathis and window ceilings.

    Elementwise over equal-shape arrays of ``rtt_ms`` and ``loss_rate``.
    """
    return np.minimum(
        mathis_throughput_mbps(rtt_ms, loss_rate, mss_bytes),
        window_limited_throughput_mbps(window_bytes, rtt_ms),
    )


def multi_flow_throughput_mbps(
    path_capacity_mbps: float,
    n_flows: int,
    rtt_ms: float,
    loss_rate: float,
    window_bytes: float = 4 * 1024 * 1024,
    mss_bytes: int = DEFAULT_MSS_BYTES,
) -> float:
    """Aggregate throughput of ``n_flows`` parallel flows on one path.

    Flows add nearly linearly until the path capacity binds; the capacity
    itself is never exceeded.
    """
    if path_capacity_mbps <= 0:
        raise ValueError("path capacity must be positive")
    if n_flows < 1:
        raise ValueError("need at least one flow")
    per_flow = flow_throughput_mbps(rtt_ms, loss_rate, window_bytes, mss_bytes)
    return min(path_capacity_mbps, n_flows * per_flow)


def saturation_efficiency(
    target_mbps,
    knee_mbps: float = 1400.0,
    max_deficit: float = 0.35,
    gamma: float = 1.7,
):
    """Fraction of a target rate a fixed-duration test actually averages.

    Low rates saturate almost immediately (efficiency ~1); near-gigabit
    rates lose a growing share of the test window to ramp-up, bufferbloat
    cycles and receive-window scaling:

    ``efficiency = 1 - max_deficit * (target / knee) ** gamma``

    clamped to ``[1 - max_deficit, 1]``.  With the defaults, a 230 Mbps
    target keeps ~98% and a 1380 Mbps target ~66% -- matching the wired
    MBA means of Section 4.3 (231.7 measured on the 200 Mbps plan,
    892 on the 1200 Mbps plan).  ``target_mbps`` may be a float or an
    array.
    """
    target = np.asarray(target_mbps, dtype=float)
    if (target <= 0).any():
        raise ValueError("target rate must be positive")
    if not 0.0 <= max_deficit < 1.0:
        raise ValueError("max_deficit must be in [0, 1)")
    ratio = target / knee_mbps
    # Python's float pow, one element at a time: np.power may take a
    # SIMD path whose last bit differs, and that would move every
    # simulated speed.
    powered = np.array(
        [r**gamma for r in ratio.ravel().tolist()], dtype=float
    ).reshape(ratio.shape)
    deficit = max_deficit * powered
    return np.maximum(1.0 - max_deficit, 1.0 - np.minimum(deficit, max_deficit))
