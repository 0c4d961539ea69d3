"""WiFi link model: PHY rate vs band and RSSI, MAC efficiency, contention.

Section 6.1 of the paper quantifies three WiFi effects on speed tests:

- **Band** (Figure 9b): 2.4 GHz tests achieve a median normalised download
  speed of 0.11 vs 0.40 on 5 GHz -- the 2.4 GHz channel is narrower and
  more congested.
- **RSSI** (Figure 9c): on 5 GHz, the median normalised speed spans
  0.2 (< -70 dBm) to 0.52 (>= -30 dBm).
- Per-test variance: repeated tests by one user disperse widely on WiFi,
  which is why download consistency factors are low (Figure 2).

The model is a standard rate-adaptation abstraction: an RSSI-indexed PHY
rate table per band (802.11n 20 MHz 2x2 for 2.4 GHz, 802.11ac 80 MHz 2x2
for 5 GHz), a MAC-efficiency multiplier (protocol overhead), and a per-test
contention factor for airtime lost to other stations/interference.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "wifi_phy_rate_mbps",
    "wifi_mac_efficiency",
    "wifi_throughput_cap_mbps",
    "contention_range",
    "sample_contention_factor",
]

# (rssi_dbm, phy_rate_mbps) anchors, best to worst signal.  Rates between
# anchors are linearly interpolated; beyond the ends they clamp.
_PHY_TABLE_5GHZ = (
    (-40.0, 866.0),
    (-50.0, 780.0),
    (-55.0, 650.0),
    (-60.0, 526.0),
    (-65.0, 390.0),
    (-70.0, 260.0),
    (-75.0, 150.0),
    (-80.0, 80.0),
    (-87.0, 25.0),
)
_PHY_TABLE_24GHZ = (
    (-40.0, 144.0),
    (-55.0, 130.0),
    (-65.0, 104.0),
    (-72.0, 57.0),
    (-80.0, 21.0),
    (-88.0, 6.0),
)

# Fraction of PHY rate a single TCP flow family can realise after MAC/PHY
# overhead (preambles, ACKs, aggregation limits).  2.4 GHz is lower: more
# management traffic and legacy protection.
_MAC_EFFICIENCY = {5.0: 0.62, 2.4: 0.55}


def _ascending(table) -> tuple[np.ndarray, np.ndarray]:
    """(rssis, rates) sorted by RSSI: np.interp needs ascending x."""
    rssis = np.asarray([row[0] for row in table])
    rates = np.asarray([row[1] for row in table])
    order = np.argsort(rssis)
    return rssis[order], rates[order]


_INTERP_TABLES = {
    5.0: _ascending(_PHY_TABLE_5GHZ),
    2.4: _ascending(_PHY_TABLE_24GHZ),
}


def wifi_phy_rate_mbps(band_ghz: float, rssi_dbm):
    """Negotiated PHY rate for a band/RSSI pair, via table interpolation.

    ``rssi_dbm`` may be a float or an array of one band's RSSIs.
    """
    try:
        rssis, rates = _INTERP_TABLES[band_ghz]
    except KeyError:
        raise ValueError(f"unsupported WiFi band {band_ghz} GHz") from None
    return np.interp(rssi_dbm, rssis, rates)


def wifi_mac_efficiency(band_ghz: float) -> float:
    """Fraction of PHY rate available to TCP goodput on a quiet channel."""
    try:
        return _MAC_EFFICIENCY[band_ghz]
    except KeyError:
        raise ValueError(f"unsupported WiFi band {band_ghz} GHz") from None


# Uniform range of the per-test airtime share kept, per band.
_CONTENTION_RANGE = {5.0: (0.45, 0.95), 2.4: (0.30, 0.85)}


def contention_range(band_ghz: float) -> tuple[float, float]:
    """The ``(low, high)`` a band's contention factor is drawn from."""
    try:
        return _CONTENTION_RANGE[band_ghz]
    except KeyError:
        raise ValueError(f"unsupported WiFi band {band_ghz} GHz") from None


def sample_contention_factor(band_ghz: float, rng: np.random.Generator) -> float:
    """Airtime share kept by this station for one test.

    2.4 GHz channels overlap with neighbours, microwaves and Bluetooth, so
    contention is both worse on average and more variable.  The factor is
    sampled per *test*, which is what gives repeated WiFi downloads their
    low consistency factor.
    """
    return float(rng.uniform(*contention_range(band_ghz)))


def wifi_throughput_cap_mbps(
    band_ghz: float,
    rssi_dbm,
    contention_factor=1.0,
):
    """TCP-level throughput ceiling of the WiFi hop for one test.

    ``rssi_dbm`` and ``contention_factor`` may be floats or equal-shape
    arrays of one band's tests.
    """
    contention = np.asarray(contention_factor, dtype=float)
    if not ((contention > 0.0) & (contention <= 1.0)).all():
        raise ValueError("contention factor must be in (0, 1]")
    phy = wifi_phy_rate_mbps(band_ghz, rssi_dbm)
    return phy * wifi_mac_efficiency(band_ghz) * contention
