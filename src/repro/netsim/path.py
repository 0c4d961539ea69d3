"""End-to-end path composition: one simulated speed test.

A test's reported speed is the minimum of every ceiling along the path --
the shaped access link (with its time-of-day utilisation), the WiFi hop
(band, per-test RSSI and contention), the device's kernel-memory budget,
and the TCP methodology of the vendor (flow count, window, whether the
ramp-up is discarded) -- degraded by the fixed-duration saturation
shortfall and small measurement noise.

This is the module the vendor simulators (:mod:`repro.vendors`) call; it
is deliberately vendor-agnostic, parameterised by a :class:`FlowProfile`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.market.plans import Plan
from repro.market.population import Subscriber
from repro.netsim.access import AccessLink, timeofday_factor
from repro.netsim.device import device_memory_cap_mbps
from repro.netsim.latency import LatencyModel
from repro.netsim.modem import ModemProfile, sample_modem
from repro.netsim.tcp import (
    flow_throughput_mbps,
    saturation_efficiency,
)
from repro.netsim.wifi import (
    sample_contention_factor,
    wifi_throughput_cap_mbps,
)

__all__ = [
    "FlowProfile",
    "TestConditions",
    "TestOutcome",
    "PathSimulator",
    "MULTI_FLOW_PROFILE",
    "SINGLE_FLOW_NDT_PROFILE",
    "WIRED_PANEL_PROFILE",
]


@dataclass(frozen=True)
class FlowProfile:
    """The TCP methodology of one measurement platform.

    Attributes
    ----------
    name:
        Human-readable profile name.
    n_flows:
        Parallel TCP connections (Ookla: several; NDT: exactly one).
    window_bytes:
        Per-flow receive-window budget.
    methodology_efficiency:
        Multiplicative efficiency of the measurement protocol itself --
        below 1.0 when the reported average includes the slow-start ramp
        (NDT) rather than discarding it (Ookla).
    client_efficiency_sigma:
        Log-space spread of the *consumer client* efficiency factor:
        browser limits, home-router forwarding, competing applications.
        Dedicated panel hardware (MBA whiteboxes) sets this to 0 -- the
        real data shows consumer desktops on Ethernet measuring below
        what MBA whiteboxes achieve on the same plans (Table 4 vs
        Section 4.3).
    """

    name: str
    n_flows: int
    window_bytes: float = 4 * 1024 * 1024
    methodology_efficiency: float = 1.0
    client_efficiency_sigma: float = 0.0

    def __post_init__(self):
        if self.n_flows < 1:
            raise ValueError("a profile needs at least one flow")
        if self.window_bytes <= 0:
            raise ValueError("window must be positive")
        if not 0 < self.methodology_efficiency <= 1.0:
            raise ValueError("methodology efficiency must be in (0, 1]")
        if self.client_efficiency_sigma < 0:
            raise ValueError("client efficiency sigma cannot be negative")


MULTI_FLOW_PROFILE = FlowProfile(
    name="multi-flow", n_flows=8, client_efficiency_sigma=0.18
)
SINGLE_FLOW_NDT_PROFILE = FlowProfile(
    name="ndt-single-flow",
    n_flows=1,
    window_bytes=2 * 1024 * 1024,
    methodology_efficiency=0.88,
    client_efficiency_sigma=0.18,
)
WIRED_PANEL_PROFILE = FlowProfile(name="wired-panel", n_flows=8)


@dataclass(frozen=True)
class TestConditions:
    """Everything sampled per test before throughput is computed."""

    hour: int
    rtt_ms: float
    loss_rate: float
    tod_factor: float
    rssi_dbm: float | None  # None on wired access
    contention_factor: float | None
    cross_traffic_mbps: float = 0.0

    def __post_init__(self):
        if not 0 <= self.hour <= 23:
            raise ValueError("hour must be 0-23")
        if self.cross_traffic_mbps < 0:
            raise ValueError("cross traffic cannot be negative")


@dataclass(frozen=True)
class TestOutcome:
    """Reported result of one simulated speed test."""

    download_mbps: float
    upload_mbps: float
    rtt_ms: float
    loss_rate: float
    conditions: TestConditions


def _household_rng(household_id: str, salt: int) -> np.random.Generator:
    digest = hashlib.sha256(f"{household_id}:{salt}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


class PathSimulator:
    """Simulates speed tests for subscribers of one city.

    Parameters
    ----------
    latency_model:
        RTT/loss sampler; defaults are metro-scale.
    seed:
        Base seed; per-household properties derive deterministically from
        the household id so a user's repeated tests share an access link.
    download_noise_sigma / upload_noise_sigma:
        Log-space measurement noise.  Upload noise is much smaller, which
        (with the small upload plan menu) is exactly why upload speed is
        the stable tier fingerprint of Section 4.1.
    """

    def __init__(
        self,
        latency_model: LatencyModel | None = None,
        seed: int = 0,
        download_noise_sigma: float = 0.08,
        upload_noise_sigma: float = 0.035,
        cross_traffic_scale_mbps: float = 12.0,
        model_modems: bool = False,
    ):
        self.latency_model = latency_model or LatencyModel()
        self.seed = seed
        self.download_noise_sigma = download_noise_sigma
        self.upload_noise_sigma = upload_noise_sigma
        if cross_traffic_scale_mbps < 0:
            raise ValueError("cross traffic scale cannot be negative")
        self.cross_traffic_scale_mbps = cross_traffic_scale_mbps
        # Optional extension (DESIGN.md / paper Section 8): model the
        # household's cable modem generation as an extra ceiling.
        self.model_modems = model_modems
        self.upstream_contention_prob = 0.03
        # A household's link and modem depend only on its id, its plan
        # and ``seed``: build each once, not on every test.
        self._links: dict[tuple[str, Plan], AccessLink] = {}
        self._modems: dict[str, ModemProfile] = {}

    def _upstream_contention_prob(self, profile: FlowProfile) -> float:
        """Single-flow tests lose more to a competing upstream flow --
        a parallel-flow test reclaims its share of the uplink faster."""
        if profile.n_flows == 1:
            return 1.6 * self.upstream_contention_prob
        return 0.7 * self.upstream_contention_prob

    # ------------------------------------------------------------------
    def access_link(self, subscriber: Subscriber) -> AccessLink:
        """The subscriber's (deterministic) shaped access link.

        Memoized on the id and the plan: separately generated batches
        reuse ids, and a reused id on another plan needs its own link.
        """
        household_id = subscriber.household.household_id
        key = (household_id, subscriber.plan)
        link = self._links.get(key)
        if link is None:
            rng = _household_rng(household_id, self.seed)
            link = AccessLink.for_household(subscriber.plan, rng)
            self._links[key] = link
        return link

    def household_modem(self, subscriber: Subscriber) -> ModemProfile:
        """The household's (deterministic) cable modem generation."""
        household_id = subscriber.household.household_id
        modem = self._modems.get(household_id)
        if modem is None:
            modem = sample_modem(_household_rng(household_id, self.seed + 1))
            self._modems[household_id] = modem
        return modem

    def sample_conditions(
        self,
        subscriber: Subscriber,
        hour: int,
        rng: np.random.Generator,
    ) -> TestConditions:
        """Sample the per-test environment for one measurement."""
        on_wifi = subscriber.access == "wifi"
        rssi = None
        contention = None
        if on_wifi:
            household = subscriber.household
            rssi = min(
                max(household.rssi_mean_dbm + rng.normal(0.0, 5.0), -88.0),
                -20.0,
            )
            contention = sample_contention_factor(household.band_ghz, rng)
        return TestConditions(
            hour=hour,
            rtt_ms=self.latency_model.sample_rtt_ms(
                rng,
                on_wifi=on_wifi,
                band_ghz=(
                    subscriber.household.band_ghz if on_wifi else None
                ),
            ),
            loss_rate=self.latency_model.sample_loss(rng, on_wifi=on_wifi),
            tod_factor=timeofday_factor(hour, rng),
            rssi_dbm=rssi,
            contention_factor=contention,
            cross_traffic_mbps=(
                float(rng.exponential(self.cross_traffic_scale_mbps))
                if on_wifi
                else 0.0
            ),
        )

    # ------------------------------------------------------------------
    def _path_ceilings(
        self,
        subscriber: Subscriber,
        conditions: TestConditions,
        direction: str,
    ) -> float:
        """Minimum of the non-TCP ceilings along the path (Mbps)."""
        link = self.access_link(subscriber)
        if direction == "download":
            ceilings = [link.download_capacity_mbps]
        else:
            ceilings = [link.upload_capacity_mbps]
        if subscriber.access == "wifi":
            assert conditions.rssi_dbm is not None
            assert conditions.contention_factor is not None
            if direction == "download":
                wifi_cap = wifi_throughput_cap_mbps(
                    subscriber.household.band_ghz,
                    conditions.rssi_dbm,
                    conditions.contention_factor,
                )
                # Other household devices consume airtime and downstream
                # capacity during the test (streaming, sync traffic).
                wifi_cap = max(
                    wifi_cap - conditions.cross_traffic_mbps, 1.0
                )
            else:
                # A short upload burst at residential rates (<= 40 Mbps)
                # claims airtime far more easily than a sustained
                # download saturating the channel, so contention barely
                # bites -- which keeps uploads the clean tier
                # fingerprint of Section 4.1.
                wifi_cap = wifi_throughput_cap_mbps(
                    subscriber.household.band_ghz,
                    conditions.rssi_dbm,
                    max(conditions.contention_factor, 0.8),
                )
            ceilings.append(wifi_cap)
        else:
            ceilings.append(940.0)  # gigabit Ethernet goodput
        if subscriber.platform in ("android", "ios"):
            ceilings.append(device_memory_cap_mbps(subscriber.memory_gb))
        if self.model_modems:
            modem = self.household_modem(subscriber)
            ceilings.append(
                modem.max_download_mbps
                if direction == "download"
                else modem.max_upload_mbps
            )
        return min(ceilings)

    def simulate_direction(
        self,
        subscriber: Subscriber,
        profile: FlowProfile,
        conditions: TestConditions,
        rng: np.random.Generator,
        direction: str,
    ) -> float:
        """Reported throughput for one direction of one test."""
        if direction not in ("download", "upload"):
            raise ValueError(f"unknown direction {direction!r}")
        path_cap = self._path_ceilings(subscriber, conditions, direction)
        per_flow = flow_throughput_mbps(
            conditions.rtt_ms,
            conditions.loss_rate,
            window_bytes=profile.window_bytes,
        )
        target = min(path_cap, profile.n_flows * per_flow)
        # Diurnal congestion is path-wide -- shared cable segment, WiFi
        # neighbourhood airtime, server load -- so it scales the achieved
        # rate whatever the binding ceiling is (Section 6.2's mild
        # overnight advantage).
        measured = (
            target
            * conditions.tod_factor
            * saturation_efficiency(target)
            * profile.methodology_efficiency
        )
        if (
            profile.client_efficiency_sigma > 0
            and direction == "upload"
            and rng.random() < self._upstream_contention_prob(profile)
        ):
            # A concurrent upstream flow (cloud backup, video call)
            # crushes the thin uplink during the test.  Consumer tests
            # hit this; panel whiteboxes defer measurements under cross
            # traffic, which is why MBA uploads stay clean while the
            # crowdsourced data shows an off-menu ~1 Mbps cluster
            # (Section 5.1 / Figure 6).
            measured *= float(rng.uniform(0.05, 0.35))
        if profile.client_efficiency_sigma > 0 and direction == "download":
            # Consumer environments (browsers, home routers, background
            # apps) shave download throughput below what dedicated panel
            # hardware achieves; never above a small headroom.  Uploads
            # are too slow for these client limits to bind, which keeps
            # the upload tier-fingerprint sharp (Section 4.1).
            factor = float(
                np.exp(rng.normal(-0.06, profile.client_efficiency_sigma))
            )
            measured *= min(factor, 1.05)
        sigma = (
            self.download_noise_sigma
            if direction == "download"
            else self.upload_noise_sigma
        )
        measured *= float(np.exp(rng.normal(0.0, sigma)))
        return max(measured, 0.05)

    def run_test(
        self,
        subscriber: Subscriber,
        profile: FlowProfile,
        hour: int,
        rng: np.random.Generator,
    ) -> TestOutcome:
        """Run one full (download + upload) simulated speed test."""
        conditions = self.sample_conditions(subscriber, hour, rng)
        download = self.simulate_direction(
            subscriber, profile, conditions, rng, "download"
        )
        upload = self.simulate_direction(
            subscriber, profile, conditions, rng, "upload"
        )
        return TestOutcome(
            download_mbps=download,
            upload_mbps=upload,
            rtt_ms=conditions.rtt_ms,
            loss_rate=conditions.loss_rate,
            conditions=conditions,
        )
