"""End-to-end path composition: one simulated speed test.

A test's reported speed is the minimum of every ceiling along the path --
the shaped access link (with its time-of-day utilisation), the WiFi hop
(band, per-test RSSI and contention), the device's kernel-memory budget,
and the TCP methodology of the vendor (flow count, window, whether the
ramp-up is discarded) -- degraded by the fixed-duration saturation
shortfall and small measurement noise.

A run of tests has two phases.  :class:`TestDraws` makes each test's
random draws -- and only those -- one scalar ``rng`` call at a time, in
a fixed order.  No draw depends on a computed throughput, so
:meth:`PathSimulator.compute` can then turn every test's draws into
speeds in one numpy pass.  :meth:`PathSimulator.run_test` is the same
two phases for one test.

This is the module the vendor simulators (:mod:`repro.vendors`) call; it
is deliberately vendor-agnostic, parameterised by a :class:`FlowProfile`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from repro.market.plans import Plan
from repro.market.population import Subscriber
from repro.netsim.access import (
    TIMEOFDAY_NOISE_SIGMA,
    AccessLink,
    noisy_timeofday_factor,
)
from repro.netsim.device import device_memory_cap_mbps
from repro.netsim.latency import LatencyModel
from repro.netsim.modem import ModemProfile, sample_modem
from repro.netsim.tcp import (
    flow_throughput_mbps,
    saturation_efficiency,
)
from repro.netsim.wifi import (
    contention_range,
    wifi_throughput_cap_mbps,
)

__all__ = [
    "FlowProfile",
    "TestConditions",
    "TestOutcome",
    "TestDraws",
    "TestResults",
    "UserPath",
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


# Constants of the path model.
_ETHERNET_GOODPUT_MBPS = 940.0  # gigabit Ethernet goodput
_RSSI_NOISE_SIGMA_DB = 5.0  # per-test RSSI spread around the household mean
_RSSI_MIN_DBM, _RSSI_MAX_DBM = -88.0, -20.0
_WIFI_DOWNLOAD_FLOOR_MBPS = 1.0
_UPLOAD_CONTENTION_FLOOR = 0.8
_CLIENT_EFFICIENCY_LOC = -0.06
_CLIENT_EFFICIENCY_MAX = 1.05
_UPSTREAM_CRUSH_RANGE = (0.05, 0.35)
_RESULT_FLOOR_MBPS = 0.05


def _household_rng(household_id: str, salt: int) -> np.random.Generator:
    digest = hashlib.sha256(f"{household_id}:{salt}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


class UserPath(NamedTuple):
    """What every test of one subscriber shares."""

    on_wifi: bool
    band_ghz: float
    rssi_mean_dbm: float
    contention_range: tuple[float, float]  # WiFi only
    rtt_range_ms: tuple[float, float]  # WiFi extra delay; WiFi only
    download_cap_mbps: float  # min of the ceilings other than WiFi
    upload_cap_mbps: float


class TestDraws:
    """The random draws of a run of tests, in the order they are made.

    :meth:`add` makes exactly the scalar ``rng`` calls of one test -- its
    conditions, then its download, then its upload -- and appends the
    raw values to flat lists, one entry per test.  Where a wired test
    draws nothing, a neutral value stands in (an extra delay of 0, a
    factor of 1).  The calls stay scalar and in this order, so every
    number drawn is the same whether a run has one test or a million;
    :meth:`PathSimulator.compute` then does all of the arithmetic.

    ``profile`` may be ``None`` when only :meth:`conditions` is drawn.
    """

    def __init__(
        self,
        sim: "PathSimulator",
        profile: FlowProfile | None,
        rng: np.random.Generator,
    ):
        self.sim = sim
        self.profile = profile
        self._normal = rng.normal
        self._uniform = rng.uniform
        self._random = rng.random
        self._exponential = rng.exponential
        if profile is not None:
            self._consumer = profile.client_efficiency_sigma > 0
            self._upstream_p = sim._upstream_contention_prob(profile)
        self.paths: list[UserPath] = []
        # One entry per test.
        self.user: list[int] = []
        self.hour: list[int] = []
        self.rssi_noise: list[float] = []
        self.contention: list[float] = []
        self.log_rtt: list[float] = []
        self.rtt_extra: list[float] = []
        self.log_loss: list[float] = []
        self.loss_extra: list[float] = []
        self.tod_noise: list[float] = []
        self.cross_traffic: list[float] = []
        self.client_noise: list[float] = []  # consumer profiles only
        self.download_noise: list[float] = []
        self.upstream_factor: list[float] = []  # consumer profiles only
        self.upload_noise: list[float] = []

    def add_user(self, subscriber: Subscriber) -> int:
        """Register a subscriber; its tests are drawn by the returned id."""
        self.paths.append(self.sim.user_path(subscriber))
        return len(self.paths) - 1

    def add(self, user: int, hour: int) -> int:
        """Draw one full test of ``user`` at local ``hour``; its index."""
        self.conditions(user, hour)
        self.download()
        self.upload()
        return len(self.user) - 1

    def conditions(self, user: int, hour: int) -> None:
        """The per-test environment: WiFi, RTT, loss, time of day."""
        if not 0 <= hour <= 23:
            raise ValueError(f"hour must be 0-23, got {hour}")
        path = self.paths[user]
        wifi = path.on_wifi
        normal, uniform = self._normal, self._uniform
        latency = self.sim.latency_model
        self.user.append(user)
        self.hour.append(hour)
        self.rssi_noise.append(
            normal(0.0, _RSSI_NOISE_SIGMA_DB) if wifi else 0.0
        )
        self.contention.append(
            uniform(*path.contention_range) if wifi else 1.0
        )
        self.log_rtt.append(
            normal(latency.log_median_rtt, latency.rtt_sigma)
        )
        self.rtt_extra.append(uniform(*path.rtt_range_ms) if wifi else 0.0)
        self.log_loss.append(
            normal(latency.log_median_loss, latency.loss_sigma)
        )
        self.loss_extra.append(
            uniform(0.0, latency.wifi_extra_loss) if wifi else 0.0
        )
        self.tod_noise.append(normal(0.0, TIMEOFDAY_NOISE_SIGMA))
        self.cross_traffic.append(
            self._exponential(self.sim.cross_traffic_scale_mbps)
            if wifi
            else 0.0
        )

    def download(self) -> None:
        """The download's client-efficiency and noise draws."""
        if self._consumer:
            self.client_noise.append(
                self._normal(
                    _CLIENT_EFFICIENCY_LOC, self.profile.client_efficiency_sigma
                )
            )
        self.download_noise.append(
            self._normal(0.0, self.sim.download_noise_sigma)
        )

    def upload(self) -> None:
        """The upload's competing-flow and noise draws."""
        if self._consumer:
            self.upstream_factor.append(
                self._uniform(*_UPSTREAM_CRUSH_RANGE)
                if self._random() < self._upstream_p
                else 1.0
            )
        self.upload_noise.append(
            self._normal(0.0, self.sim.upload_noise_sigma)
        )


@dataclass(frozen=True)
class TestResults:
    """A run of computed tests: one array entry per test, in draw order.

    ``rssi_dbm`` and ``contention_factor`` are NaN on wired tests.
    """

    hour: np.ndarray
    on_wifi: np.ndarray
    rtt_ms: np.ndarray
    loss_rate: np.ndarray
    tod_factor: np.ndarray
    rssi_dbm: np.ndarray
    contention_factor: np.ndarray
    cross_traffic_mbps: np.ndarray
    download_mbps: np.ndarray | None = None
    upload_mbps: np.ndarray | None = None

    @classmethod
    def of(cls, conditions: TestConditions, on_wifi: bool) -> "TestResults":
        """A run of one test with the given conditions, no speeds."""

        def column(value) -> np.ndarray:
            return np.asarray([np.nan if value is None else value], float)

        return cls(
            hour=np.asarray([conditions.hour], dtype=np.int64),
            on_wifi=np.asarray([on_wifi]),
            rtt_ms=column(conditions.rtt_ms),
            loss_rate=column(conditions.loss_rate),
            tod_factor=column(conditions.tod_factor),
            rssi_dbm=column(conditions.rssi_dbm),
            contention_factor=column(conditions.contention_factor),
            cross_traffic_mbps=column(conditions.cross_traffic_mbps),
        )

    def __len__(self) -> int:
        return len(self.hour)

    def conditions(self, i: int) -> TestConditions:
        wifi = bool(self.on_wifi[i])
        return TestConditions(
            hour=int(self.hour[i]),
            rtt_ms=float(self.rtt_ms[i]),
            loss_rate=float(self.loss_rate[i]),
            tod_factor=float(self.tod_factor[i]),
            rssi_dbm=float(self.rssi_dbm[i]) if wifi else None,
            contention_factor=(
                float(self.contention_factor[i]) if wifi else None
            ),
            cross_traffic_mbps=float(self.cross_traffic_mbps[i]),
        )

    def outcome(self, i: int) -> TestOutcome:
        conditions = self.conditions(i)
        return TestOutcome(
            download_mbps=float(self.download_mbps[i]),
            upload_mbps=float(self.upload_mbps[i]),
            rtt_ms=conditions.rtt_ms,
            loss_rate=conditions.loss_rate,
            conditions=conditions,
        )


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

    def user_path(self, subscriber: Subscriber) -> UserPath:
        """The subscriber's access, WiFi placement and fixed ceilings."""
        household = subscriber.household
        on_wifi = subscriber.access == "wifi"
        link = self.access_link(subscriber)
        download = [link.download_capacity_mbps]
        upload = [link.upload_capacity_mbps]
        if not on_wifi:
            download.append(_ETHERNET_GOODPUT_MBPS)
            upload.append(_ETHERNET_GOODPUT_MBPS)
        if subscriber.platform in ("android", "ios"):
            memory_cap = device_memory_cap_mbps(subscriber.memory_gb)
            download.append(memory_cap)
            upload.append(memory_cap)
        if self.model_modems:
            modem = self.household_modem(subscriber)
            download.append(modem.max_download_mbps)
            upload.append(modem.max_upload_mbps)
        return UserPath(
            on_wifi=on_wifi,
            band_ghz=household.band_ghz,
            rssi_mean_dbm=household.rssi_mean_dbm,
            contention_range=contention_range(household.band_ghz),
            rtt_range_ms=self.latency_model.wifi_rtt_range_ms(
                household.band_ghz
            ),
            download_cap_mbps=min(download),
            upload_cap_mbps=min(upload),
        )

    def draws(
        self, profile: FlowProfile, rng: np.random.Generator
    ) -> TestDraws:
        """An empty run of ``profile`` tests drawing from ``rng``."""
        return TestDraws(self, profile, rng)

    # ------------------------------------------------------------------
    def compute(self, draws: TestDraws) -> TestResults:
        """Every drawn test's conditions and speeds, in one numpy pass."""
        conditions = self._conditions(draws)
        return replace(
            conditions,
            download_mbps=self._direction_mbps(draws, conditions, "download"),
            upload_mbps=self._direction_mbps(draws, conditions, "upload"),
        )

    def _conditions(self, draws: TestDraws) -> TestResults:
        """The drawn conditions of every test (no speeds yet)."""
        user = np.asarray(draws.user, dtype=np.intp)
        paths = draws.paths
        wifi = np.array([p.on_wifi for p in paths], dtype=bool)[user]
        rssi_mean = np.array([p.rssi_mean_dbm for p in paths], dtype=float)
        rssi = np.full(len(user), np.nan)
        rssi[wifi] = np.minimum(
            np.maximum(
                rssi_mean[user[wifi]]
                + np.asarray(draws.rssi_noise, dtype=float)[wifi],
                _RSSI_MIN_DBM,
            ),
            _RSSI_MAX_DBM,
        )
        hour = np.asarray(draws.hour, dtype=np.int64)
        latency = self.latency_model
        return TestResults(
            hour=hour,
            on_wifi=wifi,
            rtt_ms=latency.rtt_ms(
                np.asarray(draws.log_rtt, dtype=float),
                np.asarray(draws.rtt_extra, dtype=float),
            ),
            loss_rate=latency.loss_rate(
                np.asarray(draws.log_loss, dtype=float),
                np.asarray(draws.loss_extra, dtype=float),
            ),
            tod_factor=noisy_timeofday_factor(
                hour, np.asarray(draws.tod_noise, dtype=float)
            ),
            rssi_dbm=rssi,
            contention_factor=np.where(
                wifi, np.asarray(draws.contention, dtype=float), np.nan
            ),
            cross_traffic_mbps=np.asarray(draws.cross_traffic, dtype=float),
        )

    def _direction_mbps(
        self,
        draws: TestDraws,
        conditions: TestResults,
        direction: str,
    ) -> np.ndarray:
        """Reported throughput of one direction of every drawn test."""
        download = direction == "download"
        profile = draws.profile
        user = np.asarray(draws.user, dtype=np.intp)
        paths = draws.paths
        cap = np.array(
            [
                p.download_cap_mbps if download else p.upload_cap_mbps
                for p in paths
            ],
            dtype=float,
        )[user]
        band = np.array([p.band_ghz for p in paths], dtype=float)[user]
        for band_ghz in (5.0, 2.4):
            on = conditions.on_wifi & (band == band_ghz)
            if not on.any():
                continue
            rssi = conditions.rssi_dbm[on]
            contention = conditions.contention_factor[on]
            if download:
                wifi_cap = wifi_throughput_cap_mbps(band_ghz, rssi, contention)
                # Other household devices consume airtime and downstream
                # capacity during the test (streaming, sync traffic).
                wifi_cap = np.maximum(
                    wifi_cap - conditions.cross_traffic_mbps[on],
                    _WIFI_DOWNLOAD_FLOOR_MBPS,
                )
            else:
                # A short upload burst at residential rates (<= 40 Mbps)
                # claims airtime far more easily than a sustained
                # download saturating the channel, so contention barely
                # bites -- which keeps uploads the clean tier
                # fingerprint of Section 4.1.
                wifi_cap = wifi_throughput_cap_mbps(
                    band_ghz,
                    rssi,
                    np.maximum(contention, _UPLOAD_CONTENTION_FLOOR),
                )
            cap[on] = np.minimum(cap[on], wifi_cap)
        per_flow = flow_throughput_mbps(
            conditions.rtt_ms,
            conditions.loss_rate,
            window_bytes=profile.window_bytes,
        )
        target = np.minimum(cap, profile.n_flows * per_flow)
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
        if profile.client_efficiency_sigma > 0 and download:
            # Consumer environments (browsers, home routers, background
            # apps) shave download throughput below what dedicated panel
            # hardware achieves; never above a small headroom.  Uploads
            # are too slow for these client limits to bind, which keeps
            # the upload tier-fingerprint sharp (Section 4.1).
            measured = measured * np.minimum(
                np.exp(np.asarray(draws.client_noise, dtype=float)),
                _CLIENT_EFFICIENCY_MAX,
            )
        elif profile.client_efficiency_sigma > 0:
            # A concurrent upstream flow (cloud backup, video call)
            # crushes the thin uplink during the test.  Consumer tests
            # hit this; panel whiteboxes defer measurements under cross
            # traffic, which is why MBA uploads stay clean while the
            # crowdsourced data shows an off-menu ~1 Mbps cluster
            # (Section 5.1 / Figure 6).  Untouched tests drew a factor
            # of 1.
            measured = measured * np.asarray(draws.upstream_factor, dtype=float)
        noise = draws.download_noise if download else draws.upload_noise
        measured = measured * np.exp(np.asarray(noise, dtype=float))
        return np.maximum(measured, _RESULT_FLOOR_MBPS)

    # ------------------------------------------------------------------
    def sample_conditions(
        self,
        subscriber: Subscriber,
        hour: int,
        rng: np.random.Generator,
    ) -> TestConditions:
        """Sample the per-test environment for one measurement."""
        draws = TestDraws(self, None, rng)
        draws.conditions(draws.add_user(subscriber), hour)
        return self._conditions(draws).conditions(0)

    def simulate_direction(
        self,
        subscriber: Subscriber,
        profile: FlowProfile,
        conditions: TestConditions,
        rng: np.random.Generator,
        direction: str,
    ) -> float:
        """Reported throughput for one direction of one test whose
        conditions are already sampled."""
        if direction not in ("download", "upload"):
            raise ValueError(f"unknown direction {direction!r}")
        draws = self.draws(profile, rng)
        user = draws.add_user(subscriber)
        draws.user.append(user)
        getattr(draws, direction)()
        given = TestResults.of(conditions, draws.paths[user].on_wifi)
        measured = self._direction_mbps(draws, given, direction)
        return float(measured[0])

    def run_test(
        self,
        subscriber: Subscriber,
        profile: FlowProfile,
        hour: int,
        rng: np.random.Generator,
    ) -> TestOutcome:
        """Run one full (download + upload) simulated speed test."""
        draws = self.draws(profile, rng)
        draws.add(draws.add_user(subscriber), hour)
        return self.compute(draws).outcome(0)
