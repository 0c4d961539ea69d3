"""End-to-end path composition: one simulated speed test.

A test's reported speed is the minimum of every ceiling along the path --
the shaped access link (with its time-of-day utilisation), the WiFi hop
(band, per-test RSSI and contention), the device's kernel-memory budget,
and the TCP methodology of the vendor (flow count, window, whether the
ramp-up is discarded) -- degraded by the fixed-duration saturation
shortfall and small measurement noise.

A run of tests has two phases.  :meth:`PathSimulator.draw` makes the
run's random draws -- and only those -- one ``rng`` call per column
(:class:`TestDraws`).  No draw depends on a computed throughput, so
:meth:`PathSimulator.compute` can then turn every test's draws into
speeds in one numpy pass.

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


@dataclass(frozen=True)
class TestDraws:
    """The random draws of a run of tests: one array entry per test.

    Test ``i`` is a test of ``paths[user[i]]`` at local ``hour[i]``.
    :meth:`PathSimulator.draw` makes each column in one ``rng`` call for
    the whole run, in field order.  A column that only WiFi tests use
    (RSSI noise, contention, the extra delay and loss, cross traffic) is
    drawn for the WiFi tests alone, and one that only consumer profiles
    use (client efficiency, the upstream crush) only for those; the
    other tests hold a neutral value (an extra or a noise of 0, a factor
    of 1).  :meth:`PathSimulator.compute` then does all of the
    arithmetic.
    """

    profile: FlowProfile
    paths: list[UserPath]
    user: np.ndarray
    hour: np.ndarray
    rssi_noise: np.ndarray
    contention: np.ndarray
    log_rtt: np.ndarray
    rtt_extra: np.ndarray
    log_loss: np.ndarray
    loss_extra: np.ndarray
    tod_noise: np.ndarray
    cross_traffic: np.ndarray
    client_noise: np.ndarray
    download_noise: np.ndarray
    upstream_factor: np.ndarray
    upload_noise: np.ndarray


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

    def draw(
        self,
        profile: FlowProfile,
        subscribers: list[Subscriber],
        user: np.ndarray,
        hour: np.ndarray,
        rng: np.random.Generator,
    ) -> TestDraws:
        """Draw a run of ``profile`` tests: test ``i`` is one of
        ``subscribers[user[i]]`` at local ``hour[i]``."""
        user = np.asarray(user, dtype=np.intp)
        hour = np.asarray(hour, dtype=np.int64)
        if user.shape != hour.shape or user.ndim != 1:
            raise ValueError("user and hour must be equal-length 1-D arrays")
        if ((hour < 0) | (hour > 23)).any():
            raise ValueError("hours must be 0-23")
        paths = [self.user_path(subscriber) for subscriber in subscribers]
        n = len(user)
        wifi = np.array([p.on_wifi for p in paths], dtype=bool)[user]
        on = user[wifi]
        k = len(on)

        def per_wifi_test(values, neutral: float) -> np.ndarray:
            column = np.full(n, neutral)
            column[wifi] = values
            return column

        def path_range(field: str) -> tuple[np.ndarray, np.ndarray]:
            bounds = np.array(
                [getattr(p, field) for p in paths], dtype=float
            ).reshape(-1, 2)
            return bounds[on, 0], bounds[on, 1]

        latency = self.latency_model
        consumer = profile.client_efficiency_sigma > 0
        rssi_noise = per_wifi_test(rng.normal(0.0, _RSSI_NOISE_SIGMA_DB, k), 0.0)
        contention = per_wifi_test(
            rng.uniform(*path_range("contention_range")), 1.0
        )
        log_rtt = rng.normal(latency.log_median_rtt, latency.rtt_sigma, n)
        rtt_extra = per_wifi_test(rng.uniform(*path_range("rtt_range_ms")), 0.0)
        log_loss = rng.normal(latency.log_median_loss, latency.loss_sigma, n)
        loss_extra = per_wifi_test(
            rng.uniform(0.0, latency.wifi_extra_loss, k), 0.0
        )
        tod_noise = rng.normal(0.0, TIMEOFDAY_NOISE_SIGMA, n)
        cross_traffic = per_wifi_test(
            rng.exponential(self.cross_traffic_scale_mbps, k), 0.0
        )
        client_noise = (
            rng.normal(_CLIENT_EFFICIENCY_LOC, profile.client_efficiency_sigma, n)
            if consumer
            else np.zeros(n)
        )
        download_noise = rng.normal(0.0, self.download_noise_sigma, n)
        upstream_factor = np.ones(n)
        if consumer:
            crushed = rng.random(n) < self._upstream_contention_prob(profile)
            upstream_factor[crushed] = rng.uniform(
                *_UPSTREAM_CRUSH_RANGE, int(crushed.sum())
            )
        upload_noise = rng.normal(0.0, self.upload_noise_sigma, n)
        return TestDraws(
            profile, paths, user, hour, rssi_noise, contention, log_rtt,
            rtt_extra, log_loss, loss_extra, tod_noise, cross_traffic,
            client_noise, download_noise, upstream_factor, upload_noise,
        )

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
