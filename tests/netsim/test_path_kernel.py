"""Bit-identity oracle for the batch path kernel.

``PathSimulator.draw`` makes a run's random numbers, one ``rng`` call per
column (:class:`TestDraws`), and :meth:`PathSimulator.compute` turns
every test's draws into speeds in one numpy pass.  The references below
are the one-test-at-a-time scalar arithmetic the simulator had before:
each test computes in turn with Python floats, ``math.sqrt`` and
Python's ``**``, reading its own entry of each draw column.  The tests
feed both sides the same explicit draw arrays and check that every
computed number has the same bytes.

Widened draws stretch each normal column's spread and each exponential
column's mean so that every clamp of the path binds many times: the
1 ms RTT floor, the loss range [1e-7, 0.05], the time-of-day range
[0.6, 1], the 1 Mbps WiFi download floor and the 0.05 Mbps result floor.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.market import city_catalog
from repro.market.population import PLATFORMS, Household, Subscriber
from repro.netsim import path as path_module
from repro.netsim.device import device_memory_cap_mbps
from repro.netsim.latency import LatencyModel
from repro.netsim.path import (
    MULTI_FLOW_PROFILE,
    SINGLE_FLOW_NDT_PROFILE,
    WIRED_PANEL_PROFILE,
    FlowProfile,
    PathSimulator,
    TestDraws as PathDraws,
)
from repro.netsim.path import TestConditions as PathConditions
from repro.netsim.tcp import saturation_efficiency
from repro.netsim.wifi import _INTERP_TABLES, _MAC_EFFICIENCY

PROFILES = (MULTI_FLOW_PROFILE, SINGLE_FLOW_NDT_PROFILE, WIRED_PANEL_PROFILE)


# ---------------------------------------------------------------------------
# References: the scalar, one-test-at-a-time path arithmetic
# ---------------------------------------------------------------------------
# Targets at which the reference's saturation clamp bound.
_SATURATED: list[float] = []


def _ref_saturation_efficiency(target, knee=1400.0, max_deficit=0.35, gamma=1.7):
    deficit = max_deficit * (target / knee) ** gamma
    if deficit > max_deficit:
        _SATURATED.append(target)
    return max(1.0 - max_deficit, 1.0 - min(deficit, max_deficit))


def _ref_flow_throughput(rtt_ms, loss_rate, window_bytes, mss_bytes=1460):
    mathis = (
        mss_bytes / (rtt_ms / 1000.0) * 1.22 / math.sqrt(loss_rate)
    ) * 8.0 / 1e6
    window = window_bytes * 8.0 / (rtt_ms / 1000.0) / 1e6
    return min(mathis, window)


def _ref_wifi_cap(band_ghz, rssi_dbm, contention):
    rssis, rates = _INTERP_TABLES[band_ghz]
    phy = float(np.interp(rssi_dbm, rssis, rates))
    return phy * _MAC_EFFICIENCY[band_ghz] * contention


def _ref_conditions(sim, subscriber, hour, d) -> PathConditions:
    latency = sim.latency_model
    on_wifi = subscriber.access == "wifi"
    rssi = None
    contention = None
    if on_wifi:
        household = subscriber.household
        rssi = min(
            max(household.rssi_mean_dbm + d["rssi_noise"], -88.0), -20.0
        )
        contention = d["contention"]
    rtt = float(np.exp(d["log_rtt"]))
    if on_wifi:
        rtt += d["rtt_extra"]
    rtt = max(rtt, 1.0)
    loss = float(np.exp(d["log_loss"]))
    if on_wifi:
        loss += d["loss_extra"]
    loss = float(min(max(loss, 1e-7), 0.05))
    base = 1.0 if hour < 6 else 0.90
    tod = min(max(base + d["tod_noise"], 0.6), 1.0)
    return PathConditions(
        hour=hour,
        rtt_ms=rtt,
        loss_rate=loss,
        tod_factor=tod,
        rssi_dbm=rssi,
        contention_factor=contention,
        cross_traffic_mbps=d["cross_traffic"] if on_wifi else 0.0,
    )


def _ref_path_ceilings(sim, subscriber, conditions, direction) -> float:
    link = sim.access_link(subscriber)
    if direction == "download":
        ceilings = [link.download_capacity_mbps]
    else:
        ceilings = [link.upload_capacity_mbps]
    band = subscriber.household.band_ghz
    if subscriber.access == "wifi":
        if direction == "download":
            wifi_cap = _ref_wifi_cap(
                band, conditions.rssi_dbm, conditions.contention_factor
            )
            wifi_cap = max(wifi_cap - conditions.cross_traffic_mbps, 1.0)
        else:
            wifi_cap = _ref_wifi_cap(
                band,
                conditions.rssi_dbm,
                max(conditions.contention_factor, 0.8),
            )
        ceilings.append(wifi_cap)
    else:
        ceilings.append(path_module._ETHERNET_GOODPUT_MBPS)
    if subscriber.platform in ("android", "ios"):
        ceilings.append(device_memory_cap_mbps(subscriber.memory_gb))
    if sim.model_modems:
        modem = sim.household_modem(subscriber)
        ceilings.append(
            modem.max_download_mbps
            if direction == "download"
            else modem.max_upload_mbps
        )
    return min(ceilings)


def _ref_direction(sim, subscriber, profile, conditions, d, direction):
    path_cap = _ref_path_ceilings(sim, subscriber, conditions, direction)
    per_flow = _ref_flow_throughput(
        conditions.rtt_ms, conditions.loss_rate, profile.window_bytes
    )
    target = min(path_cap, profile.n_flows * per_flow)
    measured = (
        target
        * conditions.tod_factor
        * _ref_saturation_efficiency(target)
        * profile.methodology_efficiency
    )
    if profile.client_efficiency_sigma > 0 and direction == "upload":
        measured *= d["upstream_factor"]
    if profile.client_efficiency_sigma > 0 and direction == "download":
        factor = float(np.exp(d["client_noise"]))
        measured *= min(factor, 1.05)
    noise = d["download_noise" if direction == "download" else "upload_noise"]
    measured *= float(np.exp(noise))
    return max(measured, 0.05)


def _ref_test(sim, subscriber, profile, hour, d):
    conditions = _ref_conditions(sim, subscriber, hour, d)
    download = _ref_direction(
        sim, subscriber, profile, conditions, d, "download"
    )
    upload = _ref_direction(sim, subscriber, profile, conditions, d, "upload")
    return conditions, download, upload


# ---------------------------------------------------------------------------
# Fixtures: explicit draw arrays, optionally widened, and mixed subscribers
# ---------------------------------------------------------------------------
_COLUMNS = tuple(
    f.name for f in fields(PathDraws) if f.name not in ("profile", "paths")
)


def _widen(sim, draws: PathDraws, spread: float) -> PathDraws:
    """``draws`` with each normal column's spread around its mean, and
    the exponential cross traffic, multiplied by ``spread``; uniform
    columns keep their ranges, since those are the model's own bounds.
    Wired tests' neutral values stay as they are."""
    latency = sim.latency_model
    locs = {
        "rssi_noise": 0.0,
        "log_rtt": latency.log_median_rtt,
        "log_loss": latency.log_median_loss,
        "tod_noise": 0.0,
        "client_noise": path_module._CLIENT_EFFICIENCY_LOC,
        "download_noise": 0.0,
        "upload_noise": 0.0,
    }
    wide = {
        name: loc + (getattr(draws, name) - loc) * spread
        for name, loc in locs.items()
    }
    if draws.profile.client_efficiency_sigma == 0:
        wide["client_noise"] = draws.client_noise
    wide["cross_traffic"] = draws.cross_traffic * spread
    return replace(draws, **wide)


def _draws_of(draws: PathDraws, i: int) -> dict[str, float]:
    """Test ``i``'s entry of every draw column, as Python numbers."""
    return {name: getattr(draws, name)[i].item() for name in _COLUMNS}


def _subscribers(n: int, seed: int) -> list[Subscriber]:
    """Every platform and access, both bands, a wide range of RSSI means
    and memory sizes (the android/ios cap binds below ~4 GB)."""
    catalog = city_catalog("A")
    rng = np.random.default_rng(seed)
    users = []
    for i in range(n):
        tier = int(rng.choice(catalog.tiers))
        platform = PLATFORMS[i % len(PLATFORMS)]
        if platform == "desktop-ethernet":
            access = "ethernet"
        elif platform == "web":
            access = "wifi" if rng.random() < 0.7 else "ethernet"
        else:
            access = "wifi"
        household = Household(
            f"k-h{seed}-{i}",
            "A",
            tier,
            catalog.plan_for_tier(tier),
            float(rng.uniform(-95.0, -15.0)),
            5.0 if rng.random() < 0.6 else 2.4,
        )
        users.append(
            Subscriber(
                f"k-u{seed}-{i}",
                household,
                platform,
                access,
                float(rng.uniform(0.3, 16.0)),
                1,
            )
        )
    return users


def _same_bits(got, want) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _check_run(
    profile: FlowProfile,
    seed: int,
    spread: float = 1.0,
    n: int = 600,
    **sim_kwargs,
):
    """A run of ``n`` tests against ``n`` reference tests fed the same
    draws; returns the reference conditions and speeds for clamp
    checks."""
    users = _subscribers(n // 3, seed)
    hours = np.random.default_rng(seed + 1).integers(0, 24, size=n)
    sim = PathSimulator(seed=seed, **sim_kwargs)
    user = np.arange(n) % len(users)
    draws = sim.draw(profile, users, user, hours, np.random.default_rng(seed + 2))
    draws = _widen(sim, draws, spread)
    got = sim.compute(draws)
    ref_sim = PathSimulator(seed=seed, **sim_kwargs)
    want = [
        _ref_test(
            ref_sim, users[user[i]], profile, int(hours[i]), _draws_of(draws, i)
        )
        for i in range(n)
    ]
    conditions = [c for c, _, _ in want]
    for name in ("rtt_ms", "loss_rate", "tod_factor", "cross_traffic_mbps"):
        assert _same_bits(
            getattr(got, name), [getattr(c, name) for c in conditions]
        ), name
    for name in ("rssi_dbm", "contention_factor"):
        values = [getattr(c, name) for c in conditions]
        assert _same_bits(
            getattr(got, name), [np.nan if v is None else v for v in values]
        ), name
    assert _same_bits(got.download_mbps, [d for _, d, _ in want])
    assert _same_bits(got.upload_mbps, [u for _, _, u in want])
    assert got.hour.tolist() == hours.tolist()
    return (
        [users[i] for i in user],
        conditions,
        np.asarray([d for _, d, _ in want]),
        np.asarray([u for _, _, u in want]),
    )


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------
class TestBatchKernelBitIdentity:
    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_matches_scalar(self, profile, seed):
        _check_run(profile, seed)

    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    def test_with_modems(self, profile):
        _check_run(profile, 3, model_modems=True)

    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    def test_every_clamp_binds(self, profile):
        sim = PathSimulator(seed=4)
        users, conditions, downloads, uploads = _check_run(
            profile, 4, spread=12.0
        )
        rtts = np.asarray([c.rtt_ms for c in conditions])
        losses = np.asarray([c.loss_rate for c in conditions])
        tods = np.asarray([c.tod_factor for c in conditions])
        assert (rtts == 1.0).any()
        assert (losses == 1e-7).any() and (losses == 0.05).any()
        assert (tods == 0.6).any() and (tods == 1.0).any()
        assert (downloads == 0.05).any() and (uploads == 0.05).any()
        wifi = [
            (user, c) for user, c in zip(users, conditions)
            if user.access == "wifi"
        ]
        assert {user.household.band_ghz for user, _ in wifi} == {2.4, 5.0}
        assert any(user.platform == "web" for user, _ in wifi)
        # The 1 Mbps WiFi download floor, and contention under the
        # upload's 0.8 floor.
        assert any(
            _ref_wifi_cap(
                user.household.band_ghz, c.rssi_dbm, c.contention_factor
            )
            - c.cross_traffic_mbps
            < 1.0
            for user, c in wifi
        )
        assert any(c.contention_factor < 0.8 for _, c in wifi)
        # The android/ios memory cap is some test's binding ceiling.
        assert any(
            user.platform in ("android", "ios")
            and device_memory_cap_mbps(user.memory_gb)
            < sim.access_link(user).download_capacity_mbps
            for user in users
        )

    def test_saturation_clamp_binds(self, monkeypatch):
        # Only a path faster than the knee (1400 Mbps) reaches the
        # clamp; lift the Ethernet ceiling so gigabit plans do.
        monkeypatch.setattr(path_module, "_ETHERNET_GOODPUT_MBPS", 1e5)
        _SATURATED.clear()
        _check_run(WIRED_PANEL_PROFILE, 7)
        assert _SATURATED

    def test_short_latency_and_lossy_models(self):
        # A server pool whose RTT median sits under the 1 ms floor, and
        # one whose loss median sits above the 5% ceiling.
        for model in (
            LatencyModel(median_rtt_ms=0.8, median_loss=0.2),
            LatencyModel(median_rtt_ms=400.0, median_loss=1e-8),
        ):
            _check_run(SINGLE_FLOW_NDT_PROFILE, 8, latency_model=model)

    def test_saturation_efficiency_over_arrays(self):
        targets = np.concatenate(
            [np.geomspace(1e-3, 1e5, 2001), [1399.999, 1400.0, 1400.001]]
        )
        want = [_ref_saturation_efficiency(t) for t in targets.tolist()]
        assert _same_bits(saturation_efficiency(targets), want)
        assert saturation_efficiency(targets).min() == 0.65

    def test_empty_run(self):
        sim = PathSimulator(seed=0)
        draws = sim.draw(
            MULTI_FLOW_PROFILE, [], [], [], np.random.default_rng(0)
        )
        tests = sim.compute(draws)
        assert len(tests) == 0
        assert tests.download_mbps.dtype == np.float64


class TestOneTestCalls:
    """Runs of one test go through the same kernel."""

    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    def test_run_test_matches_scalar(self, profile):
        users = _subscribers(60, 9)
        ref_sim, sim = PathSimulator(seed=9), PathSimulator(seed=9)
        rng = np.random.default_rng(10)
        for i, user in enumerate(users * 2):
            hour = i % 24
            draws = _widen(sim, sim.draw(profile, [user], [0], [hour], rng), 12.0)
            conditions, download, upload = _ref_test(
                ref_sim, user, profile, hour, _draws_of(draws, 0)
            )
            outcome = sim.compute(draws).outcome(0)
            assert outcome.conditions == conditions
            assert _same_bits(
                [outcome.download_mbps, outcome.upload_mbps],
                [download, upload],
            )

    def test_conditions_are_python_floats(self):
        sim = PathSimulator(seed=0)
        user = _subscribers(1, 0)[0]
        draws = sim.draw(
            MULTI_FLOW_PROFILE, [user], [0], [12], np.random.default_rng(0)
        )
        outcome = sim.compute(draws).outcome(0)
        assert type(outcome.download_mbps) is float
        assert type(outcome.conditions.rtt_ms) is float
        assert type(outcome.conditions.hour) is int

    def test_invalid_hour_fails_before_drawing(self):
        sim = PathSimulator(seed=0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            sim.draw(MULTI_FLOW_PROFILE, _subscribers(1, 0), [0], [24], rng)
        assert rng.bit_generator.state == state
