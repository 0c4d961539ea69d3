"""Tests for end-to-end path composition."""

from dataclasses import fields

import numpy as np
import pytest

from repro.market import city_catalog
from repro.market.population import Household, Subscriber
from repro.netsim import FlowProfile, PathSimulator
from repro.netsim import path as path_module
from repro.netsim.access import AccessLink
from repro.netsim.modem import sample_modem
from repro.netsim.path import (
    MULTI_FLOW_PROFILE,
    SINGLE_FLOW_NDT_PROFILE,
    WIRED_PANEL_PROFILE,
)
from repro.netsim.path import TestConditions as PathConditions


def _make_user(
    tier=2,
    platform="android",
    access="wifi",
    memory_gb=8.0,
    rssi=-45.0,
    band=5.0,
    household_id="h-test",
):
    plan = city_catalog("A").plan_for_tier(tier)
    household = Household(household_id, "A", tier, plan, rssi, band)
    return Subscriber(
        f"user-{household_id}", household, platform, access, memory_gb, 1
    )


def _run(sim, user, profile, hour, rng, n=1):
    """``n`` tests of ``user`` at ``hour``, drawn and computed as a run."""
    draws = sim.draw(profile, [user], np.zeros(n, int), np.full(n, hour), rng)
    return sim.compute(draws)


def _download_median(sim, user, profile, hour, rng, n):
    return np.median(_run(sim, user, profile, hour, rng, n).download_mbps)


@pytest.fixture
def sim():
    return PathSimulator(seed=0)


class TestProfiles:
    def test_profile_validation(self):
        with pytest.raises(ValueError):
            FlowProfile("x", 0)
        with pytest.raises(ValueError):
            FlowProfile("x", 1, window_bytes=0)
        with pytest.raises(ValueError):
            FlowProfile("x", 1, methodology_efficiency=0)
        with pytest.raises(ValueError):
            FlowProfile("x", 1, client_efficiency_sigma=-0.1)

    def test_ndt_is_single_flow(self):
        assert SINGLE_FLOW_NDT_PROFILE.n_flows == 1
        assert MULTI_FLOW_PROFILE.n_flows > 1

    def test_panel_profile_has_no_client_noise(self):
        assert WIRED_PANEL_PROFILE.client_efficiency_sigma == 0.0


class TestConditionsSampling:
    def test_wifi_conditions_have_rssi(self, sim):
        rng = np.random.default_rng(0)
        cond = _run(sim, _make_user(), MULTI_FLOW_PROFILE, 12, rng).conditions(0)
        assert cond.rssi_dbm is not None
        assert cond.contention_factor is not None
        assert cond.cross_traffic_mbps >= 0

    def test_wired_conditions_skip_wifi_fields(self, sim):
        rng = np.random.default_rng(0)
        user = _make_user(platform="desktop-ethernet", access="ethernet")
        cond = _run(sim, user, MULTI_FLOW_PROFILE, 12, rng).conditions(0)
        assert cond.rssi_dbm is None
        assert cond.contention_factor is None
        assert cond.cross_traffic_mbps == 0.0

    def test_conditions_validation(self):
        with pytest.raises(ValueError):
            PathConditions(25, 10.0, 1e-4, 1.0, None, None)
        with pytest.raises(ValueError):
            PathConditions(1, 10.0, 1e-4, 1.0, None, None, -1.0)


class TestThroughput:
    def test_download_bounded_by_plan_headroom(self, sim):
        user = _make_user(tier=2, platform="desktop-ethernet",
                          access="ethernet")
        rng = np.random.default_rng(1)
        tests = _run(sim, user, WIRED_PANEL_PROFILE, 12, rng, 50)
        for outcome in map(tests.outcome, range(50)):
            # Shaped rate is ~1.16x the 100 Mbps plan; small noise on top.
            assert outcome.download_mbps < 100 * 1.16 * 1.15 * 1.4

    def test_upload_tight_around_plan(self, sim):
        user = _make_user(tier=6, platform="desktop-ethernet",
                          access="ethernet")
        rng = np.random.default_rng(2)
        ups = _run(sim, user, WIRED_PANEL_PROFILE, 3, rng, 100).upload_mbps
        assert 35 < np.median(ups) < 45  # 35 Mbps plan, overprovisioned

    def test_wired_beats_wifi_on_high_tier(self, sim):
        rng = np.random.default_rng(3)
        wired = _make_user(
            tier=6, platform="desktop-ethernet", access="ethernet",
            household_id="h-wired",
        )
        wifi = _make_user(tier=6, platform="desktop-wifi", household_id="h-wifi")
        wired_dl = _download_median(sim, wired, MULTI_FLOW_PROFILE, 12, rng, 60)
        wifi_dl = _download_median(sim, wifi, MULTI_FLOW_PROFILE, 12, rng, 60)
        assert wired_dl > wifi_dl * 1.4

    def test_24ghz_slower_than_5ghz(self, sim):
        rng = np.random.default_rng(4)
        fast = _make_user(tier=6, band=5.0, household_id="h-5g")
        slow = _make_user(tier=6, band=2.4, household_id="h-24g")
        fast_dl = _download_median(sim, fast, MULTI_FLOW_PROFILE, 12, rng, 60)
        slow_dl = _download_median(sim, slow, MULTI_FLOW_PROFILE, 12, rng, 60)
        assert slow_dl < fast_dl / 2

    def test_low_memory_caps_mobile(self, sim):
        rng = np.random.default_rng(5)
        starved = _make_user(tier=6, memory_gb=1.0, household_id="h-lowmem")
        roomy = _make_user(tier=6, memory_gb=8.0, household_id="h-himem")
        starved_dl = _download_median(
            sim, starved, MULTI_FLOW_PROFILE, 12, rng, 60
        )
        roomy_dl = _download_median(sim, roomy, MULTI_FLOW_PROFILE, 12, rng, 60)
        assert starved_dl < roomy_dl / 2

    def test_single_flow_lags_multi_flow(self, sim):
        rng = np.random.default_rng(6)
        user = _make_user(
            tier=5, platform="desktop-ethernet", access="ethernet",
            household_id="h-flow",
        )
        multi = _download_median(sim, user, MULTI_FLOW_PROFILE, 12, rng, 60)
        single = _download_median(
            sim, user, SINGLE_FLOW_NDT_PROFILE, 12, rng, 60
        )
        assert single < multi

    def test_overnight_slightly_faster(self, sim):
        rng = np.random.default_rng(7)
        user = _make_user(
            tier=4, platform="desktop-ethernet", access="ethernet",
            household_id="h-tod",
        )
        night = _download_median(sim, user, WIRED_PANEL_PROFILE, 3, rng, 80)
        day = _download_median(sim, user, WIRED_PANEL_PROFILE, 15, rng, 80)
        assert 1.02 < night / day < 1.35

    def test_access_link_deterministic_per_household(self, sim):
        user = _make_user(household_id="h-stable")
        assert (
            sim.access_link(user).household_factor
            == sim.access_link(user).household_factor
        )

    def test_invalid_cross_traffic_scale(self):
        with pytest.raises(ValueError):
            PathSimulator(cross_traffic_scale_mbps=-1.0)

    def test_outcome_fields_positive(self, sim):
        rng = np.random.default_rng(9)
        outcome = _run(sim, _make_user(), MULTI_FLOW_PROFILE, 12, rng).outcome(0)
        assert outcome.download_mbps > 0
        assert outcome.upload_mbps > 0
        assert outcome.rtt_ms > 0
        assert 0 < outcome.loss_rate < 1


class TestHouseholdMemo:
    """Each household's link and modem are built once per simulator."""

    @staticmethod
    def _count_builds(monkeypatch) -> list:
        calls = []
        real = path_module._household_rng

        def counting(household_id, salt):
            calls.append((household_id, salt))
            return real(household_id, salt)

        monkeypatch.setattr(path_module, "_household_rng", counting)
        return calls

    def test_repeated_tests_reuse_one_link(self, monkeypatch):
        calls = self._count_builds(monkeypatch)
        sim = PathSimulator(seed=4)
        user = _make_user(household_id="h-memo")
        rng = np.random.default_rng(0)
        for hour in (3, 12, 20):
            _run(sim, user, MULTI_FLOW_PROFILE, hour, rng)
        assert calls == [("h-memo", 4)]
        assert sim.access_link(user) is sim.access_link(user)

    def test_repeated_tests_reuse_one_modem(self, monkeypatch):
        calls = self._count_builds(monkeypatch)
        sim = PathSimulator(seed=4, model_modems=True)
        user = _make_user(
            household_id="h-modem", platform="desktop-ethernet",
            access="ethernet",
        )
        rng = np.random.default_rng(0)
        for hour in (3, 12, 20):
            _run(sim, user, WIRED_PANEL_PROFILE, hour, rng)
        assert sorted(calls) == [("h-modem", 4), ("h-modem", 5)]
        modem = sim.household_modem(user)
        assert modem is sim.household_modem(user)
        assert modem == sample_modem(path_module._household_rng("h-modem", 5))

    def test_same_id_new_plan_gets_its_own_link(self, sim):
        low = _make_user(tier=2, household_id="h-shared")
        high = _make_user(tier=5, household_id="h-shared")
        sim.access_link(low)
        link = sim.access_link(high)
        expected = AccessLink.for_household(
            high.plan, path_module._household_rng("h-shared", sim.seed)
        )
        assert link == expected
        assert link.plan is high.plan
        assert link.download_capacity_mbps != (
            sim.access_link(low).download_capacity_mbps
        )

    def test_seeds_do_not_share_links(self):
        user = _make_user(household_id="h-seeded")
        sims = [PathSimulator(seed=s) for s in (0, 1)]
        links = [sim.access_link(user) for sim in sims]
        for seed, link in zip((0, 1), links):
            assert link == AccessLink.for_household(
                user.plan, path_module._household_rng("h-seeded", seed)
            )
        assert links[0].household_factor != links[1].household_factor

    def test_warm_memo_draws_what_a_cold_simulator_draws(self):
        user = _make_user(household_id="h-warm")
        warm = PathSimulator(seed=2, model_modems=True)
        _run(warm, user, MULTI_FLOW_PROFILE, 9, np.random.default_rng(1))
        cold = PathSimulator(seed=2, model_modems=True)
        outcomes = [
            _run(sim, user, MULTI_FLOW_PROFILE, 9, np.random.default_rng(7))
            .outcome(0)
            for sim in (warm, cold)
        ]
        assert outcomes[0] == outcomes[1]


class TestDrawContract:
    """What :meth:`PathSimulator.draw` promises about its columns."""

    WIFI_ONLY = {
        "rssi_noise": 0.0,
        "contention": 1.0,
        "rtt_extra": 0.0,
        "loss_extra": 0.0,
        "cross_traffic": 0.0,
    }
    CONSUMER_ONLY = {"client_noise": 0.0, "upstream_factor": 1.0}

    @staticmethod
    def _mixed_users():
        return [
            _make_user(
                tier=1 + i % 6,
                platform=("android", "desktop-ethernet", "web")[i % 3],
                access="ethernet" if i % 3 == 1 else "wifi",
                band=(5.0, 2.4)[i % 2],
                household_id=f"h-mix{i}",
            )
            for i in range(30)
        ]

    def _draw(self, profile, seed, n=3000):
        users = self._mixed_users()
        sim = PathSimulator(seed=1)
        rng = np.random.default_rng(seed)
        user = rng.integers(0, len(users), n)
        hour = rng.integers(0, 24, n)
        return sim.draw(profile, users, user, hour, rng)

    @staticmethod
    def _columns(draws):
        return {
            f.name: getattr(draws, f.name)
            for f in fields(draws)
            if isinstance(getattr(draws, f.name), np.ndarray)
        }

    @pytest.mark.parametrize(
        "profile", [MULTI_FLOW_PROFILE, WIRED_PANEL_PROFILE],
        ids=lambda p: p.name,
    )
    def test_wired_tests_hold_neutral_values(self, profile):
        draws = self._draw(profile, 0)
        wifi = np.array([p.on_wifi for p in draws.paths])[draws.user]
        assert wifi.any() and (~wifi).any()
        for name, neutral in self.WIFI_ONLY.items():
            column = getattr(draws, name)
            assert (column[~wifi] == neutral).all(), name
            assert (column[wifi] != neutral).all(), name
        consumer = profile.client_efficiency_sigma > 0
        for name, neutral in self.CONSUMER_ONLY.items():
            column = getattr(draws, name)
            assert (column == neutral).all() != consumer, name

    @pytest.mark.parametrize(
        "profile", [MULTI_FLOW_PROFILE, SINGLE_FLOW_NDT_PROFILE],
        ids=lambda p: p.name,
    )
    def test_fixed_seed_reproduces_every_column(self, profile):
        first, second = (self._columns(self._draw(profile, 7)) for _ in "ab")
        assert len(first) == 14
        for name, column in first.items():
            assert column.dtype == second[name].dtype, name
            assert column.tobytes() == second[name].tobytes(), name
        other = self._columns(self._draw(profile, 8))
        assert other["log_rtt"].tobytes() != first["log_rtt"].tobytes()

    def test_columns_follow_their_distributions(self):
        sim = PathSimulator(seed=1)
        draws = self._draw(MULTI_FLOW_PROFILE, 3, n=60_000)
        latency = sim.latency_model
        wifi = np.array([p.on_wifi for p in draws.paths])[draws.user]
        for name, loc, scale, on in (
            ("rssi_noise", 0.0, 5.0, wifi),
            ("log_rtt", latency.log_median_rtt, latency.rtt_sigma, True),
            ("log_loss", latency.log_median_loss, latency.loss_sigma, True),
            ("tod_noise", 0.0, 0.02, True),
            ("client_noise", -0.06, MULTI_FLOW_PROFILE.client_efficiency_sigma,
             True),
            ("download_noise", 0.0, sim.download_noise_sigma, True),
            ("upload_noise", 0.0, sim.upload_noise_sigma, True),
        ):
            column = getattr(draws, name)[np.broadcast_to(on, wifi.shape)]
            assert abs(column.mean() - loc) < 0.05 * scale, name
            assert abs(column.std() / scale - 1.0) < 0.03, name
        cross = draws.cross_traffic[wifi]
        assert abs(cross.mean() / sim.cross_traffic_scale_mbps - 1.0) < 0.03
        bands = np.array([p.band_ghz for p in draws.paths])[draws.user]
        for band, (lo, hi) in ((5.0, (0.45, 0.95)), (2.4, (0.30, 0.85))):
            contention = draws.contention[wifi & (bands == band)]
            assert lo <= contention.min() and contention.max() < hi
            assert abs(contention.mean() - (lo + hi) / 2) < 0.01
        crushed = draws.upstream_factor < 1.0
        share = sim._upstream_contention_prob(MULTI_FLOW_PROFILE)
        assert abs(crushed.mean() - share) < 0.005
        assert 0.05 <= draws.upstream_factor[crushed].min()
        assert draws.upstream_factor[crushed].max() < 0.35

    def test_invalid_runs_fail(self, sim):
        user = _make_user()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sim.draw(MULTI_FLOW_PROFILE, [user], [0, 0], [12], rng)
        with pytest.raises(ValueError):
            sim.draw(MULTI_FLOW_PROFILE, [user], [0], [24], rng)
