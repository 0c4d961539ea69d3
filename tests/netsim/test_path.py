"""Tests for end-to-end path composition."""

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
        cond = sim.sample_conditions(_make_user(), 12, rng)
        assert cond.rssi_dbm is not None
        assert cond.contention_factor is not None
        assert cond.cross_traffic_mbps >= 0

    def test_wired_conditions_skip_wifi_fields(self, sim):
        rng = np.random.default_rng(0)
        user = _make_user(platform="desktop-ethernet", access="ethernet")
        cond = sim.sample_conditions(user, 12, rng)
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
        for _ in range(50):
            outcome = sim.run_test(user, WIRED_PANEL_PROFILE, 12, rng)
            # Shaped rate is ~1.16x the 100 Mbps plan; small noise on top.
            assert outcome.download_mbps < 100 * 1.16 * 1.15 * 1.4

    def test_upload_tight_around_plan(self, sim):
        user = _make_user(tier=6, platform="desktop-ethernet",
                          access="ethernet")
        rng = np.random.default_rng(2)
        ups = [
            sim.run_test(user, WIRED_PANEL_PROFILE, 3, rng).upload_mbps
            for _ in range(100)
        ]
        assert 35 < np.median(ups) < 45  # 35 Mbps plan, overprovisioned

    def test_wired_beats_wifi_on_high_tier(self, sim):
        rng = np.random.default_rng(3)
        wired = _make_user(
            tier=6, platform="desktop-ethernet", access="ethernet",
            household_id="h-wired",
        )
        wifi = _make_user(tier=6, platform="desktop-wifi", household_id="h-wifi")
        wired_dl = np.median(
            [sim.run_test(wired, MULTI_FLOW_PROFILE, 12, rng).download_mbps
             for _ in range(60)]
        )
        wifi_dl = np.median(
            [sim.run_test(wifi, MULTI_FLOW_PROFILE, 12, rng).download_mbps
             for _ in range(60)]
        )
        assert wired_dl > wifi_dl * 1.4

    def test_24ghz_slower_than_5ghz(self, sim):
        rng = np.random.default_rng(4)
        fast = _make_user(tier=6, band=5.0, household_id="h-5g")
        slow = _make_user(tier=6, band=2.4, household_id="h-24g")
        fast_dl = np.median(
            [sim.run_test(fast, MULTI_FLOW_PROFILE, 12, rng).download_mbps
             for _ in range(60)]
        )
        slow_dl = np.median(
            [sim.run_test(slow, MULTI_FLOW_PROFILE, 12, rng).download_mbps
             for _ in range(60)]
        )
        assert slow_dl < fast_dl / 2

    def test_low_memory_caps_mobile(self, sim):
        rng = np.random.default_rng(5)
        starved = _make_user(tier=6, memory_gb=1.0, household_id="h-lowmem")
        roomy = _make_user(tier=6, memory_gb=8.0, household_id="h-himem")
        starved_dl = np.median(
            [sim.run_test(starved, MULTI_FLOW_PROFILE, 12, rng).download_mbps
             for _ in range(60)]
        )
        roomy_dl = np.median(
            [sim.run_test(roomy, MULTI_FLOW_PROFILE, 12, rng).download_mbps
             for _ in range(60)]
        )
        assert starved_dl < roomy_dl / 2

    def test_single_flow_lags_multi_flow(self, sim):
        rng = np.random.default_rng(6)
        user = _make_user(
            tier=5, platform="desktop-ethernet", access="ethernet",
            household_id="h-flow",
        )
        multi = np.median(
            [sim.run_test(user, MULTI_FLOW_PROFILE, 12, rng).download_mbps
             for _ in range(60)]
        )
        single = np.median(
            [sim.run_test(user, SINGLE_FLOW_NDT_PROFILE, 12, rng).download_mbps
             for _ in range(60)]
        )
        assert single < multi

    def test_overnight_slightly_faster(self, sim):
        rng = np.random.default_rng(7)
        user = _make_user(
            tier=4, platform="desktop-ethernet", access="ethernet",
            household_id="h-tod",
        )
        night = np.median(
            [sim.run_test(user, WIRED_PANEL_PROFILE, 3, rng).download_mbps
             for _ in range(80)]
        )
        day = np.median(
            [sim.run_test(user, WIRED_PANEL_PROFILE, 15, rng).download_mbps
             for _ in range(80)]
        )
        assert 1.02 < night / day < 1.35

    def test_access_link_deterministic_per_household(self, sim):
        user = _make_user(household_id="h-stable")
        assert (
            sim.access_link(user).household_factor
            == sim.access_link(user).household_factor
        )

    def test_invalid_direction(self, sim):
        rng = np.random.default_rng(8)
        user = _make_user()
        cond = sim.sample_conditions(user, 12, rng)
        with pytest.raises(ValueError):
            sim.simulate_direction(user, MULTI_FLOW_PROFILE, cond, rng, "up")

    def test_invalid_cross_traffic_scale(self):
        with pytest.raises(ValueError):
            PathSimulator(cross_traffic_scale_mbps=-1.0)

    def test_outcome_fields_positive(self, sim):
        rng = np.random.default_rng(9)
        outcome = sim.run_test(_make_user(), MULTI_FLOW_PROFILE, 12, rng)
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
            sim.run_test(user, MULTI_FLOW_PROFILE, hour, rng)
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
            sim.run_test(user, WIRED_PANEL_PROFILE, hour, rng)
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
        warm.run_test(user, MULTI_FLOW_PROFILE, 9, np.random.default_rng(1))
        cold = PathSimulator(seed=2, model_modems=True)
        outcomes = [
            sim.run_test(user, MULTI_FLOW_PROFILE, 9, np.random.default_rng(7))
            for sim in (warm, cold)
        ]
        assert outcomes[0] == outcomes[1]
