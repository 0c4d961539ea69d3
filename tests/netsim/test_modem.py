"""Tests for the DOCSIS modem substrate."""

import numpy as np
import pytest

from repro.netsim.modem import (
    DOCSIS_30_8x4,
    DOCSIS_30_32x8,
    DOCSIS_31,
    MODEM_GENERATIONS,
    ModemProfile,
    sample_modem,
)


class TestProfiles:
    def test_8x4_ceiling(self):
        assert DOCSIS_30_8x4.max_download_mbps == pytest.approx(343.04)
        assert DOCSIS_30_8x4.max_upload_mbps == pytest.approx(122.88)

    def test_31_ofdm_ceiling(self):
        assert DOCSIS_31.max_download_mbps >= 2500
        assert DOCSIS_31.max_upload_mbps >= 800

    def test_generations_ordered_by_capacity(self):
        caps = [m.max_download_mbps for m in MODEM_GENERATIONS]
        assert caps == sorted(caps)

    def test_old_modem_caps_gigabit_plan(self):
        assert DOCSIS_30_8x4.caps_plan(1200)
        assert not DOCSIS_31.caps_plan(1200)

    def test_32x8_barely_misses_gigabit(self):
        assert DOCSIS_30_32x8.caps_plan(1400)
        assert not DOCSIS_30_32x8.caps_plan(1200)

    def test_invalid_channels(self):
        with pytest.raises(ValueError):
            ModemProfile("bad", 0, 4)


class TestSampling:
    def test_mix_respected(self):
        rng = np.random.default_rng(0)
        draws = [sample_modem(rng).name for _ in range(3000)]
        share_31 = np.mean([d == "DOCSIS 3.1" for d in draws])
        assert 0.30 < share_31 < 0.40

    def test_bad_mix_length(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_modem(rng, mix=(1.0,))

    def test_mix_must_sum_to_one(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_modem(rng, mix=(0.5, 0.5, 0.5, 0.5))


class TestPathIntegration:
    def test_modem_caps_premium_wired_tests(self):
        from repro.market import city_catalog
        from repro.market.population import Household, Subscriber
        from repro.netsim import PathSimulator
        from repro.netsim.path import WIRED_PANEL_PROFILE

        plan = city_catalog("A").plan_for_tier(6)
        downloads = {}
        for modems in (False, True):
            sim = PathSimulator(seed=3, model_modems=modems)
            rng = np.random.default_rng(5)
            users = [
                Subscriber(
                    f"u{i}",
                    Household(f"h-modem-{i}", "A", 6, plan, -40.0, 5.0),
                    "desktop-ethernet", "ethernet", 16.0, 1,
                )
                for i in range(120)
            ]
            draws = sim.draw(
                WIRED_PANEL_PROFILE, users, np.arange(120), np.full(120, 3), rng
            )
            downloads[modems] = sim.compute(draws).download_mbps
        # With modem modelling on, a visible tail of gigabit-plan tests
        # collapses to the 8x4 ceiling (~343 Mbps).
        assert np.mean(downloads[True] < 400) > 0.05
        assert np.mean(downloads[False] < 400) < 0.02

    def test_household_modem_deterministic(self):
        from repro.market import city_catalog
        from repro.market.population import Household, Subscriber
        from repro.netsim import PathSimulator

        plan = city_catalog("A").plan_for_tier(4)
        household = Household("h-fixed", "A", 4, plan, -40.0, 5.0)
        user = Subscriber("u", household, "ios", "wifi", 4.0, 1)
        sim = PathSimulator(seed=0, model_modems=True)
        assert sim.household_modem(user).name == (
            sim.household_modem(user).name
        )
