"""Tests for the subscriber population model."""

import numpy as np
import pytest

from repro.market import SubscriberPopulation, city_catalog
from repro.market.population import (
    MEMORY_BIN_EDGES,
    PLATFORMS,
    RSSI_BIN_EDGES,
    Household,
    PopulationConfig,
    Subscriber,
    categorical_cdf,
    default_city_config,
    mlab_tier_group_weights,
    ookla_tier_group_weights,
    sample_index,
)


@pytest.fixture
def population():
    return SubscriberPopulation("A", city_catalog("A"), seed=0)


class TestConfig:
    def test_defaults_valid(self):
        PopulationConfig()

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PopulationConfig(rssi_bin_probs=(0.5, 0.5, 0.5, 0.5))

    @pytest.mark.parametrize(
        "name, probs",
        [
            ("rssi_bin_probs", (-0.1, 0.5, 0.5, 0.1)),
            ("memory_bin_probs", (0.2, -0.05, 0.25, 0.6)),
            ("platform_mix", (0.3, 0.4, -0.2, 0.25, 0.25)),
        ],
    )
    def test_negative_probability_rejected(self, name, probs):
        assert sum(probs) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="non-negative"):
            PopulationConfig(**{name: probs})

    def test_nan_probability_rejected(self):
        with pytest.raises(ValueError):
            PopulationConfig(rssi_bin_probs=(float("nan"), 0.5, 0.4, 0.1))

    def test_bin_prob_lengths_checked(self):
        with pytest.raises(ValueError, match="RSSI_BIN_EDGES"):
            PopulationConfig(rssi_bin_probs=(0.5, 0.5))
        with pytest.raises(ValueError, match="MEMORY_BIN_EDGES"):
            PopulationConfig(memory_bin_probs=(0.2, 0.2, 0.2, 0.2, 0.2))

    def test_platform_mix_length_checked(self):
        with pytest.raises(ValueError):
            PopulationConfig(platform_mix=(1.0,))

    def test_heavy_user_fraction_bounds(self):
        with pytest.raises(ValueError):
            PopulationConfig(heavy_user_fraction=1.5)

    def test_default_city_config_vendors(self):
        ookla = default_city_config("A", "ookla")
        mlab = default_city_config("A", "mlab")
        assert ookla.tier_group_weights != mlab.tier_group_weights

    def test_unknown_vendor(self):
        with pytest.raises(ValueError):
            default_city_config("A", "fast")

    def test_group_weights_defined_for_all_cities(self):
        for city in "ABCD":
            n_groups = len(city_catalog(city).upload_groups())
            assert len(ookla_tier_group_weights(city)) == n_groups
            assert len(mlab_tier_group_weights(city)) == n_groups


class TestGeneration:
    def test_count(self, population):
        assert len(population.generate_users(50)) == 50

    def test_deterministic(self, population):
        a = population.generate_users(20, seed=3)
        b = population.generate_users(20, seed=3)
        assert [u.user_id for u in a] == [u.user_id for u in b]
        assert [u.tier for u in a] == [u.tier for u in b]

    def test_plans_come_from_catalog(self, population):
        users = population.generate_users(100)
        assert all(u.plan in population.catalog.plans for u in users)

    def test_platforms_valid(self, population):
        users = population.generate_users(200)
        assert {u.platform for u in users} <= set(PLATFORMS)

    def test_mobile_always_wifi(self, population):
        users = population.generate_users(300)
        for user in users:
            if user.platform in ("android", "ios"):
                assert user.access == "wifi"
            if user.platform == "desktop-ethernet":
                assert user.access == "ethernet"

    def test_tier_skew_matches_weights(self, population):
        users = population.generate_users(6000, seed=1)
        tiers = np.asarray([u.tier for u in users])
        low_share = np.mean(tiers <= 3)
        expected = population.tier_probabilities
        expected_low = expected[1] + expected[2] + expected[3]
        assert abs(low_share - expected_low) < 0.04

    def test_tier_probabilities_sum_to_one(self, population):
        assert sum(population.tier_probabilities.values()) == pytest.approx(
            1.0
        )

    def test_memory_desktop_high(self, population):
        users = population.generate_users(300, seed=2)
        for user in users:
            if user.platform.startswith("desktop"):
                assert user.memory_gb >= 8.0

    def test_heavy_users_have_five_plus_tests(self, population):
        users = population.generate_users(2000, seed=3)
        heavy = [u for u in users if u.n_tests >= 5]
        fraction = len(heavy) / len(users)
        assert abs(fraction - 0.27) < 0.05

    def test_band_mix(self, population):
        users = population.generate_users(3000, seed=4)
        five = np.mean(
            [u.household.band_ghz == 5.0 for u in users]
        )
        assert abs(five - 0.77) < 0.04

    def test_negative_count_rejected(self, population):
        with pytest.raises(ValueError):
            population.generate_users(-1)
        with pytest.raises(ValueError):
            population.iter_users(-1)  # before the first user is asked for

    def test_lazy_users_are_the_eager_ones(self, population):
        eager = population.generate_users(40, seed=6)
        lazy = population.iter_users(40, seed=6)
        assert [next(lazy) for _ in range(15)] == eager[:15]
        assert list(lazy) == eager[15:]

    def test_with_config_override(self, population):
        tweaked = population.with_config(band_5ghz_fraction=0.0)
        users = tweaked.generate_users(50, seed=5)
        assert all(u.household.band_ghz == 2.4 for u in users)

    def test_group_weight_count_validated(self):
        config = PopulationConfig(tier_group_weights=(1.0,))
        with pytest.raises(ValueError, match="upload groups"):
            SubscriberPopulation("A", city_catalog("A"), config)


class TestRecords:
    def test_household_band_validated(self):
        plan = city_catalog("A").plan_for_tier(1)
        with pytest.raises(ValueError, match="band"):
            Household("h", "A", 1, plan, -50.0, band_ghz=3.5)

    def test_subscriber_platform_validated(self):
        plan = city_catalog("A").plan_for_tier(1)
        home = Household("h", "A", 1, plan, -50.0, 5.0)
        with pytest.raises(ValueError, match="platform"):
            Subscriber("u", home, "blackberry", "wifi", 4.0, 1)

    def test_subscriber_needs_tests(self):
        plan = city_catalog("A").plan_for_tier(1)
        home = Household("h", "A", 1, plan, -50.0, 5.0)
        with pytest.raises(ValueError, match="test"):
            Subscriber("u", home, "android", "wifi", 4.0, 0)


class TestDrawEquivalence:
    """``sample_index`` over a precomputed CDF is ``rng.choice(k, p=...)``:
    same index, and the generator state advances identically."""

    @pytest.mark.parametrize(
        "probs",
        [
            PopulationConfig().rssi_bin_probs,
            PopulationConfig().memory_bin_probs,
            PopulationConfig().platform_mix,
            (0.0, 0.5, 0.0, 0.5),
            (1.0,),
        ],
    )
    def test_matches_rng_choice(self, probs):
        cdf = categorical_cdf(probs)
        p = np.asarray(probs)
        for seed in range(250):
            ours = np.random.default_rng(seed)
            theirs = np.random.default_rng(seed)
            for _ in range(3):
                assert sample_index(cdf, ours) == int(
                    theirs.choice(len(probs), p=p)
                )
            assert ours.random() == theirs.random()

    def test_population_bins_match_rng_choice(self, population):
        cfg = population.config
        for seed in range(200):
            ours = np.random.default_rng(seed)
            theirs = np.random.default_rng(seed)
            rssi_bin = theirs.choice(4, p=np.asarray(cfg.rssi_bin_probs))
            assert population._sample_rssi(ours) == float(
                theirs.uniform(*RSSI_BIN_EDGES[rssi_bin])
            )
            memory_bin = theirs.choice(4, p=np.asarray(cfg.memory_bin_probs))
            assert population._sample_memory("android", ours) == float(
                theirs.uniform(*MEMORY_BIN_EDGES[memory_bin])
            )
            assert ours.random() == theirs.random()

    @pytest.mark.parametrize(
        "probs, message",
        [
            ((0.5, -0.1, 0.6), "non-negative"),
            ((0.5, float("nan"), 0.5), "non-negative"),
            ((0.5, 0.5, 0.1), "sum to 1"),
            ((), "non-empty"),
        ],
    )
    def test_cdf_makes_choice_checks(self, probs, message):
        with pytest.raises(ValueError, match=message):
            categorical_cdf(probs)
