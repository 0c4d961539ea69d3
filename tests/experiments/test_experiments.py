"""Tests for every registered experiment driver (small scale).

Each test asserts the paper's qualitative *shape*, not exact numbers:
orderings, monotonicities, accuracy floors, and share bounds.  The
benchmark harness reruns everything at larger scale for the quantitative
comparison recorded in EXPERIMENTS.md.
"""

import pytest

from repro.experiments import REGISTRY, Scale, get_experiment, run_experiment
from repro.experiments.base import ExperimentResult

SCALE = Scale.SMALL
SEED = 0

_results: dict[str, ExperimentResult] = {}


def result_for(experiment_id: str, scale: Scale = SCALE) -> ExperimentResult:
    key = f"{experiment_id}@{scale.value}"
    if key not in _results:
        _results[key] = run_experiment(experiment_id, scale=scale, seed=SEED)
    return _results[key]


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {
            "fig1", "tab1", "fig2", "tab2", "fig4", "fig5", "fig6",
            "tab3", "fig7", "tab4", "fig8", "fig9", "fig10", "fig11",
            "fig12", "fig13", "tab5-7", "fig14-18",
        }
        assert expected <= set(REGISTRY)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="known"):
            get_experiment("fig99")

    @pytest.mark.parametrize("experiment_id", sorted(REGISTRY))
    def test_runs_and_renders(self, experiment_id):
        result = result_for(experiment_id)
        text = result.render()
        assert result.experiment_id == experiment_id
        assert result.metrics
        assert experiment_id in text


class TestFig1:
    def test_tier1_far_below_city_median(self):
        m = result_for("fig1").metrics
        assert m["tier1_median_mbps"] < m["city_median_mbps"] / 2.5

    def test_tier6_far_above_city_median(self):
        m = result_for("fig1").metrics
        assert m["tier6_median_mbps"] > m["city_median_mbps"] * 1.5

    def test_ethernet_fastest(self):
        m = result_for("fig1").metrics
        assert m["tier6_ethernet_median_mbps"] >= m["tier6_median_mbps"]
        assert m["tier6_ethernet_median_mbps"] > m["city_median_mbps"] * 4


class TestTab2:
    def test_accuracy_above_paper_floor(self):
        m = result_for("tab2").metrics
        for state in "ABCD":
            assert m[f"upload_accuracy_{state}"] > 0.96, state

    def test_tier_accuracy_high(self):
        m = result_for("tab2").metrics
        for state in "ABCD":
            assert m[f"tier_accuracy_{state}"] > 0.9, state


class TestFig2:
    def test_upload_more_consistent_than_download(self):
        m = result_for("fig2").metrics
        assert m["median_upload_cf"] > m["median_download_cf"] + 0.05

    def test_factors_in_unit_range(self):
        m = result_for("fig2").metrics
        assert 0.2 < m["median_download_cf"] <= 1.1
        assert 0.5 < m["median_upload_cf"] <= 1.05


class TestFig4and5:
    def test_upload_cluster_means_near_offered(self):
        m = result_for("fig4").metrics
        offered = {
            "Tier 2-3": 5, "Tier 4": 10, "Tier 5": 15, "Tier 6": 35,
        }
        for label, base in offered.items():
            mean = m[f"cluster_mean_{label}"]
            assert base * 0.9 < mean < base * 1.35, label

    def test_overprovisioning_and_saturation_shape(self):
        m = result_for("fig5").metrics
        # Tiers 2-3 over-deliver relative to 200 Mbps; Tier 6 undershoots.
        assert m["top_cluster_mean_Tier 2-3"] > 200
        assert m["top_cluster_mean_Tier 6"] < 1100


class TestFig8:
    def test_median_alpha_is_one(self):
        m = result_for("fig8").metrics
        assert m["median_alpha"] == 1.0
        assert m["fraction_alpha_1"] > 0.5


class TestFig9and10:
    def test_access_ordering(self):
        m = result_for("fig9").metrics
        assert m["ethernet_median"] > m["wifi_median"] * 1.5

    def test_band_ordering(self):
        # Strict ordering only; the MEDIUM-scale bench asserts the full
        # >2x gap.  At SMALL scale the 2.4 GHz cell holds <100 Android
        # tests, and within-group tier reassignment (a degraded Tier-2/3
        # download mapping to the Tier-1 plan, which the paper's method
        # shares) splits them into two modes with the median between
        # them: on seed 0's SMALL population most per-test draw streams
        # reverse the ordering.  At MEDIUM it holds on seeds 0-9.
        m = result_for("fig9", Scale.MEDIUM).metrics
        assert m["band5_median"] > m["band24_median"]

    def test_rssi_extremes_ordered(self):
        m = result_for("fig9").metrics
        assert m["rssi_best_median"] > m["rssi_poor_median"] * 2

    def test_memory_low_bin_capped(self):
        m = result_for("fig9").metrics
        assert m["mem_lt2_median"] < m["mem_gt6_median"]

    def test_bottleneck_split(self):
        # At SMALL scale the ratio fails on some seeds in 0-9: the
        # Local-bottleneck cell shares the 2.4 GHz cell's two modes.
        m = result_for("fig10", Scale.MEDIUM).metrics
        assert m["best_median"] > m["bottleneck_median"] * 1.8
        assert 0.5 < m["bottleneck_share"] < 0.85


class TestFig11:
    def test_overnight_minority(self):
        m = result_for("fig11").metrics
        assert m["max_overnight_share"] < 20.0


class TestFig13:
    def test_mlab_lags_every_tier(self):
        m = result_for("fig13").metrics
        for label in ("Tier 1-3", "Tier 4", "Tier 5", "Tier 6"):
            assert m[f"lag_{label}"] > 1.0, label

    def test_low_tiers_near_plan_for_ookla(self):
        m = result_for("fig13").metrics
        assert m["ookla_median_Tier 1-3"] > 0.8


class TestCitiesBCD:
    def test_upload_means_track_offered(self):
        from repro.market import city_catalog

        m = result_for("tab5-7").metrics
        for city in "BCD":
            groups = city_catalog(city).upload_groups()
            for group in groups:
                key = f"{city}|Net-Web|{group.tier_label}|mean"
                if key not in m:
                    continue
                mean = m[key]
                assert group.upload_mbps * 0.7 < mean < (
                    group.upload_mbps * 1.45
                ), key


class TestAblations:
    def test_upload_first_dominates(self):
        m = result_for("ablation-upload-first").metrics
        assert m["bst_accuracy"] > m["download_first_accuracy"]
        assert m["advantage"] > 0.05

    def test_seeding_helps_on_noisy_city_data(self):
        m = result_for("ablation-seeding").metrics
        assert (
            m["seeded_city_upload_accuracy"]
            >= m["blind_city_upload_accuracy"] - 0.02
        )

    def test_both_clusterers_work_on_wired_data(self):
        m = result_for("ablation-clusterer").metrics
        assert m["gmm_upload_accuracy"] > 0.96
        assert m["kmeans_upload_accuracy"] > 0.9

    def test_staged_beats_joint_on_noisy_data(self):
        m = result_for("ablation-joint-2d").metrics
        assert m["staged_mba"] > 0.95
        assert m["staged_city"] > m["joint_city"]

    def test_consistency_metrics_agree_on_ordering(self):
        m = result_for("ablation-consistency-metric").metrics
        assert m["upload_mean_p95"] > m["download_mean_p95"]
        assert m["upload_median_p95"] > m["download_median_p95"]
