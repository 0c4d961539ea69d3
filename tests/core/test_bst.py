"""Tests for the BST two-stage clustering pipeline."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import BSTConfig, BSTModel
from repro.core.bst import gather_labels
from repro.market import Plan, PlanCatalog, city_catalog
from repro.market.isps import CITY_IDS, state_catalog
from repro.vendors.mba import MBASimulator


@pytest.fixture
def catalog():
    return city_catalog("A")


def synthetic_city_sample(catalog, n_per_tier=300, seed=0):
    """Clean synthetic (download, upload, tier) data around plan rates."""
    rng = np.random.default_rng(seed)
    downloads, uploads, tiers = [], [], []
    for plan in catalog.plans:
        downloads.append(
            rng.normal(plan.download_mbps * 1.1, plan.download_mbps * 0.06,
                       n_per_tier)
        )
        uploads.append(
            rng.normal(plan.upload_mbps * 1.1, plan.upload_mbps * 0.05,
                       n_per_tier)
        )
        tiers.append(np.full(n_per_tier, plan.tier))
    return (
        np.concatenate(downloads),
        np.concatenate(uploads),
        np.concatenate(tiers),
    )


class TestUploadStage:
    def test_groups_recovered(self, catalog):
        downloads, uploads, tiers = synthetic_city_sample(catalog)
        model = BSTModel(catalog)
        fit, group_indices = model.fit_upload_stage(uploads)
        assert len(fit.groups) == 4
        assert fit.cluster_counts.sum() == len(uploads)

    def test_cluster_means_near_offered(self, catalog):
        _, uploads, _ = synthetic_city_sample(catalog)
        fit, _ = BSTModel(catalog).fit_upload_stage(uploads)
        for group, mean in zip(fit.groups, fit.cluster_means):
            assert mean == pytest.approx(group.upload_mbps * 1.1, rel=0.15)

    def test_off_menu_smear_gets_extra_components(self, catalog):
        rng = np.random.default_rng(1)
        clean = np.concatenate(
            [rng.normal(u * 1.1, 0.4, 300) for u in catalog.upload_speeds]
        )
        smear = rng.uniform(0.5, 2.5, 200)  # WiFi-capped uploads
        fit, groups = BSTModel(catalog).fit_upload_stage(
            np.concatenate([clean, smear])
        )
        assert len(fit.component_means) > len(fit.groups)
        # The smear lands in the lowest upload group.
        assert set(groups[-200:].tolist()) == {0}

    def test_too_few_measurements(self, catalog):
        with pytest.raises(ValueError, match="at least"):
            BSTModel(catalog).fit_upload_stage(np.asarray([5.0]))

    def test_nan_uploads_rejected(self, catalog):
        # Regression: NaNs used to be silently dropped, misaligning the
        # returned group indices with the caller's rows.
        _, uploads, _ = synthetic_city_sample(catalog)
        with_nan = np.concatenate([uploads, [np.nan]])
        with pytest.raises(ValueError, match="finite"):
            BSTModel(catalog).fit_upload_stage(with_nan)

    def test_group_indices_align_with_input(self, catalog):
        _, uploads, _ = synthetic_city_sample(catalog)
        _, groups = BSTModel(catalog).fit_upload_stage(uploads)
        assert len(groups) == len(uploads)

    def test_mean_for_group_raises_for_unmapped_group(self, catalog):
        # Regression: an unmapped group's prefilled NaN mean used to be
        # returned silently and leak into Table 3-style reports.
        _, uploads, _ = synthetic_city_sample(catalog)
        fit, _ = BSTModel(catalog).fit_upload_stage(uploads)
        fit.cluster_means[2] = np.nan
        with pytest.raises(ValueError, match="no fitted component"):
            fit.mean_for_group(2)
        assert fit.mean_for_group(0) > 0


class TestDownloadStage:
    def test_multi_plan_group_mapping(self, catalog):
        group = catalog.upload_groups()[0]  # Tiers 1-3
        rng = np.random.default_rng(2)
        downloads = np.concatenate(
            [
                rng.normal(27, 3, 300),
                rng.normal(110, 10, 300),
                rng.normal(220, 15, 300),
            ]
        )
        stage, tiers = BSTModel(catalog).fit_download_stage(
            downloads, group, 0
        )
        assert set(stage.cluster_tiers) == {1, 2, 3}
        assert set(tiers.tolist()) == {1, 2, 3}

    def test_degraded_clusters_map_to_low_plans(self, catalog):
        # The paper's 8 Mbps and 27 Mbps Android clusters both belong to
        # the 25 Mbps plan (Tier 1).
        group = catalog.upload_groups()[0]
        rng = np.random.default_rng(3)
        downloads = np.concatenate(
            [rng.normal(8, 1.0, 300), rng.normal(27, 2.5, 300)]
        )
        stage, tiers = BSTModel(catalog).fit_download_stage(
            downloads, group, 0
        )
        assert set(tiers.tolist()) == {1}

    def test_single_plan_group_all_one_tier(self, catalog):
        group = catalog.upload_groups()[3]  # Tier 6 only
        rng = np.random.default_rng(4)
        downloads = np.concatenate(
            [rng.normal(100, 10, 200), rng.normal(900, 60, 200)]
        )
        stage, tiers = BSTModel(catalog).fit_download_stage(
            downloads, group, 3
        )
        assert set(tiers.tolist()) == {6}

    def test_cluster_cap_respected(self, catalog):
        group = catalog.upload_groups()[3]
        rng = np.random.default_rng(5)
        downloads = rng.uniform(10, 1200, 3000)  # maximally smeared
        config = BSTConfig(max_download_clusters=4)
        stage, _ = BSTModel(catalog, config).fit_download_stage(
            downloads, group, 3
        )
        assert stage.n_components <= 4

    def test_empty_group_rejected(self, catalog):
        group = catalog.upload_groups()[0]
        with pytest.raises(ValueError):
            BSTModel(catalog).fit_download_stage(np.asarray([]), group, 0)

    def test_nan_downloads_rejected(self, catalog):
        # Regression: NaNs used to be silently dropped, misaligning the
        # returned tiers with the caller's rows.
        group = catalog.upload_groups()[0]
        rng = np.random.default_rng(7)
        downloads = np.concatenate([rng.normal(27, 3, 100), [np.nan]])
        with pytest.raises(ValueError, match="finite"):
            BSTModel(catalog).fit_download_stage(downloads, group, 0)


class TestFullFit:
    def test_end_to_end_recovery(self, catalog):
        downloads, uploads, tiers = synthetic_city_sample(catalog)
        result = BSTModel(catalog).fit(downloads, uploads)
        accuracy = float(np.mean(result.tiers == tiers))
        assert accuracy > 0.97

    def test_result_lengths(self, catalog):
        downloads, uploads, _ = synthetic_city_sample(catalog)
        result = BSTModel(catalog).fit(downloads, uploads)
        assert len(result) == len(downloads)
        assert len(result.group_indices) == len(downloads)

    def test_plan_speed_lookup(self, catalog):
        downloads, uploads, _ = synthetic_city_sample(catalog)
        result = BSTModel(catalog).fit(downloads, uploads)
        plan_downs = result.plan_download_for_rows()
        assert set(np.unique(plan_downs)) <= {
            p.download_mbps for p in catalog.plans
        }
        plan_ups = result.plan_upload_for_rows()
        assert set(np.unique(plan_ups)) <= {
            p.upload_mbps for p in catalog.plans
        }

    def test_group_labels(self, catalog):
        downloads, uploads, _ = synthetic_city_sample(catalog)
        result = BSTModel(catalog).fit(downloads, uploads)
        labels = set(result.group_label_for_rows())
        assert labels <= {"Tier 1-3", "Tier 4", "Tier 5", "Tier 6"}

    def test_mismatched_shapes_rejected(self, catalog):
        with pytest.raises(ValueError, match="one-to-one"):
            BSTModel(catalog).fit([1.0, 2.0], [1.0])

    def test_nan_input_rejected(self, catalog):
        downloads, uploads, _ = synthetic_city_sample(catalog)
        downloads = downloads.copy()
        downloads[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            BSTModel(catalog).fit(downloads, uploads)

    def test_kmeans_variant_runs(self, catalog):
        downloads, uploads, tiers = synthetic_city_sample(catalog)
        config = BSTConfig(clustering="kmeans")
        result = BSTModel(catalog, config).fit(downloads, uploads)
        assert float(np.mean(result.tiers == tiers)) > 0.9

    def test_unseeded_variant_runs(self, catalog):
        downloads, uploads, tiers = synthetic_city_sample(catalog)
        config = BSTConfig(seed_means_from_catalog=False)
        result = BSTModel(catalog, config).fit(downloads, uploads)
        assert float(np.mean(result.tiers == tiers)) > 0.8

    def test_two_plan_catalog(self):
        catalog = PlanCatalog("Mini", [Plan(50, 5), Plan(500, 20)])
        rng = np.random.default_rng(6)
        uploads = np.concatenate(
            [rng.normal(5.5, 0.3, 200), rng.normal(22, 1, 200)]
        )
        downloads = np.concatenate(
            [rng.normal(55, 5, 200), rng.normal(520, 30, 200)]
        )
        result = BSTModel(catalog).fit(downloads, uploads)
        assert set(result.tiers.tolist()) == {1, 2}


class TestConfig:
    def test_invalid_clustering(self):
        with pytest.raises(ValueError):
            BSTConfig(clustering="dbscan")

    def test_invalid_max_clusters(self):
        with pytest.raises(ValueError):
            BSTConfig(max_download_clusters=0)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            BSTConfig(kde_grid_points=4)

    def test_invalid_prior(self):
        with pytest.raises(ValueError):
            BSTConfig(upload_mean_prior=-0.1)


# ----------------------------------------------------------------------
# Row mapping against the per-row loops it replaced (bit-identical).
# ----------------------------------------------------------------------
def oracle_upload_rows(component_groups, labels):
    return np.asarray(
        [component_groups[label] for label in labels], dtype=np.int64
    )


def oracle_download_rows(cluster_tiers, labels):
    return np.asarray([cluster_tiers[label] for label in labels])


def oracle_plan_download_for_rows(result):
    lookup = {p.tier: p.download_mbps for p in result.catalog.plans}
    return np.asarray([lookup[int(t)] for t in result.tiers], dtype=float)


def oracle_plan_upload_for_rows(result):
    lookup = {p.tier: p.upload_mbps for p in result.catalog.plans}
    return np.asarray([lookup[int(t)] for t in result.tiers], dtype=float)


def oracle_group_label_for_rows(result):
    labels = [g.tier_label for g in result.upload_stage.groups]
    return [labels[int(i)] for i in result.group_indices]


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class RecordingBST(BSTModel):
    """Keeps each clusterer call's labels, in call order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.labels = []

    def _cluster(self, *args, **kwargs):
        out = super()._cluster(*args, **kwargs)
        self.labels.append(out[0])
        return out


def mba_fits(seed, n=4000):
    for i, state in enumerate(CITY_IDS):
        panel = MBASimulator(state, seed=seed * 10 + i).generate(n)
        model = RecordingBST(state_catalog(state))
        result = model.fit(panel["download_mbps"], panel["upload_mbps"])
        yield model, result, panel


class TestRowMappingOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_mba_panels_match_loops(self, seed):
        for model, result, _ in mba_fits(seed):
            upload_labels, *download_labels = model.labels
            assert_same_array(
                result.group_indices,
                oracle_upload_rows(
                    result.upload_stage.component_groups, upload_labels
                ),
            )
            tiers = np.zeros(len(result), dtype=np.int64)
            for (gi, stage), labels in zip(
                sorted(result.download_stages.items()), download_labels
            ):
                rows = np.flatnonzero(result.group_indices == gi)
                want = oracle_download_rows(stage.cluster_tiers, labels)
                assert want.dtype == np.int64
                tiers[rows] = want
            assert_same_array(result.tiers, tiers)
            assert_same_array(
                result.plan_download_for_rows(),
                oracle_plan_download_for_rows(result),
            )
            assert_same_array(
                result.plan_upload_for_rows(),
                oracle_plan_upload_for_rows(result),
            )
            assert result.group_label_for_rows() == (
                oracle_group_label_for_rows(result)
            )

    def test_download_stage_matches_loop(self, catalog):
        group = catalog.upload_groups()[0]
        rng = np.random.default_rng(2)
        downloads = np.concatenate(
            [rng.normal(27, 3, 300), rng.normal(220, 15, 300)]
        )
        model = RecordingBST(catalog)
        stage, tiers = model.fit_download_stage(downloads, group, 0)
        assert_same_array(
            tiers, oracle_download_rows(stage.cluster_tiers, model.labels[0])
        )

    def test_gather_edge_cases(self):
        table = (1, 2, 3, 6)
        for labels in (
            np.array([2], dtype=np.intp),
            np.array([3, 3, 0, 1, 0], dtype=np.intp),
            np.arange(4),
        ):
            assert_same_array(
                gather_labels(table, labels),
                oracle_download_rows(table, labels),
            )
        empty = gather_labels(table, np.array([], dtype=np.intp))
        assert empty.dtype == np.int64 and empty.shape == (0,)
        with pytest.raises(IndexError):
            gather_labels(table, np.array([4]))

    def test_row_lookups_edge_cases(self, catalog):
        downloads, uploads, _ = synthetic_city_sample(catalog)
        fitted = BSTModel(catalog).fit(downloads, uploads)
        int64 = np.int64
        cases = {
            "one row": ([3], [6], int64),
            "empty": ([], [], int64),
            # Group 1 (Tier 4) and tiers 1 and 4 get no rows.
            "gaps": ([0, 3, 0, 2], [2, 6, 3, 5], int64),
            "float dtype": ([3.0, 0.0], [6.0, 2.0], float),
        }
        for name, (groups, tiers, dtype) in cases.items():
            result = replace(
                fitted,
                group_indices=np.asarray(groups, dtype=dtype),
                tiers=np.asarray(tiers, dtype=dtype),
            )
            assert_same_array(
                result.plan_download_for_rows(),
                oracle_plan_download_for_rows(result),
            )
            assert_same_array(
                result.plan_upload_for_rows(),
                oracle_plan_upload_for_rows(result),
            )
            assert result.group_label_for_rows() == (
                oracle_group_label_for_rows(result)
            ), name

    def test_unknown_tier_raises_like_loop(self, catalog):
        downloads, uploads, _ = synthetic_city_sample(catalog)
        fitted = BSTModel(catalog).fit(downloads, uploads)
        result = replace(fitted, tiers=np.array([2, 99, 1, 42]))
        with pytest.raises(KeyError) as want:
            oracle_plan_download_for_rows(result)
        with pytest.raises(KeyError) as got:
            result.plan_download_for_rows()
        assert got.value.args == want.value.args == (99,)
