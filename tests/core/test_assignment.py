"""Tests for accuracy evaluation against ground truth."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    AccuracyReport,
    BSTModel,
    accuracy_report,
    tier_accuracy,
    upload_group_accuracy,
)
from repro.market import city_catalog
from repro.market.plans import UploadGroup
from repro.obs.trace import use_collector

from tests.core.test_bst import mba_fits, synthetic_city_sample


@pytest.fixture
def fitted():
    catalog = city_catalog("A")
    downloads, uploads, tiers = synthetic_city_sample(catalog, seed=9)
    result = BSTModel(catalog).fit(downloads, uploads)
    return result, tiers


def test_high_accuracy_on_clean_data(fitted):
    result, tiers = fitted
    assert tier_accuracy(result, tiers) > 0.97
    assert upload_group_accuracy(result, tiers) > 0.99


def test_upload_group_at_least_tier_accuracy(fitted):
    result, tiers = fitted
    assert upload_group_accuracy(result, tiers) >= tier_accuracy(
        result, tiers
    )


def test_report_contents(fitted):
    result, tiers = fitted
    report = accuracy_report(result, tiers)
    assert report.n_measurements == len(tiers)
    assert set(report.per_group_tier_accuracy) <= {
        "Tier 1-3", "Tier 4", "Tier 5", "Tier 6",
    }
    assert sum(report.confusion.values()) == len(tiers)


def test_confusion_diagonal_dominates(fitted):
    result, tiers = fitted
    report = accuracy_report(result, tiers)
    diagonal = sum(
        n for (true_t, got_t), n in report.confusion.items()
        if true_t == got_t
    )
    assert diagonal / report.n_measurements > 0.97


def test_length_mismatch_rejected(fitted):
    result, tiers = fitted
    with pytest.raises(ValueError):
        tier_accuracy(result, tiers[:-1])
    with pytest.raises(ValueError):
        upload_group_accuracy(result, tiers[:-1])
    with pytest.raises(ValueError):
        accuracy_report(result, tiers[:-1])


def test_unknown_tier_in_truth_rejected(fitted):
    result, tiers = fitted
    bad = tiers.copy()
    bad[0] = 99
    with pytest.raises(KeyError):
        upload_group_accuracy(result, bad)


def test_perfect_and_zero_accuracy(fitted):
    result, _ = fitted
    assert tier_accuracy(result, result.tiers) == 1.0
    wrong = np.where(result.tiers == 1, 2, 1)
    assert tier_accuracy(result, wrong) == 0.0


# ----------------------------------------------------------------------
# Scoring against the per-row loops it replaced (bit-identical).
# ----------------------------------------------------------------------
def oracle_upload_groups(catalog):
    groups = []
    for upload in catalog.upload_speeds:
        members = tuple(p for p in catalog.plans if p.upload_mbps == upload)
        groups.append(UploadGroup(upload_mbps=upload, plans=members))
    return tuple(groups)


def oracle_group_index_of_tier(catalog, tier):
    for gi, group in enumerate(oracle_upload_groups(catalog)):
        if any(p.tier == tier for p in group.plans):
            return gi
    raise KeyError(f"tier {tier} not in catalog {catalog.isp_name}")


def oracle_upload_group_accuracy(result, true_tiers):
    true_tiers = np.asarray(true_tiers)
    true_groups = np.asarray(
        [
            oracle_group_index_of_tier(result.catalog, int(t))
            for t in true_tiers
        ]
    )
    return float(np.mean(result.group_indices == true_groups))


def oracle_accuracy_report(result, true_tiers):
    true_tiers = np.asarray(true_tiers, dtype=np.int64)
    per_group = {}
    for gi, group in enumerate(result.upload_stage.groups):
        rows = np.flatnonzero(result.group_indices == gi)
        if rows.size == 0:
            continue
        per_group[group.tier_label] = float(
            np.mean(result.tiers[rows] == true_tiers[rows])
        )
    confusion = {}
    for true_t, got_t in zip(true_tiers.tolist(), result.tiers.tolist()):
        key = (int(true_t), int(got_t))
        confusion[key] = confusion.get(key, 0) + 1
    return AccuracyReport(
        n_measurements=len(result),
        upload_group_accuracy=oracle_upload_group_accuracy(result, true_tiers),
        tier_accuracy=float(np.mean(result.tiers == true_tiers)),
        per_group_tier_accuracy=per_group,
        confusion=confusion,
    )


def assert_same_report(got, want):
    assert got == want
    assert list(got.per_group_tier_accuracy) == list(
        want.per_group_tier_accuracy
    )
    assert list(got.confusion) == list(want.confusion)
    for (true_t, got_t), n in got.confusion.items():
        assert type(true_t) is type(got_t) is type(n) is int


@pytest.mark.parametrize("seed", range(5))
def test_scoring_matches_loops_on_mba_panels(seed):
    for _, result, panel in mba_fits(seed):
        assert result.catalog.upload_groups() == oracle_upload_groups(
            result.catalog
        )
        assert_same_report(
            accuracy_report(result, panel["tier"]),
            oracle_accuracy_report(result, panel["tier"]),
        )
        assert upload_group_accuracy(result, panel["tier"]) == (
            oracle_upload_group_accuracy(result, panel["tier"])
        )


def test_scoring_matches_loops_on_edge_cases(fitted):
    result, tiers = fitted
    cases = {
        "synthetic": (result.group_indices, result.tiers, tiers),
        "one row": ([3], [6], [6]),
        "one wrong row": ([0], [2], [5]),
        # Group 1 (Tier 4) has zero rows.
        "empty group": ([0, 0, 2, 3], [1, 2, 5, 6], [1, 3, 5, 6]),
        # Tier 4 is in the truth but never assigned.
        "unassigned truth": ([0, 2, 0], [1, 5, 3], [4, 5, 4]),
        "float truth": ([0, 3], [2, 6], np.array([2.0, 6.0])),
    }
    for name, (groups, got, truth) in cases.items():
        case = replace(
            result,
            group_indices=np.asarray(groups, dtype=np.int64),
            tiers=np.asarray(got, dtype=np.int64),
        )
        assert_same_report(
            accuracy_report(case, truth), oracle_accuracy_report(case, truth)
        )
        assert upload_group_accuracy(case, truth) == (
            oracle_upload_group_accuracy(case, truth)
        ), name


def test_unknown_tier_raises_like_loop(fitted):
    result, tiers = fitted
    bad = tiers.copy()
    bad[[5, 7, 9]] = [99, 42, 99]
    with pytest.raises(KeyError) as want:
        oracle_upload_group_accuracy(result, bad)
    with pytest.raises(KeyError) as got:
        upload_group_accuracy(result, bad)
    assert got.value.args == want.value.args
    assert "tier 99" in str(got.value) and "ISP-A" in str(got.value)


def test_accuracy_report_span():
    catalog = city_catalog("A")
    downloads, uploads, tiers = synthetic_city_sample(catalog, seed=11)
    result = BSTModel(catalog).fit(downloads, uploads)
    with use_collector() as collector:
        accuracy_report(result, tiers)
    (sp,) = collector.find("bst.accuracy")
    assert sp.attributes["n"] == len(tiers)
