"""Accuracy evaluation of BST assignments against ground truth.

The paper validates BST on the MBA dataset, where the subscribed plan is
known: ``accuracy = #correctly associated measurements / #total
measurements`` (Section 4.3).  Two granularities are reported: upload
*group* accuracy (Table 2, >96% in every state) and full plan-tier
accuracy within each group (100% for the State-A clusters studied).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bst import BSTResult, map_rows
from repro.obs.trace import span

__all__ = [
    "upload_group_accuracy",
    "tier_accuracy",
    "accuracy_report",
    "AccuracyReport",
]


def upload_group_accuracy(result: BSTResult, true_tiers) -> float:
    """Fraction of measurements assigned to the correct upload group."""
    true_tiers = np.asarray(true_tiers)
    if len(true_tiers) != len(result):
        raise ValueError("ground truth length mismatch")
    if len(result) == 0:
        raise ValueError("empty result has no accuracy")
    true_groups = map_rows(
        true_tiers, result.catalog.upload_group_index, np.int64
    )
    return float(np.mean(result.group_indices == true_groups))


def tier_accuracy(result: BSTResult, true_tiers) -> float:
    """Fraction of measurements assigned to the correct plan tier."""
    true_tiers = np.asarray(true_tiers, dtype=np.int64)
    if len(true_tiers) != len(result):
        raise ValueError("ground truth length mismatch")
    if len(result) == 0:
        raise ValueError("empty result has no accuracy")
    return float(np.mean(result.tiers == true_tiers))


@dataclass(frozen=True)
class AccuracyReport:
    """Accuracy summary for one BST fit against ground truth."""

    n_measurements: int
    upload_group_accuracy: float
    tier_accuracy: float
    per_group_tier_accuracy: dict[str, float]
    confusion: dict[tuple[int, int], int]  # (true_tier, assigned_tier) -> n


def accuracy_report(result: BSTResult, true_tiers) -> AccuracyReport:
    """Full evaluation: overall, per-upload-group, and confusion counts."""
    true_tiers = np.asarray(true_tiers, dtype=np.int64)
    if len(true_tiers) != len(result):
        raise ValueError("ground truth length mismatch")
    if len(result) == 0:
        raise ValueError("empty result has no accuracy")
    with span("bst.accuracy", n=len(result)):
        groups = result.upload_stage.groups
        per_group: dict[str, float] = {}
        for gi, group in enumerate(groups):
            rows = np.flatnonzero(result.group_indices == gi)
            if rows.size == 0:
                continue
            per_group[group.tier_label] = float(
                np.mean(result.tiers[rows] == true_tiers[rows])
            )
        return AccuracyReport(
            n_measurements=len(result),
            upload_group_accuracy=upload_group_accuracy(result, true_tiers),
            tier_accuracy=tier_accuracy(result, true_tiers),
            per_group_tier_accuracy=per_group,
            confusion=_confusion(true_tiers, result.tiers),
        )


def _confusion(true_tiers: np.ndarray, tiers) -> dict[tuple[int, int], int]:
    """(true, assigned) pair counts, keyed in first-occurrence order."""
    got = np.asarray(tiers, dtype=np.int64)
    _, true_codes = np.unique(true_tiers, return_inverse=True)
    got_values, got_codes = np.unique(got, return_inverse=True)
    # One code per (true, assigned) pair; it stays below n**2.
    pair_codes = true_codes.ravel() * got_values.size + got_codes.ravel()
    _, first, counts = np.unique(
        pair_codes, return_index=True, return_counts=True
    )
    order = np.argsort(first)
    rows = first[order]
    return dict(
        zip(
            zip(true_tiers[rows].tolist(), got[rows].tolist()),
            counts[order].tolist(),
        )
    )
