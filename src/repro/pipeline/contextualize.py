"""Augment measurement tables with BST subscription-tier context.

This is the paper's Section 5 step: run the BST methodology over a city's
measurements and attach, per row, the assigned tier, its upload-group
label, the plan's advertised speeds, and the *normalised* download/upload
speeds (measured / advertised) that every Section 6 analysis consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bst import BSTModel, BSTResult
from repro.core.config import BSTConfig
from repro.frame import ColumnTable
from repro.market.plans import PlanCatalog
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger, kv
from repro.obs.quality import get_quality
from repro.obs.trace import span
from repro.stats.descriptive import normalized_values

log = get_logger("pipeline.contextualize")

__all__ = ["contextualize", "ContextualizedDataset"]

CONTEXT_COLUMNS = (
    "bst_tier",
    "bst_group",
    "plan_download_mbps",
    "plan_upload_mbps",
    "normalized_download",
    "normalized_upload",
)


@dataclass
class ContextualizedDataset:
    """A measurement table augmented with subscription-tier context.

    Attributes
    ----------
    table:
        The input table plus the :data:`CONTEXT_COLUMNS`.
    bst_result:
        The underlying BST fit (cluster means, assignments, diagnostics).
    catalog:
        The plan catalog used.
    """

    table: ColumnTable
    bst_result: BSTResult
    catalog: PlanCatalog

    def __len__(self) -> int:
        return len(self.table)

    def rows_for_group(self, group_label: str) -> ColumnTable:
        """All rows whose upload group has ``group_label`` (e.g. "Tier 4")."""
        return self.table.filter(self.table["bst_group"] == group_label)

    def rows_for_tier(self, tier: int) -> ColumnTable:
        """All rows assigned to plan ``tier``."""
        return self.table.filter(self.table["bst_tier"] == tier)

    @property
    def group_labels(self) -> list[str]:
        """Upload-group labels, ascending by upload speed."""
        return [g.tier_label for g in self.bst_result.upload_stage.groups]


def contextualize(
    table: ColumnTable,
    catalog: PlanCatalog,
    config: BSTConfig | None = None,
    download_column: str = "download_mbps",
    upload_column: str = "upload_mbps",
    jobs: int | None = None,
    bst_result: BSTResult | None = None,
    registry=None,
    city: str | None = None,
) -> ContextualizedDataset:
    """Fit BST over ``table`` and attach subscription-tier context columns.

    Rows with non-finite speeds are dropped before fitting (crowdsourced
    data is noisy; a test with a missing direction cannot be assigned).

    ``jobs`` fans the per-upload-group download fits out over a process
    pool (``1`` serial, ``0`` all CPUs); parallel output is identical to
    serial (see docs/PERFORMANCE.md).

    Two ways to skip the fit (see docs/SERVING.md):

    - ``bst_result`` -- apply a pre-fitted model: tiers come from the
      frozen fit's predictors (:class:`repro.serve.engine.TierAssigner`),
      byte-identical to fit-time labels on the training sample.  The
      result's catalog must equal ``catalog``.
    - ``registry`` -- a :class:`repro.serve.registry.ModelRegistry`:
      look up the model for ``(city, catalog, config)``; on a hit,
      apply it; on a miss, fit and register the new model.  ``city``
      defaults to the catalog's ISP name.
    """
    downloads = np.asarray(table[download_column], dtype=float)
    uploads = np.asarray(table[upload_column], dtype=float)
    finite = np.isfinite(downloads) & np.isfinite(uploads)
    quality = get_quality()
    if quality.enabled:
        # Observe the *raw* columns (before the finite filter) so NaN
        # bursts and negative speeds in the input are what gets counted.
        quality.field("contextualize.download_mbps").observe_array(downloads)
        quality.field("contextualize.upload_mbps").observe_array(uploads)
        quality.observe_dropped_rows(
            int(len(table) - finite.sum()), int(len(table))
        )
    if not finite.any():
        raise ValueError("no finite (download, upload) pairs to contextualize")
    if bst_result is not None and registry is not None:
        raise ValueError("pass bst_result or registry, not both")
    if bst_result is not None and bst_result.catalog != catalog:
        raise ValueError(
            "pre-fitted BST result was fitted against a different plan "
            f"catalog ({bst_result.catalog.isp_name!r}, not "
            f"{catalog.isp_name!r})"
        )
    with span(
        "contextualize",
        isp=catalog.isp_name,
        n_rows=int(len(table)),
        n_dropped=int(len(table) - finite.sum()),
    ):
        clean = table.filter(finite)
        downloads = downloads[finite]
        uploads = uploads[finite]

        key = None
        if registry is not None:
            key = registry.key_for(city or catalog.isp_name, catalog, config)
            bst_result = _registered(registry, key)
        if bst_result is not None:
            # Reuse path: predict under the frozen fit, no refit.
            from repro.serve.engine import TierAssigner

            with span("contextualize.apply", n=int(downloads.size)):
                result = TierAssigner(bst_result).to_result(
                    downloads, uploads
                )
            if quality.enabled:
                quality.observe_assignments(result.tiers)
        else:
            model = BSTModel(catalog, config)
            result = model.fit(downloads, uploads, jobs=jobs)
            if key is not None:  # a registry miss: register the fit
                registry.register(
                    key, result, downloads=downloads, uploads=uploads
                )

        with span("contextualize.augment", n=int(len(clean))):
            plan_down = result.plan_download_for_rows()
            plan_up = result.plan_upload_for_rows()
            augmented = (
                clean.with_column("bst_tier", result.tiers)
                .with_column(
                    "bst_group",
                    np.asarray(result.group_label_for_rows(), dtype=object),
                )
                .with_column("plan_download_mbps", plan_down)
                .with_column("plan_upload_mbps", plan_up)
                .with_column(
                    "normalized_download",
                    normalized_values(downloads, plan_down),
                )
                .with_column(
                    "normalized_upload", normalized_values(uploads, plan_up)
                )
            )
    obs_metrics.counter("contextualize.rows").inc(int(len(augmented)))
    obs_metrics.counter("contextualize.rows_dropped").inc(
        int(len(table) - len(augmented))
    )
    log.info(
        "contextualized measurement table",
        extra=kv(
            isp=catalog.isp_name,
            rows=int(len(augmented)),
            dropped=int(len(table) - len(augmented)),
        ),
    )
    return ContextualizedDataset(
        table=augmented, bst_result=result, catalog=catalog
    )


def _registered(registry, key) -> BSTResult | None:
    """The model registered under ``key``, or None (a miss)."""
    try:
        result, _ = registry.load(key)
    except KeyError:
        obs_metrics.counter("contextualize.registry_misses").inc()
        return None
    obs_metrics.counter("contextualize.registry_hits").inc()
    return result
