"""The Broadband Subscription Tier (BST) two-stage clustering pipeline.

Stage one clusters the *upload* speeds: the ISP sells only a handful of
distinct upload rates, local factors rarely bottleneck them, so a
measurement's upload speed pins down its *upload group* -- the set of
plans sharing that advertised upload.  Stage two clusters the *download*
speeds within each upload group and maps every download cluster to the
plan whose advertised download is nearest in log space (reproducing the
paper's Tier 1-3 cluster-to-plan associations of Section 5.1).

The fitted :class:`BSTResult` carries per-measurement tier assignments
plus everything the evaluation needs: per-stage cluster means, weights,
counts, and the KDE peak counts that seeded each stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.config import BSTConfig
from repro.core.parallel import parallel_map, resolve_jobs
from repro.market.plans import PlanCatalog, UploadGroup
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger, kv
from repro.obs.quality import get_quality
from repro.obs.trace import span
from repro.stats.gmm import GaussianMixture
from repro.stats.kde import GaussianKDE
from repro.stats.kmeans import KMeans1D
from repro.stats.peaks import count_density_peaks

log = get_logger("core.bst")

__all__ = ["BSTModel", "BSTResult", "UploadStageFit", "DownloadStageFit"]


@dataclass
class UploadStageFit:
    """Stage-one outcome: upload clusters and group assignments.

    ``cluster_means[i]`` is the fitted mean of the component matched to
    ``groups[i]`` (ascending by advertised upload speed) -- the Table 3
    "means for upload speed clusters that form near the offered upload
    speeds".  ``component_means``/``component_groups`` expose the full
    mixture, including any off-menu components (e.g. the ~1 Mbps cluster
    the paper observes in M-Lab data, Section 5.1): each component maps
    to the upload group whose advertised speed is log-nearest.

    ``component_variances``/``component_weights`` carry the full mixture
    parameters (empty for k-means fits, which need only the means) so a
    saved fit can assign *new* measurements later exactly as the fit-time
    ``predict`` did -- the predictor contract :mod:`repro.serve` builds
    on.  ``clustering`` records which estimator produced the labels.
    """

    groups: tuple[UploadGroup, ...]
    cluster_means: np.ndarray
    cluster_weights: np.ndarray
    cluster_counts: np.ndarray
    kde_peak_count: int
    converged: bool
    n_iter: int
    component_means: np.ndarray = field(default_factory=lambda: np.array([]))
    component_groups: tuple[int, ...] = ()
    component_variances: np.ndarray = field(
        default_factory=lambda: np.array([])
    )
    component_weights: np.ndarray = field(
        default_factory=lambda: np.array([])
    )
    clustering: str = "gmm"

    def mean_for_group(self, group_index: int) -> float:
        """Fitted cluster mean for one upload group.

        Raises ``ValueError`` when no mixture component mapped to the
        group (its ``cluster_means`` slot holds the ``nan`` prefill) --
        a silent ``nan`` here used to leak into Table 3-style reports.
        """
        mean = float(self.cluster_means[group_index])
        if math.isnan(mean):
            label = self.groups[group_index].tier_label
            raise ValueError(
                f"no fitted component mapped to upload group "
                f"{group_index} ({label}); its cluster mean is undefined"
            )
        return mean


@dataclass
class DownloadStageFit:
    """Stage-two outcome for one upload group.

    ``cluster_tiers[j]`` is the plan tier that download cluster ``j``
    (ascending by mean) was mapped to.  ``cluster_variances`` holds the
    full mixture variances (empty for k-means fits) so the stage can
    assign new downloads later (see :mod:`repro.serve`).
    """

    group_index: int
    cluster_means: np.ndarray
    cluster_weights: np.ndarray
    cluster_counts: np.ndarray
    cluster_tiers: tuple[int, ...]
    kde_peak_count: int
    n_components: int
    cluster_variances: np.ndarray = field(
        default_factory=lambda: np.array([])
    )
    clustering: str = "gmm"


@dataclass
class BSTResult:
    """Per-measurement subscription-tier assignments plus fit diagnostics."""

    catalog: PlanCatalog
    upload_stage: UploadStageFit
    download_stages: dict[int, DownloadStageFit]
    group_indices: np.ndarray  # per measurement, index into upload groups
    tiers: np.ndarray  # per measurement, assigned plan tier

    def __len__(self) -> int:
        return len(self.tiers)

    def plan_download_for_rows(self) -> np.ndarray:
        """Advertised download speed (Mbps) of each row's assigned plan."""
        lookup = {
            p.tier: p.download_mbps for p in self.catalog.plans
        }
        return map_rows(self.tiers, lookup.__getitem__, float)

    def plan_upload_for_rows(self) -> np.ndarray:
        """Advertised upload speed (Mbps) of each row's assigned plan."""
        lookup = {p.tier: p.upload_mbps for p in self.catalog.plans}
        return map_rows(self.tiers, lookup.__getitem__, float)

    def group_label_for_rows(self) -> list[str]:
        """Paper-style span label (e.g. "Tier 1-3") of each row's group."""
        labels = [g.tier_label for g in self.upload_stage.groups]
        rows = map_rows(self.group_indices, labels.__getitem__, object)
        return rows.tolist()


class BSTModel:
    """Fits the BST methodology for one ISP catalog.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.market.isps import city_catalog
    >>> rng = np.random.default_rng(0)
    >>> ups = np.concatenate([rng.normal(5.5, .4, 400), rng.normal(40, 2, 400)])
    >>> downs = np.concatenate([rng.normal(110, 9, 400), rng.normal(900, 60, 400)])
    >>> model = BSTModel(city_catalog("A"))
    >>> result = model.fit(downs, ups)
    >>> sorted(set(result.tiers.tolist())) == [2, 6]
    True
    """

    def __init__(self, catalog: PlanCatalog, config: BSTConfig | None = None):
        self.catalog = catalog
        self.config = config or BSTConfig()

    def describe(self) -> str:
        """Text rendering of the methodology (the paper's Figure 3)."""
        groups = self.catalog.upload_groups()
        group_lines = "\n".join(
            f"   |  {g.tier_label}: upload {g.upload_mbps:g} Mbps -> "
            f"downloads {', '.join(f'{d:g}' for d in g.download_speeds)}"
            for g in groups
        )
        clusterer = self.config.clustering.upper()
        return (
            f"BST methodology for {self.catalog.isp_name} "
            f"({self.catalog.num_plans} plans)\n"
            "1. Plan discovery (query tool): the city-wide menu\n"
            f"{group_lines}\n"
            "2. Stage one -- upload speeds:\n"
            "   KDE (log-space) confirms one density peak per offered "
            "upload;\n"
            f"   {clusterer}-EM (means seeded at the offered uploads"
            f"{', MAP prior' if self.config.upload_mean_prior else ''}) "
            "assigns each test to an upload group.\n"
            "3. Stage two -- download speeds, within each group:\n"
            "   KDE counts the download clusters (WiFi can create more "
            f"than the menu, capped at {self.config.max_download_clusters});\n"
            f"   {clusterer}-EM fits them; each cluster maps to the "
            "log-nearest advertised download.\n"
            "4. Output: a subscription tier per <download, upload> tuple."
        )

    # ------------------------------------------------------------------
    # Stage one: upload clustering
    # ------------------------------------------------------------------
    def fit_upload_stage(
        self, uploads: np.ndarray
    ) -> tuple[UploadStageFit, np.ndarray]:
        """Cluster uploads into the catalog's upload groups.

        Crowdsourced uploads carry off-menu mass (tests whose upload was
        WiFi-capped well below every advertised rate -- the paper's
        ~1 Mbps M-Lab cluster).  Fitting only one component per offered
        speed lets that smear drag cluster means off their peaks, so
        extra components are added for it and every component is then
        mapped to the log-nearest offered upload speed.

        ``uploads`` must be finite, like :meth:`fit` requires: the
        returned group indices align one-to-one with the input rows, so
        silently dropping NaNs (the old behaviour) would misalign them
        for the caller.  Filter non-finite rows first.

        Returns the fit plus the per-measurement group index.
        """
        uploads = _require_finite(uploads, "uploads")
        with span("bst.fit_upload", n=int(uploads.size)) as sp:
            fit, group_indices = self._fit_upload_stage(uploads)
            sp.set(
                kde_peaks=fit.kde_peak_count,
                k=int(len(fit.component_means)),
                n_iter=fit.n_iter,
                converged=fit.converged,
            )
        obs_metrics.counter("bst.upload_fits").inc()
        quality = get_quality()
        if quality.enabled:
            # An upload group no mixture component mapped to has no
            # defined cluster mean -- Table 3-style reports render n/a
            # and downstream medians silently lose that plan.  Track how
            # often fits leave groups unmapped.
            n_unmapped = int(np.isnan(fit.cluster_means).sum())
            quality.observe_group_mapping(n_unmapped, len(fit.groups))
        log.debug(
            "upload stage fitted",
            extra=kv(
                n=int(uploads.size),
                kde_peaks=fit.kde_peak_count,
                n_iter=fit.n_iter,
                converged=fit.converged,
            ),
        )
        return fit, group_indices

    def _fit_upload_stage(
        self, uploads: np.ndarray
    ) -> tuple[UploadStageFit, np.ndarray]:
        groups = self.catalog.upload_groups()
        k_groups = len(groups)
        if uploads.size < k_groups:
            raise ValueError(
                f"need at least {k_groups} upload measurements, "
                f"got {uploads.size}"
            )
        peak_count = count_density_peaks(
            uploads,
            num_grid=self.config.kde_grid_points,
            min_prominence_frac=self.config.min_prominence_frac,
            min_height_frac=self.config.min_height_frac,
            log_space=self.config.kde_log_space,
            kde_method=self.config.kde_method,
        )
        offered = np.asarray([g.upload_mbps for g in groups], dtype=float)

        # Off-menu mass: uploads whose log distance to every offered
        # speed exceeds ~35%.
        positive = np.maximum(uploads, 1e-6)
        log_dist = np.min(
            np.abs(np.log(positive)[:, None] - np.log(offered)[None, :]),
            axis=1,
        )
        outliers = uploads[log_dist > np.log(1.35)]
        outlier_frac = outliers.size / uploads.size
        if outlier_frac < 0.02:
            n_extra = 0
        elif outlier_frac < 0.10:
            n_extra = 1
        elif outlier_frac < 0.25:
            n_extra = 2
        else:
            n_extra = 3
        n_extra = min(n_extra, max(0, uploads.size - k_groups))

        if self.config.seed_means_from_catalog:
            extra_means = (
                np.quantile(
                    outliers,
                    [(i + 1) / (n_extra + 1) for i in range(n_extra)],
                )
                if n_extra
                else np.array([])
            )
            means_init = np.concatenate([offered, extra_means])
        else:
            means_init = None
        k = k_groups + n_extra
        labels, means, weights, variances, converged, n_iter = self._cluster(
            uploads,
            k,
            means_init,
            mean_prior=self.config.upload_mean_prior,
        )

        # Map each fitted component to its log-nearest offered upload.
        with span("bst.assign", stage="upload", n=int(uploads.size)):
            component_groups = tuple(
                int(np.argmin(np.abs(np.log(max(m, 1e-6)) - np.log(offered))))
                for m in means
            )
            group_indices = gather_labels(component_groups, labels)

            # Per-group reported mean: the component nearest the offered
            # speed among those mapped to the group (Table 3's cluster
            # means).
            cluster_means = np.full(k_groups, np.nan)
            cluster_weights = np.zeros(k_groups)
            for gi in range(k_groups):
                members = [
                    ci for ci, g in enumerate(component_groups) if g == gi
                ]
                if not members:
                    continue
                nearest = min(
                    members, key=lambda ci: abs(means[ci] - offered[gi])
                )
                cluster_means[gi] = means[nearest]
                cluster_weights[gi] = sum(weights[ci] for ci in members)
            counts = np.bincount(group_indices, minlength=k_groups)
        fit = UploadStageFit(
            groups=groups,
            cluster_means=cluster_means,
            cluster_weights=cluster_weights,
            cluster_counts=counts,
            kde_peak_count=peak_count,
            converged=converged,
            n_iter=n_iter,
            component_means=means,
            component_groups=component_groups,
            component_variances=variances,
            component_weights=weights,
            clustering=self.config.clustering,
        )
        return fit, group_indices

    # ------------------------------------------------------------------
    # Stage two: download clustering within one upload group
    # ------------------------------------------------------------------
    def fit_download_stage(
        self,
        downloads: np.ndarray,
        group: UploadGroup,
        group_index: int,
    ) -> tuple[DownloadStageFit, np.ndarray]:
        """Cluster one group's downloads and map clusters to plan tiers.

        ``downloads`` must be finite (the returned tiers align one-to-one
        with the input rows; see :meth:`fit_upload_stage`).

        Returns the fit plus the per-measurement tier assignment.
        """
        downloads = _require_finite(downloads, "downloads")
        plans = group.plans
        if downloads.size == 0:
            raise ValueError("empty download sample for a populated group")
        with span(
            "bst.fit_download",
            group=group.tier_label,
            n=int(downloads.size),
        ) as sp:
            peak_count = count_density_peaks(
                downloads,
                num_grid=self.config.kde_grid_points,
                min_prominence_frac=self.config.min_prominence_frac,
                min_height_frac=self.config.min_height_frac,
                log_space=self.config.kde_log_space,
                kde_method=self.config.kde_method,
            )
            # At least one cluster per offered plan; WiFi degradation can
            # create more (the paper caps the extra structure at 10).
            k = int(
                np.clip(
                    peak_count, len(plans), self.config.max_download_clusters
                )
            )
            k = min(k, downloads.size)
            labels, means, weights, variances, _, _ = self._cluster(
                downloads, k, None
            )
            with span("bst.assign", stage="download", n=int(downloads.size)):
                counts = np.bincount(labels, minlength=k)
                cluster_tiers = tuple(
                    _nearest_plan_tier(m, plans) for m in means
                )
                tiers = gather_labels(cluster_tiers, labels)
            sp.set(kde_peaks=peak_count, k=k)
        obs_metrics.counter("bst.download_fits").inc()
        fit = DownloadStageFit(
            group_index=group_index,
            cluster_means=means,
            cluster_weights=weights,
            cluster_counts=counts,
            cluster_tiers=cluster_tiers,
            kde_peak_count=peak_count,
            n_components=k,
            cluster_variances=variances,
            clustering=self.config.clustering,
        )
        return fit, tiers

    # ------------------------------------------------------------------
    def fit(self, downloads, uploads, jobs: int | None = None) -> BSTResult:
        """Run both stages over paired download/upload measurements.

        ``jobs`` overrides ``config.jobs`` for this call: the independent
        per-upload-group download fits fan out over a process pool when
        the effective worker count exceeds 1.  Results are identical to
        the serial path (every group fit is deterministic given the
        config seed, and groups are gathered in index order); only the
        in-worker spans/metrics stay unrecorded (see
        :mod:`repro.core.parallel`).
        """
        downloads = np.asarray(downloads, dtype=float)
        uploads = np.asarray(uploads, dtype=float)
        if downloads.shape != uploads.shape:
            raise ValueError("downloads and uploads must pair one-to-one")
        finite = np.isfinite(downloads) & np.isfinite(uploads)
        if not finite.all():
            raise ValueError(
                "BST input must be finite; filter NaNs before fitting"
            )
        effective_jobs = resolve_jobs(
            self.config.jobs if jobs is None else jobs
        )
        with span(
            "bst.fit",
            isp=self.catalog.isp_name,
            n=int(downloads.size),
            jobs=effective_jobs,
        ):
            upload_fit, group_indices = self.fit_upload_stage(uploads)
            tiers = np.zeros(len(downloads), dtype=np.int64)
            download_stages: dict[int, DownloadStageFit] = {}
            populated = [
                (gi, group, np.flatnonzero(group_indices == gi))
                for gi, group in enumerate(upload_fit.groups)
            ]
            populated = [
                (gi, group, rows)
                for gi, group, rows in populated
                if rows.size
            ]
            stage_results = parallel_map(
                _download_stage_task,
                [
                    (self, downloads[rows], group, gi)
                    for gi, group, rows in populated
                ],
                effective_jobs,
                span_name="bst.fit_downloads",
            )
            for (gi, _, rows), (stage, member_tiers) in zip(
                populated, stage_results
            ):
                download_stages[gi] = stage
                tiers[rows] = member_tiers
        obs_metrics.counter("bst.measurements_assigned").inc(
            int(downloads.size)
        )
        quality = get_quality()
        if quality.enabled:
            quality.observe_assignments(tiers)
        return BSTResult(
            catalog=self.catalog,
            upload_stage=upload_fit,
            download_stages=download_stages,
            group_indices=group_indices,
            tiers=tiers,
        )

    # ------------------------------------------------------------------
    def _cluster(
        self,
        values: np.ndarray,
        k: int,
        means_init: np.ndarray | None,
        mean_prior: float = 0.0,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool, int]:
        """Run the configured clusterer.

        Returns labels/means/weights/variances (variances are empty for
        k-means, whose predictor needs only the centers).
        """
        if self.config.clustering == "gmm":
            gmm = GaussianMixture(
                k,
                max_iter=self.config.gmm_max_iter,
                tol=self.config.gmm_tol,
                seed=self.config.seed,
                means_init=means_init,
                mean_prior_strength=(
                    mean_prior if means_init is not None else 0.0
                ),
            )
            fit = gmm.fit(values)
            labels = gmm.predict(values)
            return (
                labels,
                fit.means,
                fit.weights,
                fit.variances,
                fit.converged,
                fit.n_iter,
            )
        kmeans = KMeans1D(k, means_init=means_init)
        fit = kmeans.fit(values)
        labels = kmeans.predict(values)
        weights = np.bincount(labels, minlength=k) / values.size
        return (
            labels,
            fit.centers,
            weights,
            np.array([]),
            fit.converged,
            fit.n_iter,
        )


def _download_stage_task(
    args: tuple["BSTModel", np.ndarray, UploadGroup, int],
) -> tuple[DownloadStageFit, np.ndarray]:
    """Picklable per-group worker for the parallel download-stage fan-out."""
    model, downloads, group, group_index = args
    return model.fit_download_stage(downloads, group, group_index)


def _require_finite(values, name: str) -> np.ndarray:
    """Validate that a stage input is wholly finite (no silent drops).

    Stage outputs (group indices, tiers) align one-to-one with their
    input rows; dropping non-finite values here would silently misalign
    them for standalone callers.
    """
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(values.size - finite.sum())
        raise ValueError(
            f"{name} must be finite ({bad} of {values.size} values are "
            "NaN/inf); filter non-finite rows before fitting"
        )
    return values


def gather_labels(table, labels: np.ndarray) -> np.ndarray:
    """``table[label]`` for each row's cluster label, as one int64 gather."""
    return np.asarray(table, dtype=np.int64)[labels]


def map_rows(values, lookup: Callable[[int], Any], dtype) -> np.ndarray:
    """``[lookup(int(v)) for v in values]`` as an array, one call per value.

    ``lookup`` runs once per distinct value, in the order each first
    occurs, so an unknown value raises the same error a row-by-row loop
    would raise first; the rows are then one gather.
    """
    values = np.asarray(values)
    distinct, first, inverse = np.unique(
        values, return_index=True, return_inverse=True
    )
    mapped = np.empty(distinct.size, dtype=dtype)
    for j in np.argsort(first):
        mapped[j] = lookup(int(distinct[j]))
    return mapped[inverse.reshape(values.shape)]


def _nearest_plan_tier(cluster_mean: float, plans) -> int:
    """Map a download-cluster mean to the log-nearest plan's tier.

    Log distance reproduces the paper's associations: in City-A Tier 1-3,
    clusters at 8.04 and 27.14 Mbps map to the 25 Mbps plan, 57.85 and
    115.65 to the 100 Mbps plan, and 214.01 to the 200 Mbps plan.
    """
    if cluster_mean <= 0:
        return plans[0].tier
    distances = [
        abs(np.log(cluster_mean) - np.log(p.download_mbps)) for p in plans
    ]
    return plans[int(np.argmin(distances))].tier
