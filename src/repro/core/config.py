"""Configuration of the BST methodology."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BSTConfig"]


@dataclass(frozen=True)
class BSTConfig:
    """Knobs of the two-stage BST clustering pipeline.

    Attributes
    ----------
    seed_means_from_catalog:
        Initialise the upload-stage GMM means at the ISP's advertised
        upload speeds (the paper "possess[es] the information about the
        mapping between different offered download and upload speeds",
        Section 4.2).  Turning this off is the fully blind variant.
    max_download_clusters:
        Cap on stage-two components; the paper associates measurements
        with (up to) 10 download clusters per upload group (Section 5.1).
    min_prominence_frac / min_height_frac:
        KDE peak-significance thresholds (see :mod:`repro.stats.peaks`).
    kde_grid_points:
        Grid resolution for the KDE stage.
    kde_log_space:
        Count KDE peaks on log-transformed speeds (speeds span decades;
        a linear bandwidth over-smooths the narrow low-speed clusters).
    kde_method:
        KDE grid evaluation strategy for the peak-count probes:
        ``"auto"`` (default) engages the linear-binning fast path at
        large n, ``"exact"``/``"binned"`` force one path (see
        docs/PERFORMANCE.md).
    gmm_max_iter / gmm_tol:
        EM stopping parameters.
    upload_mean_prior:
        MAP-EM prior strength anchoring stage-one components at the
        advertised upload speeds (see
        :class:`~repro.stats.gmm.GaussianMixture`).  Only applies when
        ``seed_means_from_catalog`` is on.
    clustering:
        "gmm" (the paper's choice) or "kmeans" (the ablation baseline).
    seed:
        Seed for any randomised initialisation.
    jobs:
        Worker processes for the independent per-upload-group download
        fits in :meth:`BSTModel.fit`: ``1`` (default) is serial, ``N > 1``
        a process pool of ``N``, ``0`` all CPUs.  Parallel runs produce
        results identical to serial ones (see
        :mod:`repro.core.parallel` and docs/PERFORMANCE.md).
    """

    seed_means_from_catalog: bool = True
    max_download_clusters: int = 10
    min_prominence_frac: float = 0.05
    min_height_frac: float = 0.02
    kde_grid_points: int = 512
    kde_log_space: bool = True
    kde_method: str = "auto"
    gmm_max_iter: int = 1000
    gmm_tol: float = 1e-6
    upload_mean_prior: float = 0.2
    clustering: str = "gmm"
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if self.max_download_clusters < 1:
            raise ValueError("max_download_clusters must be >= 1")
        if self.clustering not in ("gmm", "kmeans"):
            raise ValueError(
                f"clustering must be 'gmm' or 'kmeans', got {self.clustering!r}"
            )
        if self.kde_grid_points < 16:
            raise ValueError("kde_grid_points must be >= 16")
        if self.kde_method not in ("auto", "exact", "binned"):
            raise ValueError(
                "kde_method must be 'auto', 'exact', or 'binned', "
                f"got {self.kde_method!r}"
            )
        if self.upload_mean_prior < 0:
            raise ValueError("upload_mean_prior cannot be negative")
