"""Peak detection on KDE density curves.

Stage one of the BST methodology checks "whether the number of
upload/download speeds offered by an ISP matches the number of clusters
formed in the distribution of crowdsourced measurements" (Section 4.2).
This module finds local maxima of a density curve, with prominence and
relative-height filters so that ripples in the KDE tail are not counted as
subscription tiers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.stats.kde import GaussianKDE

__all__ = ["DensityPeak", "find_density_peaks", "count_density_peaks"]


@dataclass(frozen=True)
class DensityPeak:
    """A significant local maximum of a density curve."""

    location: float
    height: float
    prominence: float


def _local_maxima(density: np.ndarray) -> np.ndarray:
    """Indices of strict-or-plateau local maxima of a 1-D curve.

    Boundary maxima count: a curve that rises into the last index (or
    falls away from the first), and a plateau that touches either end,
    report a maximum there -- an edge-hugging cluster whose mode lands on
    the grid boundary must not vanish.  A fully constant curve has none.
    A plateau reports its middle index (the lower one of two).
    """
    n = density.size
    if n < 3:
        return np.array([], dtype=int)
    # Runs of equal values: plateau r spans [starts[r], ends[r]].  NaN
    # equals nothing, so each NaN is a run of its own.
    starts = np.flatnonzero(
        np.concatenate(([True], density[1:] != density[:-1]))
    )
    ends = np.append(starts[1:] - 1, n - 1)
    rises_left = np.ones(starts.size, dtype=bool)
    rises_left[1:] = density[starts[1:] - 1] < density[starts[1:]]
    falls_right = np.ones(starts.size, dtype=bool)
    falls_right[:-1] = density[ends[:-1] + 1] < density[ends[:-1]]
    keep = rises_left & falls_right & ~((starts == 0) & (ends == n - 1))
    return ((starts[keep] + ends[keep]) // 2).astype(int)


def _side_min(side: np.ndarray, height: float) -> float:
    """Lowest point of ``side`` (ordered outward from the peak, the peak
    itself first) before the first point higher than the peak.

    With no higher point the whole side counts, NaN included; otherwise
    NaNs are passed over, as a running ``min`` passes over them.
    """
    higher = np.flatnonzero(side > height)
    if higher.size == 0:
        return float(side.min())
    return float(np.fmin.reduce(side[: higher[0]]))


def _prominence(density: np.ndarray, index: int) -> float:
    """Topographic prominence of the peak at ``index``.

    The prominence is the peak height minus the higher of the two lowest
    saddle points separating it from higher terrain on each side (or from
    the curve boundary when no higher peak exists on a side).  A peak
    sitting on the grid boundary has no terrain on that side at all, so
    only the interior side constrains its prominence.
    """
    height = density[index]
    side_mins: list[float] = []
    if index > 0:
        side_mins.append(_side_min(density[index::-1], height))
    if index < density.size - 1:
        side_mins.append(_side_min(density[index:], height))
    if not side_mins:
        return float(height)
    return float(height - max(side_mins))


def find_density_peaks(
    grid: np.ndarray,
    density: np.ndarray,
    min_prominence_frac: float = 0.05,
    min_height_frac: float = 0.02,
) -> list[DensityPeak]:
    """Significant peaks of a sampled density curve.

    Parameters
    ----------
    grid, density:
        The sampled curve (as returned by :meth:`GaussianKDE.grid`).
    min_prominence_frac:
        Minimum topographic prominence, as a fraction of the global maximum
        density, for a local maximum to count as a peak.
    min_height_frac:
        Minimum absolute height as a fraction of the global maximum.

    Returns
    -------
    list[DensityPeak]
        Peaks sorted by location (ascending).
    """
    grid = np.asarray(grid, dtype=float)
    density = np.asarray(density, dtype=float)
    if grid.shape != density.shape:
        raise ValueError("grid and density must have the same shape")
    if density.size == 0:
        return []
    top = float(density.max())
    if top <= 0:
        return []
    peaks = []
    for index in _local_maxima(density):
        height = float(density[index])
        if height < min_height_frac * top:
            continue
        prominence = _prominence(density, index)
        if prominence < min_prominence_frac * top:
            continue
        peaks.append(
            DensityPeak(
                location=float(grid[index]),
                height=height,
                prominence=prominence,
            )
        )
    return peaks


def count_density_peaks(
    values,
    num_grid: int = 512,
    bandwidth: float | str | None = None,
    min_prominence_frac: float = 0.05,
    min_height_frac: float = 0.02,
    log_space: bool = False,
    kde_method: str = "auto",
) -> int:
    """KDE a sample and count its significant density peaks.

    This is the cluster-count probe used by both BST stages.  A sample whose
    KDE is monotone (single mode) reports 1.

    ``log_space`` estimates the density of ``log(values)`` instead.  Speed
    distributions span decades (a 5 Mbps and a 35 Mbps upload cluster, a
    25 Mbps and a 1200 Mbps download cluster), so a single linear-scale
    bandwidth over-smooths the narrow low-speed clusters; the log transform
    gives every decade equal resolution.  Requires positive values (zeros
    and negatives are dropped along with NaNs).

    ``kde_method`` is forwarded to :meth:`GaussianKDE.grid`: ``"auto"``
    (the default) engages the linear-binning fast path for large samples,
    ``"exact"``/``"binned"`` force one path (see docs/PERFORMANCE.md).
    """
    values = np.asarray(values, dtype=float)
    if log_space:
        values = values[np.isfinite(values) & (values > 0)]
        if values.size == 0:
            raise ValueError("log-space peak counting needs positive values")
        values = np.log(values)
    with span(
        "kde.count_peaks", n=int(values.size), log_space=log_space
    ) as sp:
        kde = GaussianKDE(values, bandwidth=bandwidth)
        grid, density = kde.grid(num=num_grid, method=kde_method)
        peaks = find_density_peaks(
            grid,
            density,
            min_prominence_frac=min_prominence_frac,
            min_height_frac=min_height_frac,
        )
        count = max(1, len(peaks))
        sp.set(peaks=count)
    obs_metrics.histogram("kde.peaks_found").observe(count)
    return count
