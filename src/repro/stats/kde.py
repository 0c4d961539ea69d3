"""Gaussian kernel density estimation.

The paper's BST methodology (Section 4.2) starts each clustering stage by
estimating the density of the recorded upload (or download) speeds with a
Gaussian-kernel KDE and counting the significant peaks; that count seeds the
number of mixture components.  This module implements the estimator from
scratch on numpy with the two standard bandwidth rules of thumb.

Two evaluation paths are available for grid evaluation:

- the **exact** path sums one Gaussian kernel per sample at every grid
  point -- ``O(n * num)`` work;
- the **binned** fast path linearly bins the sample onto the evaluation
  grid and convolves the bin weights with a sampled Gaussian kernel
  (direct or FFT convolution, whichever is cheaper) -- ``O(n + num log
  num)`` work.  :meth:`GaussianKDE.grid` switches to it automatically at
  ``FAST_PATH_MIN_SAMPLES`` samples whenever the grid resolves the
  bandwidth (spacing <= ``FAST_PATH_MAX_SPACING`` bandwidths); otherwise
  it falls back to the exact path.  The binned density's error grows as
  ``(spacing / bandwidth)**2``: for a point-mass-like cluster, the worst
  case is 0.77% of the peak density at the 0.25-bandwidth limit (2.9% at
  0.5 bandwidths); see docs/PERFORMANCE.md for the measured bounds.
"""

from __future__ import annotations

import math

import numpy as np

from repro.obs.trace import span

__all__ = [
    "GaussianKDE",
    "silverman_bandwidth",
    "scott_bandwidth",
    "FAST_PATH_MIN_SAMPLES",
    "FAST_PATH_MAX_SPACING",
    "FAST_PATH_KERNEL_CUTOFF",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)

# Grid-evaluation fast path: engage automatically at this many samples ...
FAST_PATH_MIN_SAMPLES = 10_000
# ... but only when the grid spacing is at most this many bandwidths
# (binning error grows as the square of spacing / bandwidth; at 0.25 the
# worst case over point-mass offsets is 0.77% of the peak, under the 1%
# the fast path promises).
FAST_PATH_MAX_SPACING = 0.25
# Gaussian kernels are truncated this many bandwidths out (exp(-32) ~
# 1e-14, far below the binning error).
FAST_PATH_KERNEL_CUTOFF = 8.0

_GRID_METHODS = ("auto", "exact", "binned")

# numpy has no vectorised erf and scipy is not a dependency; math.erf is
# the correctly-rounded C99 double-precision erf, lifted element-wise.
_erf = np.frompyfunc(math.erf, 1, 1)


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF, vectorised via ``math.erf``."""
    return 0.5 * (1.0 + _erf(np.asarray(z, dtype=float) / _SQRT_2).astype(float))


def _spread(values: np.ndarray) -> float:
    """Robust scale estimate: min(std, IQR/1.349), the usual KDE choice."""
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    q75, q25 = np.percentile(values, [75.0, 25.0])
    iqr = float(q75 - q25)
    candidates = [s for s in (std, iqr / 1.349) if s > 0.0]
    return min(candidates) if candidates else 0.0


def silverman_bandwidth(values: np.ndarray) -> float:
    """Silverman's rule of thumb: ``0.9 * A * n**-0.2``.

    ``A`` is the robust spread.  Raises ``ValueError`` for empty input;
    degenerate (zero-spread) samples get a tiny positive bandwidth so the
    KDE stays well defined.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("bandwidth of an empty sample is undefined")
    spread = _spread(values)
    if spread == 0.0:
        return max(1e-6, abs(float(values[0])) * 1e-6 + 1e-9)
    return 0.9 * spread * values.size ** (-0.2)


def scott_bandwidth(values: np.ndarray) -> float:
    """Scott's rule of thumb: ``1.06 * A * n**-0.2``."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("bandwidth of an empty sample is undefined")
    spread = _spread(values)
    if spread == 0.0:
        return max(1e-6, abs(float(values[0])) * 1e-6 + 1e-9)
    return 1.06 * spread * values.size ** (-0.2)


def _convolve_same(weights: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Convolution trimmed to ``len(weights)``, centred on the kernel.

    Always slices the full linear convolution (``np.convolve``'s "same"
    mode centres on the *longer* operand, which misaligns when the kernel
    outspans the grid).  Direct convolution is ``O(len(weights) *
    len(kernel))``; beyond a few million multiply-adds the zero-padded
    real FFT wins.
    """
    if weights.size * kernel.size <= 4_000_000:
        full = np.convolve(weights, kernel)
    else:
        length = weights.size + kernel.size - 1
        nfft = 1 << (length - 1).bit_length()
        full = np.fft.irfft(
            np.fft.rfft(weights, nfft) * np.fft.rfft(kernel, nfft), nfft
        )[:length]
    start = (kernel.size - 1) // 2
    return full[start : start + weights.size]


class GaussianKDE:
    """1-D kernel density estimator with Gaussian kernels.

    Parameters
    ----------
    values:
        Sample to estimate the density of.
    bandwidth:
        Kernel bandwidth (standard deviation of each Gaussian kernel).
        Defaults to Silverman's rule; pass a float to override, or
        ``"scott"`` for Scott's rule.

    Examples
    --------
    >>> kde = GaussianKDE([1.0, 1.1, 0.9, 5.0, 5.1])
    >>> grid, density = kde.grid(num=256)
    >>> bool(density.min() >= 0)
    True
    """

    def __init__(
        self,
        values,
        bandwidth: float | str | None = None,
    ):
        values = np.asarray(values, dtype=float)
        values = values[np.isfinite(values)]
        if values.size == 0:
            raise ValueError("GaussianKDE needs at least one finite value")
        self.values = np.sort(values)
        if bandwidth is None:
            self.bandwidth = silverman_bandwidth(self.values)
        elif bandwidth == "scott":
            self.bandwidth = scott_bandwidth(self.values)
        elif isinstance(bandwidth, str):
            raise ValueError(f"unknown bandwidth rule {bandwidth!r}")
        else:
            self.bandwidth = float(bandwidth)
            if self.bandwidth <= 0:
                raise ValueError("bandwidth must be positive")

    def evaluate(self, points) -> np.ndarray:
        """Density of the estimator at ``points`` (vectorised, exact).

        The result integrates to 1 over the real line.  This is the
        ``O(n * num_points)`` pairwise kernel sum; for dense even grids
        over large samples prefer :meth:`grid`, which switches to the
        linear-binning fast path automatically.
        """
        points = np.atleast_1d(np.asarray(points, dtype=float))
        h = self.bandwidth
        n = self.values.size
        # (num_points, n) standardised distances; chunk to bound memory for
        # large samples.
        out = np.empty(points.shape, dtype=float)
        chunk = max(1, int(4_000_000 // max(n, 1)))
        for start in range(0, points.size, chunk):
            stop = min(start + chunk, points.size)
            z = (points[start:stop, None] - self.values[None, :]) / h
            out[start:stop] = np.exp(-0.5 * z * z).sum(axis=1) / (
                n * h * _SQRT_2PI
            )
        return out

    __call__ = evaluate

    def _binned_applicable(self, spacing: float) -> bool:
        """Whether the binned path resolves the bandwidth at ``spacing``."""
        return spacing <= FAST_PATH_MAX_SPACING * self.bandwidth

    def _evaluate_binned(self, points: np.ndarray) -> np.ndarray:
        """Fast grid evaluation: linear binning + Gaussian convolution.

        ``points`` must be an evenly spaced ascending grid.  The grid is
        extended (at the same spacing) to cover every sample out to the
        kernel cutoff, the sample is linearly binned onto it, the bin
        weights are convolved with the kernel sampled at grid spacing,
        and the requested segment is sliced back out.
        """
        h = self.bandwidth
        n = self.values.size
        spacing = float(points[1] - points[0])
        cutoff = FAST_PATH_KERNEL_CUTOFF * h
        # Extension: samples more than `cutoff` outside the requested grid
        # contribute < 1e-14 of a kernel height inside it, so the extended
        # grid only needs to reach min/max(sample) clamped to the cutoff.
        lo_target = max(float(points[0]) - cutoff,
                        min(float(self.values[0]), float(points[0])))
        hi_target = min(float(points[-1]) + cutoff,
                        max(float(self.values[-1]), float(points[-1])))
        n_left = int(math.ceil((float(points[0]) - lo_target) / spacing))
        n_right = int(math.ceil((hi_target - float(points[-1])) / spacing))
        size = points.size + n_left + n_right
        grid_lo = float(points[0]) - n_left * spacing

        # Linear binning: each sample splits its unit mass between the two
        # enclosing grid points, proportionally to proximity.
        pos = (self.values - grid_lo) / spacing
        pos = pos[(pos >= 0.0) & (pos <= size - 1)]
        idx = np.minimum(pos.astype(np.int64), size - 2)
        frac = pos - idx
        weights = np.bincount(idx, weights=1.0 - frac, minlength=size)
        weights += np.bincount(idx + 1, weights=frac, minlength=size)

        half = int(math.ceil(cutoff / spacing))
        z = np.arange(-half, half + 1) * (spacing / h)
        kernel = np.exp(-0.5 * z * z) / (n * h * _SQRT_2PI)
        density = _convolve_same(weights, kernel)
        # FFT round-off can leave tiny negative values in empty regions.
        return np.maximum(density[n_left : n_left + points.size], 0.0)

    def grid(
        self,
        num: int = 512,
        lo: float | None = None,
        hi: float | None = None,
        pad_bandwidths: float = 3.0,
        method: str = "auto",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate on an even grid spanning the sample.

        Returns ``(grid_points, densities)``.  The grid extends
        ``pad_bandwidths`` bandwidths beyond the sample extremes unless
        ``lo``/``hi`` are given.

        ``method`` selects the evaluation path: ``"exact"`` is the
        pairwise kernel sum, ``"binned"`` the linear-binning fast path
        (raises ``ValueError`` when the grid is too coarse to resolve the
        bandwidth), and ``"auto"`` (the default) picks ``"binned"`` for
        samples of at least :data:`FAST_PATH_MIN_SAMPLES` whenever it is
        applicable, falling back to ``"exact"`` otherwise.
        """
        if num < 2:
            raise ValueError("grid needs at least 2 points")
        if method not in _GRID_METHODS:
            raise ValueError(
                f"method must be one of {_GRID_METHODS}, got {method!r}"
            )
        pad = pad_bandwidths * self.bandwidth
        lo = float(self.values[0]) - pad if lo is None else float(lo)
        hi = float(self.values[-1]) + pad if hi is None else float(hi)
        if hi <= lo:
            hi = lo + max(1e-9, abs(lo) * 1e-9)
        points = np.linspace(lo, hi, num)
        spacing = float(points[1] - points[0])
        if method == "binned" and not self._binned_applicable(spacing):
            raise ValueError(
                "grid too coarse for the binned fast path: spacing "
                f"{spacing:.4g} exceeds {FAST_PATH_MAX_SPACING} x bandwidth "
                f"({self.bandwidth:.4g}); use method='exact' or a finer grid"
            )
        if method == "auto":
            method = (
                "binned"
                if self.values.size >= FAST_PATH_MIN_SAMPLES
                and self._binned_applicable(spacing)
                else "exact"
            )
        with span(
            "kde.grid", n=int(self.values.size), num=num, method=method
        ):
            if method == "binned":
                return points, self._evaluate_binned(points)
            return points, self.evaluate(points)

    def integrate(self, lo: float, hi: float) -> float:
        """Probability mass on ``[lo, hi]`` under the estimate.

        Uses the exact Gaussian CDF of each kernel (via ``math.erf``)
        rather than numeric quadrature.
        """
        if hi < lo:
            raise ValueError("integration bounds reversed")
        h = self.bandwidth
        upper = _normal_cdf((hi - self.values) / h)
        lower = _normal_cdf((lo - self.values) / h)
        return float(np.mean(upper - lower))
