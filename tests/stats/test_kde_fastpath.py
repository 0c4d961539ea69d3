"""Tests for the linear-binning KDE fast path.

The binned path must be indistinguishable from the exact pairwise sum
for peak counting: densities agree within the documented tolerance
(<= 1% of the peak density; see docs/PERFORMANCE.md) and peak counts
match exactly on realistic speed-test mixtures.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.trace import use_collector
from repro.stats import count_density_peaks
from repro.stats.kde import (
    FAST_PATH_MAX_SPACING,
    FAST_PATH_MIN_SAMPLES,
    GaussianKDE,
    _convolve_same,
)


def _mixture(seed, n):
    """Seeded speed-test-shaped mixture: a few lognormal-ish clusters."""
    rng = np.random.default_rng(seed)
    parts = [
        rng.normal(5, 0.4, n // 3),
        rng.normal(11, 0.8, n // 3),
        rng.normal(38, 2.0, n - 2 * (n // 3)),
    ]
    return np.concatenate(parts)


def _max_relative_error(kde, num=512):
    grid, exact = kde.grid(num=num, method="exact")
    _, binned = kde.grid(num=num, method="binned")
    return float(np.max(np.abs(binned - exact)) / exact.max())


class TestBinnedAccuracy:
    @pytest.mark.parametrize("n", [200, 2_000, 20_000])
    @pytest.mark.parametrize("bandwidth", [None, "scott", 0.5])
    def test_binned_matches_exact_within_tolerance(self, n, bandwidth):
        kde = GaussianKDE(_mixture(seed=n, n=n), bandwidth=bandwidth)
        assert _max_relative_error(kde) < 0.01

    def test_discrete_valued_sample(self):
        # Speed tests cluster on round numbers; point masses are the
        # worst case for binning.
        rng = np.random.default_rng(0)
        values = rng.choice([5.0, 10.0, 15.0, 35.0], size=5_000)
        values = values + rng.normal(0, 0.05, values.size)
        kde = GaussianKDE(values)
        assert _max_relative_error(kde, num=1024) < 0.01

    def test_custom_window_with_samples_outside(self):
        # Samples beyond the requested lo/hi must still contribute mass
        # inside the window (the extended-grid logic).
        kde = GaussianKDE(_mixture(seed=1, n=4_000))
        grid, exact = kde.grid(num=512, lo=8.0, hi=20.0, method="exact")
        _, binned = kde.grid(num=512, lo=8.0, hi=20.0, method="binned")
        assert float(np.max(np.abs(binned - exact)) / exact.max()) < 0.01

    def test_density_nonnegative(self):
        kde = GaussianKDE(_mixture(seed=2, n=3_000))
        _, binned = kde.grid(num=2048, method="binned")
        assert binned.min() >= 0.0

    def test_binned_integrates_to_one(self):
        kde = GaussianKDE(_mixture(seed=3, n=3_000))
        grid, binned = kde.grid(num=2048, pad_bandwidths=8.0,
                                method="binned")
        assert float(np.trapezoid(binned, grid)) == pytest.approx(
            1.0, abs=0.01
        )


class TestMethodSelection:
    def _grid_method(self, collector):
        (sp,) = [s for s in collector.spans() if s.name == "kde.grid"]
        return sp.attributes["method"]

    def test_auto_uses_exact_below_threshold(self):
        kde = GaussianKDE(_mixture(seed=4, n=500))
        with use_collector() as collector:
            kde.grid(num=512)
        assert self._grid_method(collector) == "exact"

    def test_auto_uses_binned_above_threshold(self, monkeypatch):
        monkeypatch.setattr("repro.stats.kde.FAST_PATH_MIN_SAMPLES", 1_000)
        kde = GaussianKDE(_mixture(seed=5, n=2_000))
        with use_collector() as collector:
            kde.grid(num=512)
        assert self._grid_method(collector) == "binned"

    def test_auto_falls_back_on_coarse_grid(self, monkeypatch):
        monkeypatch.setattr("repro.stats.kde.FAST_PATH_MIN_SAMPLES", 1_000)
        kde = GaussianKDE(_mixture(seed=6, n=2_000))
        # 8 grid points over a ~40 Mbps range cannot resolve the
        # bandwidth, so auto must fall back to the exact path.
        assert not kde._binned_applicable(
            (kde.values[-1] - kde.values[0]) / 7
        )
        with use_collector() as collector:
            kde.grid(num=8)
        assert self._grid_method(collector) == "exact"

    def test_forced_binned_on_coarse_grid_raises(self):
        kde = GaussianKDE(_mixture(seed=7, n=500))
        with pytest.raises(ValueError, match="too coarse"):
            kde.grid(num=8, method="binned")

    def test_unknown_method_rejected(self):
        kde = GaussianKDE(_mixture(seed=8, n=100))
        with pytest.raises(ValueError, match="method"):
            kde.grid(method="fft")

    def test_threshold_constant_engages_real_path(self):
        # No monkeypatching: a sample at the real threshold goes binned.
        n = FAST_PATH_MIN_SAMPLES
        kde = GaussianKDE(_mixture(seed=9, n=n))
        with use_collector() as collector:
            kde.grid(num=512)
        assert self._grid_method(collector) == "binned"


class TestPeakCountParity:
    @pytest.mark.parametrize("log_space", [False, True])
    def test_peak_counts_match(self, log_space):
        values = _mixture(seed=10, n=6_000)
        exact = count_density_peaks(
            values, log_space=log_space, kde_method="exact"
        )
        binned = count_density_peaks(
            values, log_space=log_space, kde_method="binned"
        )
        assert exact == binned
        assert exact == 3

    def test_four_cluster_upload_sample(self):
        rng = np.random.default_rng(11)
        sample = np.concatenate(
            [
                rng.normal(5, 0.3, 2_000),
                rng.normal(11, 0.5, 1_500),
                rng.normal(17, 0.6, 1_500),
                rng.normal(40, 1.5, 2_000),
            ]
        )
        assert count_density_peaks(sample, log_space=True,
                                   kde_method="exact") == 4
        assert count_density_peaks(sample, log_space=True,
                                   kde_method="binned") == 4


class TestConvolveSame:
    def test_matches_numpy_same_for_short_kernel(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=100)
        k = rng.normal(size=11)
        np.testing.assert_allclose(
            _convolve_same(w, k), np.convolve(w, k, mode="same")
        )

    def test_kernel_longer_than_grid_stays_centred(self):
        # np.convolve(mode="same") centres on the longer operand, which
        # misaligns the result when the kernel outspans the grid; the
        # fast path must stay centred on the grid.
        w = np.zeros(9)
        w[4] = 1.0  # impulse at the grid centre
        k = np.exp(-0.5 * (np.arange(-15, 16) / 4.0) ** 2)
        out = _convolve_same(w, k)
        assert out.size == w.size
        assert int(np.argmax(out)) == 4

    def test_fft_branch_matches_direct(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=5_000)
        k = rng.normal(size=901)  # 4.5M multiply-adds -> FFT branch
        assert w.size * k.size > 4_000_000
        np.testing.assert_allclose(
            _convolve_same(w, k),
            np.convolve(w, k)[(k.size - 1) // 2:][: w.size],
            atol=1e-9,
        )


cluster_strategy = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=100.0),   # centre
        st.floats(min_value=0.1, max_value=5.0),     # sigma
        st.integers(min_value=50, max_value=400),    # size
    ),
    min_size=1,
    max_size=4,
)


class TestPropertyFastPath:
    @given(clusters=cluster_strategy, seed=st.integers(0, 2**16))
    @example(clusters=[(1.0, 5.0, 132), (1.0, 0.1015625, 125)], seed=13)
    @settings(max_examples=30, deadline=None)
    def test_binned_close_to_exact(self, clusters, seed):
        rng = np.random.default_rng(seed)
        values = np.concatenate(
            [rng.normal(mu, sigma, n) for mu, sigma, n in clusters]
        )
        kde = GaussianKDE(values)
        grid, exact = kde.grid(num=512, method="exact")
        spacing = float(grid[1] - grid[0])
        if spacing > FAST_PATH_MAX_SPACING * kde.bandwidth:
            with pytest.raises(ValueError, match="too coarse"):
                kde.grid(num=512, method="binned")
            return
        _, binned = kde.grid(num=512, method="binned")
        assert float(
            np.max(np.abs(binned - exact)) / exact.max()
        ) < 0.01

    @given(clusters=cluster_strategy, seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_peak_count_parity_property(self, clusters, seed):
        rng = np.random.default_rng(seed)
        values = np.concatenate(
            [rng.normal(mu, sigma, n) for mu, sigma, n in clusters]
        )
        kde = GaussianKDE(values)
        grid = np.linspace(
            values.min() - 3 * kde.bandwidth,
            values.max() + 3 * kde.bandwidth,
            512,
        )
        if (grid[1] - grid[0]) > FAST_PATH_MAX_SPACING * kde.bandwidth:
            return  # fast path not applicable at this resolution
        assert count_density_peaks(
            values, kde_method="exact"
        ) == count_density_peaks(values, kde_method="binned")
