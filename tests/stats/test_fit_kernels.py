"""Bit-identity oracles for the EM and exact-KDE kernels.

``GaussianMixture`` runs EM on a (k, n) layout in reused buffers and
``GaussianKDE.evaluate`` chunks its exact sum into cache-sized buffers.
Both must give the same bits as the straightforward (n, k) EM and the
4M-element-chunk exact sum kept below as references: every fit field,
prediction, responsibility, score and density is compared by value and
by its bytes (which also tells -0.0 from +0.0).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.stats.gmm import (
    GaussianMixture,
    GMMFitResult,
    select_components_bic,
)
from repro.stats.kde import EXACT_BLOCK, GaussianKDE

_LOG_2PI = math.log(2.0 * math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# The probes include +-inf, whose log-sum-exp is NaN in both kernels.
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning"
)


# ---------------------------------------------------------------------------
# References: the (n, k) EM and the single-buffer exact KDE sum
# ---------------------------------------------------------------------------
def _ref_logsumexp(matrix: np.ndarray, axis: int) -> np.ndarray:
    top = matrix.max(axis=axis, keepdims=True)
    out = top + np.log(np.exp(matrix - top).sum(axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


class ReferenceMixture(GaussianMixture):
    """``GaussianMixture`` with its kernels written on the (n, k) layout."""

    @staticmethod
    def _log_gauss(values, mean, var):
        return -0.5 * (_LOG_2PI + math.log(var) + (values - mean) ** 2 / var)

    def _log_prob_matrix(self, values, means, variances, weights, out=None):
        parts = [
            np.log(weights[j])
            + self._log_gauss(values, means[j], variances[j])
            for j in range(means.size)
        ]
        return np.stack(parts, axis=1)

    def _fit(self, values):
        sample_var = float(np.var(values))
        var_floor = max(self.var_floor_frac * sample_var, 1e-12)
        means = self._initial_means(values)
        variances = np.full(
            self.n_components, max(sample_var / self.n_components, var_floor)
        )
        weights = np.full(self.n_components, 1.0 / self.n_components)
        prior_centers = means.copy() if self.mean_prior_strength > 0 else None
        pseudo_count = (
            self.mean_prior_strength * values.size / self.n_components
        )
        prev_ll = -np.inf
        converged = False
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            log_prob = self._log_prob_matrix(values, means, variances, weights)
            log_norm = _ref_logsumexp(log_prob, axis=1)
            resp = np.exp(log_prob - log_norm[:, None])
            ll = float(log_norm.sum())
            nk = resp.sum(axis=0) + 1e-12
            if prior_centers is None:
                means = (resp * values[:, None]).sum(axis=0) / nk
            else:
                means = (
                    (resp * values[:, None]).sum(axis=0)
                    + pseudo_count * prior_centers
                ) / (nk + pseudo_count)
            diff2 = (values[:, None] - means[None, :]) ** 2
            variances = np.maximum((resp * diff2).sum(axis=0) / nk, var_floor)
            weights = nk / values.size
            if abs(ll - prev_ll) < self.tol * max(1.0, abs(ll)):
                converged = True
                prev_ll = ll
                break
            prev_ll = ll
        order = np.argsort(means)
        self.result_ = GMMFitResult(
            means=means[order],
            variances=variances[order],
            weights=weights[order],
            log_likelihood=prev_ll,
            n_iter=n_iter,
            converged=converged,
        )
        return self.result_

    def responsibilities(self, values):
        fit = self._require_fit()
        values = np.asarray(values, dtype=float)
        log_prob = self._log_prob_matrix(
            values, fit.means, fit.variances, fit.weights
        )
        return np.exp(log_prob - _ref_logsumexp(log_prob, axis=1)[:, None])

    def predict(self, values):
        return np.argmax(self.responsibilities(values), axis=1)

    def score_samples(self, values):
        fit = self._require_fit()
        values = np.asarray(values, dtype=float)
        log_prob = self._log_prob_matrix(
            values, fit.means, fit.variances, fit.weights
        )
        return _ref_logsumexp(log_prob, axis=1)


def _ref_evaluate(kde: GaussianKDE, points) -> np.ndarray:
    points = np.atleast_1d(np.asarray(points, dtype=float))
    h = kde.bandwidth
    n = kde.values.size
    out = np.empty(points.shape, dtype=float)
    chunk = max(1, int(4_000_000 // max(n, 1)))
    for start in range(0, points.size, chunk):
        stop = min(start + chunk, points.size)
        z = (points[start:stop, None] - kde.values[None, :]) / h
        out[start:stop] = np.exp(-0.5 * z * z).sum(axis=1) / (
            n * h * _SQRT_2PI
        )
    return out


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------
def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()


def _assert_same_fit(got: GMMFitResult, want: GMMFitResult):
    for name in ("means", "variances", "weights"):
        _assert_same_bits(getattr(got, name), getattr(want, name))
    assert got.log_likelihood == want.log_likelihood
    assert math.copysign(1.0, got.log_likelihood) == math.copysign(
        1.0, want.log_likelihood
    )
    assert got.n_iter == want.n_iter
    assert got.converged == want.converged


def _speeds(n: int, seed: int) -> np.ndarray:
    """Speed-test-shaped sample: lognormal tiers plus a uniform tail."""
    rng = np.random.default_rng(seed)
    centers = np.array([5.0, 11.0, 38.0, 110.0, 300.0])
    tiers = rng.integers(0, centers.size, size=n)
    out = centers[tiers] * rng.lognormal(0.0, 0.08, size=n)
    tail = rng.random(n) < 0.05
    out[tail] = rng.uniform(0.5, 400.0, size=int(tail.sum()))
    return out


def _pair(k: int, **kwargs):
    return GaussianMixture(k, **kwargs), ReferenceMixture(k, **kwargs)


def _check_fit_and_predictors(k: int, values, probe, **kwargs):
    new, ref = _pair(k, **kwargs)
    _assert_same_fit(new.fit(values), ref.fit(values))
    _assert_same_bits(new.predict(probe), ref.predict(probe))
    _assert_same_bits(new.responsibilities(probe), ref.responsibilities(probe))
    _assert_same_bits(new.score_samples(probe), ref.score_samples(probe))
    return new.result_


_PROBE = np.concatenate(
    [_speeds(300, 99), [0.0, -3.0, 1e-300, 1e6, np.inf, -np.inf, np.nan]]
)


# ---------------------------------------------------------------------------
# GMM
# ---------------------------------------------------------------------------
class TestEMBitIdentity:
    @pytest.mark.parametrize("k", range(1, 11))
    @pytest.mark.parametrize("n_per_k", [1, 3, 40])
    def test_fit_and_predictors(self, k, n_per_k):
        values = _speeds(k * n_per_k, seed=k)
        _check_fit_and_predictors(k, values, _PROBE, seed=k)

    @pytest.mark.parametrize("k,n", [(1, 10_000), (3, 4096), (4, 10_000),
                                     (7, 2000), (8, 2000), (10, 4096)])
    def test_large_samples(self, k, n):
        _check_fit_and_predictors(k, _speeds(n, seed=n + k), _PROBE, seed=0)

    @pytest.mark.parametrize("k", [1, 2, 4, 7, 8, 10])
    def test_means_init_with_mean_prior(self, k):
        values = _speeds(1500, seed=20 + k)
        init = np.quantile(values, (np.arange(k) + 0.5) / k) * 1.1
        for strength in (0.0, 0.5):
            _check_fit_and_predictors(
                k, values, _PROBE, means_init=init,
                mean_prior_strength=strength,
            )

    @pytest.mark.parametrize("k", [2, 5, 9])
    def test_nan_inputs_are_filtered(self, k):
        values = _speeds(800, seed=k)
        values[::17] = np.nan
        values[5::31] = np.inf
        fit = _check_fit_and_predictors(k, values, values[:50], seed=3)
        assert np.isfinite(fit.means).all()

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_iteration_cap(self, k):
        values = _speeds(3000, seed=7)
        fit = _check_fit_and_predictors(
            k, values, _PROBE, max_iter=4, tol=0.0, seed=1
        )
        assert fit.n_iter == 4 and not fit.converged

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_negative_sample(self, k):
        values = -_speeds(600, seed=k)
        _check_fit_and_predictors(k, values, -_PROBE, seed=2)

    def test_empty_component_keeps_positive_zero_mean(self):
        # A component far above an all-negative sample gets responsibility
        # exactly 0 everywhere, so its weighted sum is a run of -0.0
        # terms; the (n, k) reduction starts from +0.0 and returns +0.0.
        values = -_speeds(400, seed=4)
        init = [values.min(), values.max(), 1e9]
        fit = _check_fit_and_predictors(
            3, values, _PROBE, means_init=init, max_iter=1
        )
        assert fit.means[-1] == 0.0
        assert math.copysign(1.0, fit.means[-1]) == 1.0

    def test_identical_values(self):
        values = np.full(50, 12.5)
        _check_fit_and_predictors(3, values, _PROBE, seed=0)

    def test_empty_and_single_probe(self):
        new, ref = _pair(4, seed=0)
        values = _speeds(400, seed=1)
        new.fit(values)
        ref.fit(values)
        for probe in (np.array([]), np.array([42.0])):
            _assert_same_bits(new.predict(probe), ref.predict(probe))
            _assert_same_bits(
                new.responsibilities(probe), ref.responsibilities(probe)
            )
            _assert_same_bits(
                new.score_samples(probe), ref.score_samples(probe)
            )

    def test_select_components_bic(self, monkeypatch):
        values = _speeds(1200, seed=11)
        new = select_components_bic(values, max_components=10, seed=0)
        monkeypatch.setattr(
            "repro.stats.gmm.GaussianMixture", ReferenceMixture
        )
        ref = select_components_bic(values, max_components=10, seed=0)
        _assert_same_fit(new, ref)


# ---------------------------------------------------------------------------
# Exact KDE
# ---------------------------------------------------------------------------
class TestExactKDEBitIdentity:
    @pytest.mark.parametrize(
        "n,num",
        [
            (1, 512),
            (7, 512),
            (100, 512),
            (4096, 512),
            (9999, 512),
            (EXACT_BLOCK // 3 + 1, 101),  # 2 points a chunk, odd count
            (EXACT_BLOCK - 1, 37),  # one point a chunk from here on
            (EXACT_BLOCK, 37),
            (EXACT_BLOCK + 1, 37),
            (2 * EXACT_BLOCK + 5, 9),
        ],
    )
    def test_grid_matches_reference(self, n, num):
        kde = GaussianKDE(_speeds(n, seed=n))
        points, density = kde.grid(num=num, method="exact")
        _assert_same_bits(density, _ref_evaluate(kde, points))

    def test_scattered_points(self):
        kde = GaussianKDE(_speeds(3000, seed=5), bandwidth=0.7)
        points = np.concatenate(
            [_speeds(777, seed=6), [-1e3, 0.0, 1e9, np.nan, np.inf]]
        )
        _assert_same_bits(kde.evaluate(points), _ref_evaluate(kde, points))
        _assert_same_bits(kde(12.0), _ref_evaluate(kde, 12.0))

    def test_no_points(self):
        kde = GaussianKDE(_speeds(10, seed=1))
        assert kde.evaluate(np.array([])).shape == (0,)
