"""Gaussian Mixture Model fit by Expectation-Maximization, from scratch.

Both BST stages (Section 4.2) cluster a 1-D speed distribution with
"GMM in conjunction with the Expectation-Maximization (EM) methodology
(GMM-EM) to iteratively compute the maximum likelihood that each speed test
data point belongs to its respective upload/download speed cluster".  This
module implements exactly that estimator for 1-D data with per-component
means, variances and weights, plus BIC-based component-count selection used
by the ablation benchmarks.

EM runs on a (k, n) layout: one contiguous row per component, held in
two buffers allocated once per fit and rewritten in place by every E-
and M-step.  Each sum adds its terms in the order numpy's sums over the
plain (n, k) formulation add them (see ``_logsumexp`` and
``_sample_sums``), so fits, predictions and scores equal that
formulation's bit for bit; tests/stats/test_fit_kernels.py keeps it as
the reference, and docs/PERFORMANCE.md ("Fit kernels") has the rule and
the timings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger, kv
from repro.obs.trace import span

__all__ = ["GaussianMixture", "GMMFitResult", "select_components_bic"]

_LOG_2PI = math.log(2.0 * math.pi)

# numpy (verified on 2.4.6) sums a contiguous run of fewer than 8 float64
# terms one after another and a longer run pairwise; `_logsumexp` follows
# that rule over the k components of each sample.
_PAIRWISE_MIN_COMPONENTS = 8

log = get_logger("stats.gmm")


@dataclass
class GMMFitResult:
    """Outcome of an EM fit.

    Attributes
    ----------
    means, variances, weights:
        Component parameters, sorted by mean (ascending).
    log_likelihood:
        Total log-likelihood of the sample at convergence.
    n_iter:
        EM iterations run.
    converged:
        Whether the log-likelihood improvement fell below tolerance before
        the iteration cap.
    """

    means: np.ndarray
    variances: np.ndarray
    weights: np.ndarray
    log_likelihood: float
    n_iter: int
    converged: bool

    @property
    def n_components(self) -> int:
        return int(self.means.size)

    def bic(self, n_samples: int) -> float:
        """Bayesian information criterion (lower is better).

        A 1-D GMM with k components has ``3k - 1`` free parameters
        (k means, k variances, k-1 independent weights).
        """
        if n_samples <= 0:
            raise ValueError("BIC needs a positive sample count")
        n_params = 3 * self.n_components - 1
        return n_params * math.log(n_samples) - 2.0 * self.log_likelihood


class GaussianMixture:
    """1-D Gaussian mixture fit with EM.

    Parameters
    ----------
    n_components:
        Number of mixture components.
    max_iter:
        EM iteration cap.  Slow fits of the simulated data need up to
        ~300 iterations to meet ``tol``; the cap sits well above that, so
        reaching it (``em.unconverged``) means EM is not converging, not
        that it was cut short.
    tol:
        Relative convergence tolerance on the total log-likelihood: EM
        stops once ``|ll - prev_ll| < tol * max(1, |ll|)``, where ``ll``
        is the log-likelihood summed over the sample.
    var_floor_frac:
        Variance floor, as a fraction of the sample variance, that keeps
        components from collapsing onto single points.
    seed:
        Seed for the initialisation; the fit itself is deterministic given
        the initialisation.
    means_init:
        Optional initial means (e.g. the ISP's advertised speeds); when
        given, initialisation is fully deterministic and ``seed`` is unused.
    mean_prior_strength:
        MAP-EM regularisation: each component mean gets a Gaussian prior
        centred at its initial value with pseudo-count
        ``mean_prior_strength * n / k`` observations.  Zero (default)
        recovers plain maximum-likelihood EM.  Requires ``means_init``.
        Useful when domain knowledge anchors the clusters (BST anchors
        upload components at the ISP's advertised speeds) and stray mass
        between clusters would otherwise drag components off their peaks.

    Examples
    --------
    >>> rng = np.random.default_rng(0)
    >>> sample = np.concatenate([rng.normal(5, .3, 500), rng.normal(35, 1, 500)])
    >>> fit = GaussianMixture(2, seed=1).fit(sample)
    >>> sorted(round(m) for m in fit.means)
    [5, 35]
    """

    def __init__(
        self,
        n_components: int,
        max_iter: int = 1000,
        tol: float = 1e-6,
        var_floor_frac: float = 1e-6,
        seed: int | None = 0,
        means_init=None,
        mean_prior_strength: float = 0.0,
    ):
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        self.n_components = int(n_components)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.var_floor_frac = float(var_floor_frac)
        self.seed = seed
        self.means_init = (
            None if means_init is None else np.asarray(means_init, dtype=float)
        )
        if mean_prior_strength < 0:
            raise ValueError("mean_prior_strength cannot be negative")
        if mean_prior_strength > 0 and self.means_init is None:
            raise ValueError("mean_prior_strength requires means_init")
        self.mean_prior_strength = float(mean_prior_strength)
        self.result_: GMMFitResult | None = None

    # ------------------------------------------------------------------
    def _initial_means(self, values: np.ndarray) -> np.ndarray:
        """Quantile-spread initial means (deterministic, robust)."""
        if self.means_init is not None:
            if self.means_init.size != self.n_components:
                raise ValueError(
                    f"means_init has {self.means_init.size} entries, "
                    f"expected {self.n_components}"
                )
            return np.sort(self.means_init.astype(float))
        k = self.n_components
        # Evenly spaced quantiles put one seed in each density mass region;
        # a small seeded jitter breaks ties on discrete data.
        qs = (np.arange(k) + 0.5) / k
        means = np.quantile(values, qs)
        rng = np.random.default_rng(self.seed)
        scale = max(float(np.std(values)), 1e-12)
        means = means + rng.normal(0.0, 1e-3 * scale, size=k)
        return np.sort(means)

    def _log_prob_matrix(
        self,
        values: np.ndarray,
        means: np.ndarray,
        variances: np.ndarray,
        weights: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``log(weight_j * N(x | mu_j, var_j))`` with shape (k, n).

        Row ``j`` holds component ``j`` over the whole sample, so each
        step is one broadcast over all components, written into ``out``
        (a float (k, n) array) when it is given.  Every element is
        ``log(w_j) + -0.5 * (c_j + (x - mu_j)**2 / var_j)`` with
        ``c_j = log(2 pi) + log(var_j)`` summed as Python floats.
        """
        consts = np.array([_LOG_2PI + math.log(v) for v in variances.tolist()])
        out = np.subtract(values, means[:, None], out=out)
        np.square(out, out=out)
        np.divide(out, variances[:, None], out=out)
        np.add(out, consts[:, None], out=out)
        np.multiply(out, -0.5, out=out)
        return np.add(out, np.log(weights)[:, None], out=out)

    def fit(self, values) -> GMMFitResult:
        """Run EM on the sample and return (and store) the fit result."""
        values = np.asarray(values, dtype=float)
        values = values[np.isfinite(values)]
        if values.size < self.n_components:
            raise ValueError(
                f"need at least {self.n_components} samples, got {values.size}"
            )
        with span("gmm.fit", k=self.n_components, n=int(values.size)) as sp:
            result = self._fit(values)
            sp.set(n_iter=result.n_iter, converged=result.converged)
        obs_metrics.histogram("em.iterations").observe(result.n_iter)
        obs_metrics.histogram("em.log_likelihood").observe(
            result.log_likelihood
        )
        if not result.converged:
            obs_metrics.counter("em.unconverged").inc()
            log.warning(
                "EM hit the iteration cap before meeting tolerance",
                extra=kv(
                    k=self.n_components,
                    n=int(values.size),
                    max_iter=self.max_iter,
                    tol=self.tol,
                    log_likelihood=result.log_likelihood,
                ),
            )
        return result

    def _fit(self, values: np.ndarray) -> GMMFitResult:
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

        # Two (k, n) buffers serve every iteration: `resp` holds the
        # log-probabilities and then, in place, the responsibilities;
        # `work` is scratch for the exponentials and the M-step products.
        resp = np.empty((self.n_components, values.size))
        work = np.empty_like(resp)
        prev_ll = -np.inf
        converged = False
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            # E-step: responsibilities via log-sum-exp for stability.
            self._log_prob_matrix(values, means, variances, weights, out=resp)
            log_norm = _logsumexp(resp, work)
            np.subtract(resp, log_norm, out=resp)
            np.exp(resp, out=resp)
            ll = float(log_norm.sum())

            # M-step (MAP when a mean prior is configured).
            nk = _sample_sums(resp, work) + 1e-12
            weighted = _sample_sums(np.multiply(resp, values, out=work), work)
            if prior_centers is None:
                means = weighted / nk
            else:
                means = (weighted + pseudo_count * prior_centers) / (
                    nk + pseudo_count
                )
            np.subtract(values, means[:, None], out=work)
            np.square(work, out=work)
            np.multiply(resp, work, out=work)
            variances = np.maximum(_sample_sums(work, work) / nk, var_floor)
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

    # ------------------------------------------------------------------
    def _require_fit(self) -> GMMFitResult:
        if self.result_ is None:
            raise RuntimeError("call fit() before predicting")
        return self.result_

    def _fitted_log_prob(self, values) -> np.ndarray:
        fit = self._require_fit()
        return self._log_prob_matrix(
            np.asarray(values, dtype=float),
            fit.means,
            fit.variances,
            fit.weights,
        )

    def _posterior(self, values) -> np.ndarray:
        """Responsibilities with shape (k, n), computed in place."""
        log_prob = self._fitted_log_prob(values)
        np.subtract(log_prob, _logsumexp(log_prob), out=log_prob)
        return np.exp(log_prob, out=log_prob)

    def responsibilities(self, values) -> np.ndarray:
        """Posterior probability of each component for each value; (n, k)."""
        return np.ascontiguousarray(self._posterior(values).T)

    def predict(self, values) -> np.ndarray:
        """Most likely component index (into the mean-sorted order)."""
        return np.argmax(self._posterior(values), axis=0)

    def score_samples(self, values) -> np.ndarray:
        """Per-sample log density under the fitted mixture."""
        return _logsumexp(self._fitted_log_prob(values))

    def sample(self, n: int, seed: int | None = None) -> np.ndarray:
        """Draw ``n`` values from the fitted mixture (for tests)."""
        fit = self._require_fit()
        rng = np.random.default_rng(seed)
        components = rng.choice(fit.n_components, size=n, p=fit.weights)
        return rng.normal(
            fit.means[components], np.sqrt(fit.variances[components])
        )


def _logsumexp(
    log_prob: np.ndarray, work: np.ndarray | None = None
) -> np.ndarray:
    """``log(sum_j exp(log_prob[j]))`` for each column of a (k, n) matrix.

    ``work`` (same shape) receives the exponentials when given.  The k
    terms of a column are added in numpy's order for a C-contiguous
    (n, k) ``sum(axis=1)``: one after another below
    ``_PAIRWISE_MIN_COMPONENTS``, pairwise from there on, so the latter
    sums an (n, k) copy.
    """
    top = log_prob.max(axis=0)
    work = np.subtract(log_prob, top, out=work)
    np.exp(work, out=work)
    if log_prob.shape[0] < _PAIRWISE_MIN_COMPONENTS:
        total = work.sum(axis=0)
    else:
        total = np.ascontiguousarray(work.T).sum(axis=1)
    np.log(total, out=total)
    return np.add(top, total, out=total)


def _sample_sums(matrix: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Each component's (row's) sum over the sample of a (k, n) matrix.

    Adds in numpy's order for a C-contiguous (n, k) ``sum(axis=0)``:
    pairwise when k == 1, otherwise one sample after another starting
    from +0.0.  The running sum of ``np.cumsum`` (into ``work``, which
    may be ``matrix``) is that order; a row's ``sum`` would be pairwise.
    Adding 0.0 turns an all-``-0.0`` row's sum into +0.0, as the
    reduction's zero start does.
    """
    if matrix.shape[0] == 1:
        return matrix.sum(axis=1)
    np.cumsum(matrix, axis=1, out=work)
    return work[:, -1] + 0.0


def select_components_bic(
    values,
    max_components: int = 10,
    seed: int | None = 0,
) -> GMMFitResult:
    """Fit GMMs with 1..max_components and return the best fit by BIC.

    This is the model-selection alternative to the paper's KDE peak-count
    seeding; the ablation benchmark compares the two.
    """
    values = np.asarray(values, dtype=float)
    values = values[np.isfinite(values)]
    if values.size == 0:
        raise ValueError("cannot select components for an empty sample")
    best: GMMFitResult | None = None
    best_bic = np.inf
    cap = min(max_components, values.size)
    for k in range(1, cap + 1):
        fit = GaussianMixture(k, seed=seed).fit(values)
        bic = fit.bic(values.size)
        if bic < best_bic:
            best, best_bic = fit, bic
    assert best is not None
    return best
