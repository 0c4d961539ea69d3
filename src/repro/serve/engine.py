"""Online tier assignment against a fitted BST model.

The fit pipeline (:meth:`repro.core.bst.BSTModel.fit`) labels the
*training* sample; serving needs the inverse direction -- take an
already-fitted :class:`~repro.core.bst.BSTResult` and assign tiers to
measurements that arrive later, without refitting.  Two layers:

- :class:`TierAssigner` -- vectorised batch (and single-tuple)
  assignment.  It rebuilds the exact fit-time predictors from the
  stage parameters the fit recorded (GMM posterior argmax, or nearest
  k-means center), so applying an assigner to the data the model was
  trained on reproduces ``result.tiers`` byte-for-byte.  The download
  stage runs as one grouped pass: a stable argsort segments the request
  matrix by upload group, each present group's predictor evaluates one
  contiguous slice, and a single inverse scatter restores request order
  -- no per-group masking scans over the whole batch.
- :class:`MicroBatcher` -- a bounded micro-batching queue for streaming
  input: the flush worker takes every tuple already queued (up to
  ``max_batch``) and flushes at once, so concurrent single-tuple
  submissions coalesce into one vectorised ``assign`` call while a lone
  tuple never waits on a timer; a full queue blocks producers
  (backpressure) instead of growing without bound.  ``submit`` and
  ``close`` synchronise on one lock, so a submission racing shutdown
  either resolves its future or fails fast with
  :class:`BatcherClosedError` -- never a lost future.

Upload groups that had no download-stage fit (no training measurement
landed in them) fall back to the log-nearest advertised download among
the group's plans; each batch reports its ``n_fallback`` rows.  The
engine counts nothing: ``/assign`` counts the rows it answers.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.bst import BSTResult, map_rows
from repro.obs import metrics as obs_metrics
from repro.obs.trace import current_trace_id, span, use_trace_id
from repro.stats.gmm import GaussianMixture, GMMFitResult
from repro.stats.kmeans import KMeans1D, KMeansResult

__all__ = [
    "AssignmentBatch",
    "BatcherClosedError",
    "MicroBatcher",
    "TierAssigner",
]


class BatcherClosedError(RuntimeError):
    """A submission arrived at (or after) :meth:`MicroBatcher.close`."""


@dataclass
class AssignmentBatch:
    """Outcome of one vectorised assignment call."""

    tiers: np.ndarray  # per measurement, assigned plan tier
    group_indices: np.ndarray  # per measurement, upload-group index
    n_fallback: int  # rows assigned via the no-stage fallback

    def __len__(self) -> int:
        return len(self.tiers)


def _mixture_predictor(
    means: np.ndarray,
    variances: np.ndarray,
    weights: np.ndarray,
    clustering: str,
    stage: str,
) -> Callable[[np.ndarray], np.ndarray]:
    """The exact fit-time label predictor for one stage.

    Reuses the estimators' own ``predict`` implementations (not a
    reimplementation) so labels match what ``BSTModel.fit`` produced --
    including tie-breaking -- bit for bit.
    """
    means = np.asarray(means, dtype=float)
    if means.size == 0:
        raise ValueError(
            f"BST fit has no {stage} component means; cannot build a "
            "predictor"
        )
    if clustering == "kmeans":
        km = KMeans1D(means.size)
        km.result_ = KMeansResult(
            centers=means, inertia=0.0, n_iter=0, converged=True
        )
        return km.predict
    variances = np.asarray(variances, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if variances.size != means.size or weights.size != means.size:
        raise ValueError(
            f"BST fit lacks {stage} mixture variances/weights (saved "
            "with schema_version 1?); refit the model to serve new data"
        )
    gmm = GaussianMixture(means.size)
    gmm.result_ = GMMFitResult(
        means=means,
        variances=variances,
        weights=weights,
        log_likelihood=0.0,
        n_iter=0,
        converged=True,
    )
    return gmm.predict


def _validate_batch(downloads, uploads) -> tuple[np.ndarray, np.ndarray]:
    """Shared ``assign`` input contract: 1-D, paired, finite, non-empty."""
    downloads = np.asarray(downloads, dtype=float)
    uploads = np.asarray(uploads, dtype=float)
    if downloads.shape != uploads.shape:
        raise ValueError("downloads and uploads must pair one-to-one")
    if downloads.ndim != 1:
        downloads = downloads.ravel()
        uploads = uploads.ravel()
    if downloads.size == 0:
        raise ValueError("empty assignment batch")
    finite = np.isfinite(downloads) & np.isfinite(uploads)
    if not finite.all():
        bad = int(downloads.size - finite.sum())
        raise ValueError(
            f"assignment input must be finite ({bad} of "
            f"{downloads.size} tuples are NaN/inf)"
        )
    return downloads, uploads


class TierAssigner:
    """Vectorised tier assignment against a frozen BST fit.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.bst import BSTModel
    >>> from repro.market.isps import city_catalog
    >>> rng = np.random.default_rng(0)
    >>> ups = np.concatenate([rng.normal(5.5, .4, 400), rng.normal(40, 2, 400)])
    >>> downs = np.concatenate([rng.normal(110, 9, 400), rng.normal(900, 60, 400)])
    >>> result = BSTModel(city_catalog("A")).fit(downs, ups)
    >>> assigner = TierAssigner(result)
    >>> batch = assigner.assign(downs, ups)
    >>> bool(np.array_equal(batch.tiers, result.tiers))
    True
    """

    def __init__(self, result: BSTResult):
        self.result = result
        self.catalog = result.catalog
        upload = result.upload_stage
        if not upload.component_groups:
            raise ValueError(
                "BST fit records no upload component-to-group mapping; "
                "refit the model to serve new data"
            )
        self._upload_predict = _mixture_predictor(
            upload.component_means,
            upload.component_variances,
            upload.component_weights,
            upload.clustering,
            "upload-stage",
        )
        self._component_groups = np.asarray(
            upload.component_groups, dtype=np.int64
        )
        self._download_predict: dict[
            int, Callable[[np.ndarray], np.ndarray]
        ] = {}
        self._download_tiers: dict[int, np.ndarray] = {}
        for gi, stage in result.download_stages.items():
            self._download_predict[gi] = _mixture_predictor(
                stage.cluster_means,
                stage.cluster_variances,
                stage.cluster_weights,
                stage.clustering,
                f"download-stage (group {gi})",
            )
            self._download_tiers[gi] = np.asarray(
                stage.cluster_tiers, dtype=np.int64
            )
        # Fallback for groups with no fitted download stage: the
        # log-nearest advertised download among the group's plans.
        self._fallback_log_downloads: dict[int, np.ndarray] = {}
        self._fallback_tiers: dict[int, np.ndarray] = {}
        self._group_labels = [g.tier_label for g in upload.groups]
        for gi, group in enumerate(upload.groups):
            self._fallback_log_downloads[gi] = np.log(
                np.asarray([p.download_mbps for p in group.plans])
            )
            self._fallback_tiers[gi] = np.asarray(
                [p.tier for p in group.plans], dtype=np.int64
            )

    # ------------------------------------------------------------------
    def assign(self, downloads, uploads) -> AssignmentBatch:
        """Assign a batch of ``<download, upload>`` tuples to plan tiers.

        Inputs must be finite and pair one-to-one, exactly like
        :meth:`BSTModel.fit` requires.  On the model's own training
        sample the returned tiers equal ``result.tiers`` byte-for-byte.
        """
        downloads, uploads = _validate_batch(downloads, uploads)
        with span(
            "serve.assign",
            isp=self.catalog.isp_name,
            n=int(downloads.size),
        ) as sp:
            trace_id = current_trace_id()
            if trace_id is not None:
                sp.set(trace_id=trace_id)
            labels = self._upload_predict(uploads)
            group_indices = self._component_groups[labels]
            tiers, n_fallback = self._assign_grouped(group_indices, downloads)
            sp.set(n_fallback=n_fallback)
        return AssignmentBatch(
            tiers=tiers,
            group_indices=group_indices,
            n_fallback=n_fallback,
        )

    def _assign_grouped(
        self, group_indices: np.ndarray, downloads: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Per-group download labels over the whole batch.

        A stable argsort segments the batch by upload group, so
        ``_segment_tiers(group, segment)`` evaluates one contiguous slice
        per present group and a single inverse scatter restores request
        order.  The stable sort keeps rows of a group in ascending
        request order -- exactly the order per-group masking produces --
        so tier labels stay byte-identical.  Rows of groups with no
        fitted download stage count as fallback rows.
        """
        order = np.argsort(group_indices, kind="stable")
        sorted_groups = group_indices[order]
        sorted_downloads = downloads[order]
        present, starts = np.unique(sorted_groups, return_index=True)
        bounds = np.append(starts, sorted_groups.size)
        sorted_tiers = np.empty(downloads.size, dtype=np.int64)
        n_fallback = 0
        for gi, lo, hi in zip(present, bounds[:-1], bounds[1:]):
            gi = int(gi)
            sorted_tiers[lo:hi] = self._segment_tiers(
                gi, sorted_downloads[lo:hi]
            )
            if gi not in self._download_predict:
                n_fallback += hi - lo
        tiers = np.empty(downloads.size, dtype=np.int64)
        tiers[order] = sorted_tiers
        return tiers, int(n_fallback)

    def _segment_tiers(self, gi: int, downloads: np.ndarray) -> np.ndarray:
        """Exact tiers of one upload group's downloads."""
        predict = self._download_predict.get(gi)
        if predict is None:
            return self._fallback_assign(gi, downloads)
        return self._download_tiers[gi][predict(downloads)]

    def _fallback_assign(self, gi: int, downloads: np.ndarray) -> np.ndarray:
        log_plans = self._fallback_log_downloads[gi]
        log_downloads = np.log(np.maximum(downloads, 1e-6))
        nearest = np.argmin(
            np.abs(log_downloads[:, None] - log_plans[None, :]), axis=1
        )
        return self._fallback_tiers[gi][nearest]

    def assign_one(self, download: float, upload: float) -> tuple[int, int]:
        """Assign one tuple; returns ``(tier, group_index)``."""
        batch = self.assign([download], [upload])
        return int(batch.tiers[0]), int(batch.group_indices[0])

    def to_result(self, downloads, uploads) -> BSTResult:
        """A :class:`BSTResult` for new data under this frozen fit.

        Shares the stage fits (cluster means/weights/diagnostics) with
        the training result; only ``group_indices``/``tiers`` describe
        the new rows.  This is what the ``contextualize`` reuse path
        attaches to its :class:`ContextualizedDataset`.
        """
        batch = self.assign(downloads, uploads)
        return BSTResult(
            catalog=self.catalog,
            upload_stage=self.result.upload_stage,
            download_stages=self.result.download_stages,
            group_indices=batch.group_indices,
            tiers=batch.tiers,
        )

    def group_labels(self, group_indices: np.ndarray) -> list[str]:
        """Paper-style span labels for a batch's group indices."""
        labels = self._group_labels
        return map_rows(group_indices, labels.__getitem__, object).tolist()


# ---------------------------------------------------------------------------
# Micro-batching for streaming input
# ---------------------------------------------------------------------------
_SENTINEL = object()


class MicroBatcher:
    """Bounded micro-batching queue in front of a :class:`TierAssigner`.

    Producers call :meth:`submit` (or the blocking :meth:`assign_one`);
    a single worker thread blocks for the next tuple, takes whatever
    else is already queued without waiting (up to ``max_batch``) and
    flushes one vectorised ``assign`` at once.  Batches form under load,
    from the tuples that arrive while the previous flush runs; an idle
    batcher flushes each tuple on arrival.  The queue holds at most
    ``max_pending`` tuples; a full queue blocks ``submit``
    (backpressure) rather than buffering unboundedly.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.bst import BSTModel
    >>> from repro.market.isps import city_catalog
    >>> rng = np.random.default_rng(0)
    >>> ups = np.concatenate([rng.normal(5.5, .4, 400), rng.normal(40, 2, 400)])
    >>> downs = np.concatenate([rng.normal(110, 9, 400), rng.normal(900, 60, 400)])
    >>> assigner = TierAssigner(BSTModel(city_catalog("A")).fit(downs, ups))
    >>> batcher = MicroBatcher(assigner)
    >>> tier, group = batcher.assign_one(110.0, 5.5)
    >>> batcher.close()
    >>> (tier, group) == assigner.assign_one(110.0, 5.5)
    True
    """

    def __init__(
        self,
        assigner: TierAssigner,
        max_batch: int = 256,
        max_pending: int = 4096,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_pending < max_batch:
            raise ValueError("max_pending must be >= max_batch")
        self.assigner = assigner
        self.max_batch = int(max_batch)
        self._queue: queue.Queue = queue.Queue(maxsize=int(max_pending))
        self._closed = threading.Event()
        # Serialises the closed-check-then-enqueue in submit() against
        # close(): without it a producer could pass the check, lose the
        # race, and enqueue *behind* the shutdown sentinel -- its future
        # would never resolve.  The flush worker never takes this lock,
        # so a producer blocked on a full queue (backpressure) cannot
        # deadlock close(): the worker keeps draining underneath it.
        self._submit_lock = threading.Lock()
        self._worker = threading.Thread(
            target=self._run, name="serve-microbatch", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    def submit(
        self,
        download: float,
        upload: float,
        timeout_s: float | None = None,
    ) -> Future:
        """Enqueue one tuple; resolves to ``(tier, group_index)``.

        Blocks while the queue is full (bounded buffering); raises
        ``queue.Full`` when ``timeout_s`` elapses first, and
        :class:`BatcherClosedError` at (or after) :meth:`close` -- a
        submission racing shutdown either resolves its future or fails
        here explicitly, never hangs.
        """
        fut: Future = Future()
        with self._submit_lock:
            if self._closed.is_set():
                raise BatcherClosedError("MicroBatcher is closed")
            # Capture the submitter's trace id: the flush happens on the
            # worker thread, outside the request's context.
            self._queue.put(
                (float(download), float(upload), fut, current_trace_id()),
                timeout=timeout_s,
            )
        return fut

    def assign_one(
        self,
        download: float,
        upload: float,
        timeout_s: float = 30.0,
    ) -> tuple[int, int]:
        """Submit one tuple and wait for its ``(tier, group_index)``.

        ``timeout_s`` bounds the *whole* call: time spent blocked on a
        full queue comes out of the same budget as waiting for the
        flush result, instead of each phase spending the full timeout.
        """
        deadline = time.monotonic() + timeout_s
        fut = self.submit(download, upload, timeout_s=timeout_s)
        remaining = max(deadline - time.monotonic(), 0.0)
        return fut.result(timeout=remaining)

    def close(self, timeout_s: float = 10.0) -> None:
        """Stop accepting work, drain pending tuples, join the worker."""
        with self._submit_lock:
            already_closed = self._closed.is_set()
            self._closed.set()
        if already_closed:
            return
        self._queue.put(_SENTINEL)
        self._worker.join(timeout=timeout_s)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        # Greedy drain: block for one tuple, then take whatever else is
        # already queued (up to max_batch) without waiting, and flush at
        # once.  Under load tuples pile up while the previous flush runs,
        # so batches still form; a lone tuple never waits for company.
        # close() enqueues the sentinel last, so it always ends a batch.
        while True:
            batch = [self._queue.get()]
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            stop = batch[-1] is _SENTINEL
            if stop:
                batch.pop()
            if batch:
                self._flush(batch)
            if stop:
                return

    def _flush(
        self, batch: Sequence[tuple[float, float, Future, str | None]]
    ) -> None:
        downloads = np.asarray([item[0] for item in batch])
        uploads = np.asarray([item[1] for item in batch])
        obs_metrics.counter("serve.batch_flushes").inc()
        obs_metrics.histogram("serve.batch_size").observe(len(batch))
        try:
            with use_trace_id(_batch_trace_label(batch)):
                result = self.assigner.assign(downloads, uploads)
        except Exception as exc:  # propagate to every waiter
            for _, _, fut, _ in batch:
                if not fut.cancelled():
                    fut.set_exception(exc)
            return
        for i, (_, _, fut, _) in enumerate(batch):
            if not fut.cancelled():
                fut.set_result(
                    (int(result.tiers[i]), int(result.group_indices[i]))
                )


def _batch_trace_label(
    batch: Sequence[tuple[float, float, Future, str | None]],
) -> str | None:
    """A joint trace label for one flush: up to 4 ids, then ``+N``.

    A flush serves many requests, so the ``serve.assign`` span gets a
    composite id that still lets an operator find the contributing
    requests.
    """
    unique = list(
        dict.fromkeys(item[3] for item in batch if item[3] is not None)
    )
    if not unique:
        return None
    label = ",".join(unique[:4])
    if len(unique) > 4:
        label += f"+{len(unique) - 4}"
    return label
