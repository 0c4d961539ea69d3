"""Process-pool fan-out for independent fits.

The BST pipeline contains several embarrassingly parallel stages: the
per-upload-group download fits inside :meth:`BSTModel.fit`, and the
per-(city, ISP) fits the multi-city experiments run.  This module gives
them one shared primitive, :func:`parallel_map`, which fans a picklable
worker out over a ``concurrent.futures`` process pool while preserving
input order -- so a parallel run returns *byte-identical* results to the
serial one (every worker is deterministic given its arguments, and
results are gathered in submission order).

Conventions shared by every ``jobs`` knob in the repo (``BSTConfig.jobs``,
``BSTModel.fit(jobs=...)``, ``contextualize(jobs=...)``,
``run_experiment(jobs=...)`` and the ``--jobs`` CLI flag):

- ``1`` (the default) runs serially in-process -- no pool, no pickling,
  exactly the pre-parallel code path;
- ``N > 1`` uses a pool of ``N`` worker processes;
- ``0`` (or any negative value) means "all CPUs" (``os.cpu_count()``).

Observability: when the parent has a span collector or metrics registry
installed, each pooled task runs under a fresh in-worker collector and
registry, and the finished spans plus the metrics state are shipped back
with the task result and merged into the parent sinks -- worker spans
re-parent under the fan-out's ``parallel.map`` span (stamped with
``worker=<pid>`` and ``task=<index>``), counters add, histograms merge
including their quantile reservoir samples.  A ``--trace-out``/``--metrics``
run therefore sees the same stages with ``--jobs N`` as with the serial
path.  When neither sink is installed the tasks are submitted bare, so
an uninstrumented parallel run pays no capture overhead.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.trace import span

__all__ = ["resolve_jobs", "parallel_map"]

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``jobs`` knob to a concrete worker count (>= 1).

    ``None`` and ``1`` mean serial; ``0`` or negative mean all CPUs.
    """
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return jobs


class _ObsTask:
    """Picklable wrapper running one task under fresh in-worker sinks.

    Returns ``(result, span_rows, metrics_dump, worker_pid)`` so the
    parent can merge the worker's observability state; the wrapped
    ``fn``'s return value is passed through untouched, keeping pooled
    results byte-identical to serial ones.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[T], R]) -> None:
        self.fn = fn

    def __call__(
        self, task: T
    ) -> tuple[R, list[dict], dict[str, dict], int]:
        from repro.obs import use_collector, use_registry

        with use_collector() as collector, use_registry() as registry:
            result = self.fn(task)
        rows = [sp.to_dict() for sp in collector.spans()]
        # to_dict drops end_s; start_s stays on the worker's own
        # perf_counter timeline and is rebased by the parent.
        for sp, row in zip(collector.spans(), rows):
            row["start_s"] = sp.start_s
        return result, rows, registry.dump(), os.getpid()


def parallel_map(
    fn: Callable[[T], R],
    tasks: Iterable[T],
    jobs: int | None,
    span_name: str = "parallel.map",
) -> list[R]:
    """Map ``fn`` over ``tasks``, optionally across a process pool.

    Results come back in task order regardless of completion order, so
    parallel output is identical to ``[fn(t) for t in tasks]``.  With an
    effective worker count of 1 (or fewer than two tasks) no pool is
    created and the serial path runs unchanged.  ``fn`` and every task
    must be picklable when a pool is used.

    Spans and metrics recorded inside pooled workers are captured and
    merged into the parent's active sinks (see the module docstring);
    without active sinks the capture machinery stays out of the way.
    """
    tasks_list: Sequence[T] = list(tasks)
    workers = min(resolve_jobs(jobs), len(tasks_list))
    if workers <= 1:
        return [fn(task) for task in tasks_list]

    collector = obs_trace.get_collector()
    registry = obs_metrics.get_registry()
    capture = collector.enabled or registry.enabled

    with span(span_name, jobs=workers, tasks=len(tasks_list)) as pool_span:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            if capture:
                wrapped = pool.map(_ObsTask(fn), tasks_list)
                results: list[R] = []
                for index, (result, rows, dump, pid) in enumerate(wrapped):
                    results.append(result)
                    _merge_worker_obs(
                        collector, registry, pool_span,
                        rows, dump, pid, index,
                    )
            else:
                results = list(pool.map(fn, tasks_list))
    obs_metrics.counter("parallel.pool_tasks").inc(len(tasks_list))
    return results


def _merge_worker_obs(
    collector: Any,
    registry: Any,
    pool_span: Any,
    rows: list[dict],
    dump: dict[str, dict],
    pid: int,
    index: int,
) -> None:
    """Fold one pooled task's spans and metrics into the parent sinks."""
    if collector.enabled and rows:
        parent_id = getattr(pool_span, "span_id", None)
        collector.adopt_spans(
            rows,
            parent_id=parent_id,
            rebase_to=getattr(pool_span, "start_s", None),
            worker=pid,
            task=index,
        )
    if registry.enabled:
        registry.merge_dump(dump)
