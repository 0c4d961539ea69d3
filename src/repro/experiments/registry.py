"""Registry mapping paper artifact ids to experiment drivers."""

from __future__ import annotations

import inspect
import time
from typing import Callable

from repro.obs import metrics as obs_metrics
from repro.obs.quality import get_quality
from repro.obs.trace import get_collector, span

from repro.experiments.base import ExperimentResult, Scale
from repro.experiments.exp_ablations import (
    run_ablation_clusterer,
    run_ablation_consistency_metric,
    run_ablation_joint_2d,
    run_ablation_seeding,
    run_ablation_upload_first,
)
from repro.experiments.exp_bst_validation import (
    run_fig3,
    run_fig4,
    run_fig5,
    run_tab2,
)
from repro.experiments.exp_cities import run_fig14_18, run_tab5_7
from repro.experiments.exp_cross_city import run_ext_cross_city
from repro.experiments.exp_extensions import (
    run_ablation_transfer,
    run_ext_debias,
    run_ext_geolocation,
    run_ext_latency,
    run_ext_metadata,
    run_ext_modem,
    run_ext_paired_vendors,
)
from repro.experiments.exp_consistency import run_fig2, run_fig8
from repro.experiments.exp_contextualization import (
    run_fig6,
    run_fig7,
    run_tab3,
    run_tab4,
)
from repro.experiments.exp_local_factors import run_fig9, run_fig10
from repro.experiments.exp_motivating import run_fig1, run_tab1
from repro.experiments.exp_timeofday import run_fig11, run_fig12
from repro.experiments.exp_vendor import run_fig13

__all__ = ["REGISTRY", "get_experiment", "run_experiment"]

Runner = Callable[..., ExperimentResult]

REGISTRY: dict[str, Runner] = {
    "fig1": run_fig1,
    "tab1": run_tab1,
    "fig2": run_fig2,
    "tab2": run_tab2,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "tab3": run_tab3,
    "fig7": run_fig7,
    "tab4": run_tab4,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "tab5-7": run_tab5_7,
    "fig14-18": run_fig14_18,
    "ablation-upload-first": run_ablation_upload_first,
    "ablation-clusterer": run_ablation_clusterer,
    "ablation-seeding": run_ablation_seeding,
    "ablation-consistency-metric": run_ablation_consistency_metric,
    "ablation-joint-2d": run_ablation_joint_2d,
    "ablation-transfer": run_ablation_transfer,
    "ext-modem": run_ext_modem,
    "ext-geolocation": run_ext_geolocation,
    "ext-metadata": run_ext_metadata,
    "ext-debias": run_ext_debias,
    "ext-cross-city": run_ext_cross_city,
    "ext-latency": run_ext_latency,
    "ext-paired-vendors": run_ext_paired_vendors,
}


def get_experiment(experiment_id: str) -> Runner:
    """Look up a driver by artifact id; raises ``KeyError`` with options."""
    try:
        return REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {sorted(REGISTRY)}"
        ) from None


def run_experiment(
    experiment_id: str,
    scale: Scale = Scale.MEDIUM,
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentResult:
    """Run one registered experiment.

    Always records the total wall time in ``result.timings["total_s"]``.
    When a span collector is active (``repro.obs``), the run is wrapped
    in an ``experiment.<id>`` span and per-stage span totals (seconds,
    keyed by span name) are attached to ``timings`` as well.

    ``jobs`` is forwarded to drivers that declare a ``jobs`` parameter
    (the multi-city experiments fan their independent per-(city, ISP)
    fits out over a process pool); drivers without one run unchanged.
    Parallel runs produce the same results as serial ones.

    When a quality monitor is active (``repro.obs.quality``), the
    monitor's report is attached to ``result.quality`` and its headline
    rates are published as ``quality.*`` gauges.
    """
    runner = get_experiment(experiment_id)
    kwargs: dict = {"scale": scale, "seed": seed}
    if "jobs" in inspect.signature(runner).parameters:
        kwargs["jobs"] = jobs
    collector = get_collector()
    before = len(collector.spans()) if collector.enabled else 0
    start = time.perf_counter()
    with span(
        "experiment." + experiment_id, scale=scale.value, seed=seed, jobs=jobs
    ):
        result = runner(**kwargs)
    total = time.perf_counter() - start
    obs_metrics.counter("experiments.run").inc()
    if collector.enabled:
        stage_totals: dict[str, float] = {}
        for sp in collector.spans()[before:]:
            stage_totals[sp.name] = (
                stage_totals.get(sp.name, 0.0) + sp.duration_s
            )
        stage_totals.pop("experiment." + experiment_id, None)
        for name in sorted(stage_totals):
            result.timings[name] = stage_totals[name]
    result.timings["total_s"] = total
    quality = get_quality()
    if quality.enabled:
        result.quality = quality.report()
    return result
