"""Extension experiments beyond the paper's figures.

Three analyses the paper motivates but leaves out of scope:

- ``ext-modem`` -- the cable modem's DOCSIS generation as a hidden
  premium-tier bottleneck (Section 8: modem make/model is "likely also
  essential" context).
- ``ext-geolocation`` -- quantifying the Section 3.4 localisation
  claim: GPS-truncated coordinates can attribute tests to a census
  block, IP geolocation cannot.
- ``ext-metadata`` -- the Section 8 recommendations engine: audit each
  vendor's schema for the recommended context fields.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import data
from repro.experiments.base import ExperimentResult, Scale
from repro.market.census import CensusGrid
from repro.market.geo import GeolocationModel, block_attribution_accuracy
from repro.market.isps import city_catalog
from repro.market.population import Household, Subscriber
from repro.netsim.path import WIRED_PANEL_PROFILE, PathSimulator
from repro.pipeline.metadata import audit_metadata, recommend
from repro.pipeline.report import format_table

__all__ = [
    "run_ext_modem",
    "run_ext_geolocation",
    "run_ext_metadata",
    "run_ext_debias",
    "run_ext_latency",
    "run_ext_paired_vendors",
    "run_ablation_transfer",
]


def run_ext_modem(
    scale: Scale = Scale.MEDIUM, seed: int = 0
) -> ExperimentResult:
    """Premium-tier throughput with and without modem-generation modelling.

    Wired gigabit-plan tests are simulated twice: once with the default
    path model and once with the household's DOCSIS modem as an extra
    ceiling.  The installed-base tail of DOCSIS 3.0 8x4 devices caps a
    visible share of tests near 343 Mbps.
    """
    plan = city_catalog("A").plan_for_tier(6)
    n = {"small": 300, "medium": 1200, "large": 4000}[scale.value]
    results: dict[bool, np.ndarray] = {}
    users = [
        Subscriber(
            f"ext-modem-u{i}",
            Household(f"ext-modem-h{i}", "A", 6, plan, -40.0, 5.0),
            "desktop-ethernet", "ethernet", 16.0, 1,
        )
        for i in range(n)
    ]
    for modems in (False, True):
        sim = PathSimulator(seed=seed, model_modems=modems)
        draws = sim.draw(
            WIRED_PANEL_PROFILE, users, np.arange(n), np.full(n, 3),
            np.random.default_rng(seed + 5),
        )
        results[modems] = sim.compute(draws).download_mbps
    rows = []
    metrics: dict[str, float] = {}
    for modems, speeds in results.items():
        label = "with modems" if modems else "baseline"
        capped = float(np.mean(speeds < 400.0))
        rows.append(
            [
                label,
                round(float(np.median(speeds)), 1),
                round(capped, 3),
            ]
        )
        metrics[f"median_{'modem' if modems else 'base'}"] = float(
            np.median(speeds)
        )
        metrics[f"capped_share_{'modem' if modems else 'base'}"] = capped
    return ExperimentResult(
        experiment_id="ext-modem",
        title="DOCSIS modem generation as a premium-tier bottleneck",
        sections={
            "gigabit-plan wired tests": format_table(
                rows, ["model", "median dl (Mbps)", "share < 400 Mbps"]
            )
        },
        metrics=metrics,
        notes=(
            "An aged modem silently caps a 1.2 Gbps plan near 343 Mbps "
            "-- context the paper recommends collecting but could not."
        ),
    )


def run_ext_geolocation(
    scale: Scale = Scale.MEDIUM, seed: int = 0
) -> ExperimentResult:
    """Census-block attribution accuracy per localisation channel."""
    grid = CensusGrid("A", rows=12, cols=12, seed=seed)
    tests = {"small": 3, "medium": 8, "large": 20}[scale.value]
    gps = block_attribution_accuracy(
        grid, GeolocationModel.gps_truncated(),
        tests_per_block=tests, seed=seed,
    )
    ip = block_attribution_accuracy(
        grid, GeolocationModel.ip_geolocation(),
        tests_per_block=tests, seed=seed,
    )
    rows = [
        ["Ookla GPS (3-decimal truncation, ~111 m)", round(gps, 3)],
        ["M-Lab IP geolocation (~12 km median)", round(ip, 3)],
    ]
    return ExperimentResult(
        experiment_id="ext-geolocation",
        title="Census-block attribution accuracy by localisation channel",
        sections={
            "attribution accuracy (250 m blocks)": format_table(
                rows, ["channel", "accuracy"]
            )
        },
        metrics={"gps_accuracy": gps, "ip_accuracy": ip},
        notes=(
            "Quantifies Section 3.4: truncated GPS localises to the "
            "block most of the time; IP geolocation essentially never "
            "does, so neither channel identifies a residence."
        ),
    )


def run_ext_paired_vendors(
    scale: Scale = Scale.MEDIUM, seed: int = 0
) -> ExperimentResult:
    """Per-household Ookla/M-Lab gap with everything else held fixed.

    The strongest form of the Section 6.3 comparison, possible only in
    simulation: the *same* households run both vendors' tests in the
    same hour.  The per-household download ratio isolates the pure
    methodology effect (flow count, ramp handling, server distance).
    """
    from repro.vendors.paired import generate_paired_tests

    n_users = {"small": 1200, "medium": 5000, "large": 20000}[scale.value]
    paired = generate_paired_tests("A", n_users, seed=seed)
    ookla = np.asarray(paired["ookla_download_mbps"], dtype=float)
    mlab = np.asarray(paired["mlab_download_mbps"], dtype=float)
    tiers = np.asarray(paired["true_tier"], dtype=int)
    ratio = ookla / np.maximum(mlab, 1e-9)
    rows = []
    metrics: dict[str, float] = {}
    groups = {
        "Tier 1-3": tiers <= 3,
        "Tier 4": tiers == 4,
        "Tier 5": tiers == 5,
        "Tier 6": tiers == 6,
    }
    for label, mask in groups.items():
        if not mask.any():
            continue
        med = float(np.median(ratio[mask]))
        rows.append(
            [
                label,
                int(mask.sum()),
                round(med, 2),
                round(float(np.mean(ratio[mask] > 1.0)), 3),
            ]
        )
        metrics[f"paired_lag_{label}"] = med
        metrics[f"ookla_wins_{label}"] = float(
            np.mean(ratio[mask] > 1.0)
        )
    metrics["overall_paired_lag"] = float(np.median(ratio))
    return ExperimentResult(
        experiment_id="ext-paired-vendors",
        title="Per-household vendor gap (paired tests, same household)",
        sections={
            "ookla/mlab download ratio": format_table(
                rows,
                ["tier group", "households", "median ratio",
                 "ookla wins"],
            )
        },
        metrics=metrics,
        notes=(
            "With household, plan, WiFi and hour held fixed, Ookla's "
            "multi-flow test out-measures NDT in most homes and by a "
            "growing factor at higher tiers -- the population-matched "
            "Figure 13 gap is methodology, not sampling."
        ),
    )


def run_ext_latency(
    scale: Scale = Scale.MEDIUM, seed: int = 0
) -> ExperimentResult:
    """Latency by access type and WiFi band (the QoS side of Figure 9).

    Ookla records latency with every test; prior work cited by the
    paper ([41], [45]) shows the WiFi hop -- and especially the crowded
    2.4 GHz band -- inflates it.
    """
    from repro.pipeline.qos import latency_by_access, latency_by_band

    ctx = data.ookla_contextualized("A", scale, seed)
    access = latency_by_access(ctx.table)
    band = latency_by_band(ctx.table)
    rows = []
    metrics: dict[str, float] = {}
    for comparison in (access, band):
        for label, values in comparison.groups.items():
            med = float(np.median(values)) if values.size else float("nan")
            rows.append(
                [comparison.factor, label, len(values), round(med, 1)]
            )
            metrics[f"{label}_median_ms"] = med
    return ExperimentResult(
        experiment_id="ext-latency",
        title="Latency by access type and WiFi band",
        sections={
            "median RTT (ms)": format_table(
                rows, ["factor", "group", "n", "median"]
            )
        },
        metrics=metrics,
        notes="WiFi > Ethernet, and 2.4 GHz > 5 GHz, in median latency.",
    )


def run_ext_debias(
    scale: Scale = Scale.MEDIUM, seed: int = 0
) -> ExperimentResult:
    """Raw vs tier-rebalanced city medians (the Section 5.1 warning).

    The raw city median describes the lower tiers because they dominate
    the sample; reweighting each tier to the MBA panel's subscription
    mix (or a uniform mix) shows how much the skew drags the aggregate.
    """
    from repro.pipeline.debias import debiased_summary

    ctx = data.ookla_contextualized("A", scale, seed)
    uniform = debiased_summary(ctx.table)
    # Target the State-A MBA panel's subscription mix (Section 4.3
    # counts), which is the best available census of who buys what.
    mba_mix = {2: 0.32, 3: 0.29, 4: 0.16, 5: 0.095, 6: 0.135}
    panel = debiased_summary(ctx.table, target_shares=mba_mix)
    rows = [
        ["raw sample", round(uniform["raw_median"], 1)],
        ["uniform tier mix", round(uniform["debiased_median"], 1)],
        ["MBA panel mix", round(panel["debiased_median"], 1)],
    ]
    return ExperimentResult(
        experiment_id="ext-debias",
        title="Raw vs tier-rebalanced City-A download median",
        sections={
            "median download (Mbps)": format_table(
                rows, ["weighting", "median"]
            )
        },
        metrics={
            "raw_median": uniform["raw_median"],
            "uniform_debiased_median": uniform["debiased_median"],
            "panel_debiased_median": panel["debiased_median"],
        },
        notes=(
            "Both rebalancings raise the estimated city median above "
            "the raw sample's -- the low-tier sampling skew quantified."
        ),
    )


def run_ablation_transfer(
    scale: Scale = Scale.MEDIUM, seed: int = 0
) -> ExperimentResult:
    """Scalar efficiency factors vs the time-stepped transfer model.

    The path simulator folds transfer dynamics into
    ``saturation_efficiency x methodology_efficiency``.  Here the same
    quantities are *derived* from the fluid slow-start/congestion-
    avoidance model of :mod:`repro.netsim.transfer`, per capacity and
    per vendor methodology, and compared.
    """
    from repro.netsim.path import (
        MULTI_FLOW_PROFILE,
        SINGLE_FLOW_NDT_PROFILE,
    )
    from repro.netsim.tcp import saturation_efficiency
    from repro.netsim.transfer import derived_methodology_efficiency

    n_runs = {"small": 3, "medium": 6, "large": 12}[scale.value]
    rows = []
    metrics: dict[str, float] = {}
    for capacity in (100.0, 400.0, 1200.0):
        scalar_multi = saturation_efficiency(capacity)
        scalar_single = (
            saturation_efficiency(capacity)
            * SINGLE_FLOW_NDT_PROFILE.methodology_efficiency
        )
        dynamic_multi = derived_methodology_efficiency(
            capacity,
            n_flows=MULTI_FLOW_PROFILE.n_flows,
            duration_s=15.0,
            discard_ramp=True,
            n_runs=n_runs,
            seed=seed,
        )
        dynamic_single = derived_methodology_efficiency(
            capacity,
            n_flows=1,
            duration_s=10.0,
            discard_ramp=False,
            n_runs=n_runs,
            seed=seed,
        )
        rows.append(
            [
                f"{capacity:g}",
                round(scalar_multi, 3),
                round(dynamic_multi, 3),
                round(scalar_single, 3),
                round(dynamic_single, 3),
            ]
        )
        metrics[f"scalar_multi_{capacity:g}"] = scalar_multi
        metrics[f"dynamic_multi_{capacity:g}"] = dynamic_multi
        metrics[f"scalar_single_{capacity:g}"] = scalar_single
        metrics[f"dynamic_single_{capacity:g}"] = dynamic_single
    return ExperimentResult(
        experiment_id="ablation-transfer",
        title="Scalar efficiency factors vs time-stepped transfer model",
        sections={
            "reported/capacity ratio": format_table(
                rows,
                [
                    "capacity (Mbps)",
                    "scalar multi",
                    "dynamic multi",
                    "scalar single",
                    "dynamic single",
                ],
            )
        },
        metrics=metrics,
        notes=(
            "Both models agree on the shape: single-flow efficiency "
            "collapses with capacity while multi-flow stays high.  The "
            "scalar model is more pessimistic at gigabit rates because "
            "it also absorbs receive-window and server-side limits that "
            "the fluid model does not represent."
        ),
    )


def run_ext_metadata(
    scale: Scale = Scale.MEDIUM, seed: int = 0
) -> ExperimentResult:
    """Section 8 recommendations, applied to each vendor's schema."""
    datasets = {
        "Ookla (contextualised)": data.ookla_contextualized(
            "A", scale, seed
        ).table,
        "Ookla (raw)": data.ookla_dataset("A", scale, seed),
        "M-Lab (joined)": data.mlab_joined_dataset("A", scale, seed),
        "MBA": data.mba_dataset("A", scale, seed),
    }
    rows = []
    metrics: dict[str, float] = {}
    sections: dict[str, str] = {}
    for label, table in datasets.items():
        audit = audit_metadata(table)
        rows.append(
            [
                label,
                round(audit.interpretability, 3),
                len(audit.missing_fields()),
            ]
        )
        metrics[f"interpretability|{label}"] = audit.interpretability
    sections["interpretability per dataset"] = format_table(
        rows, ["dataset", "score", "missing fields"]
    )
    mlab_audit = audit_metadata(
        data.mlab_joined_dataset("A", scale, seed)
    )
    sections["recommendations for M-Lab"] = "\n".join(
        f"{i}. {text}"
        for i, text in enumerate(recommend(mlab_audit), start=1)
    )
    return ExperimentResult(
        experiment_id="ext-metadata",
        title="Metadata audit: which context each vendor publishes",
        sections=sections,
        metrics=metrics,
        notes=(
            "The contextualised Ookla table scores highest; raw NDT "
            "data carries almost none of the recommended context."
        ),
    )
