"""Paired vendor generation: one household, both platforms.

Section 6.3 compares Ookla and M-Lab "within the same subscription
tier, for the same city, and the same ISP" -- a population-level
matching, because the real datasets cannot link a household across
vendors.  The simulator can: this module drives *one* subscriber
population through both vendors' methodologies, so the vendor gap can
be measured per household with everything else held fixed.  This is
the strongest form of the paper's claim, achievable only in
simulation.
"""

from __future__ import annotations

import numpy as np

from repro.frame import ColumnTable
from repro.market.isps import city_catalog
from repro.market.population import SubscriberPopulation, default_city_config
from repro.netsim.latency import LatencyModel
from repro.netsim.path import (
    MULTI_FLOW_PROFILE,
    SINGLE_FLOW_NDT_PROFILE,
    PathSimulator,
)
from repro.netsim.servers import MLAB_POOL, OOKLA_POOL
from repro.vendors.schema import sample_test_hour

__all__ = ["generate_paired_tests"]


def generate_paired_tests(
    city: str,
    n_users: int,
    seed: int = 0,
) -> ColumnTable:
    """One Ookla-style and one NDT-style test per simulated household.

    Both tests share the household (plan, access link, WiFi placement,
    device) and the local hour; each runs under its own vendor's flow
    profile and server pool.  Returns one row per user with
    ``ookla_download_mbps`` / ``mlab_download_mbps`` (and uploads), the
    household ground truth, and the per-user vendor ratio.
    """
    if n_users < 1:
        raise ValueError("need at least one user")
    catalog = city_catalog(city)
    population = SubscriberPopulation(
        city, catalog, default_city_config(city, "ookla"), seed=seed
    )
    users = population.generate_users(n_users, seed=seed + 1)
    ookla_path = PathSimulator(
        latency_model=LatencyModel(**OOKLA_POOL.latency_model_kwargs()),
        seed=seed,
    )
    mlab_path = PathSimulator(
        latency_model=LatencyModel(**MLAB_POOL.latency_model_kwargs()),
        seed=seed,
    )
    rng = np.random.default_rng(seed + 2)
    index = np.arange(len(users))
    hours = sample_test_hour(rng, len(users))
    ookla_tests = ookla_path.compute(
        ookla_path.draw(MULTI_FLOW_PROFILE, users, index, hours, rng)
    )
    mlab_tests = mlab_path.compute(
        mlab_path.draw(SINGLE_FLOW_NDT_PROFILE, users, index, hours, rng)
    )
    return ColumnTable(
        {
            "user_id": np.array([u.user_id for u in users], dtype=object),
            "city": np.full(len(users), city.upper(), dtype=object),
            "true_tier": np.asarray([u.tier for u in users]),
            "plan_download_mbps": np.asarray(
                [u.plan.download_mbps for u in users]
            ),
            "plan_upload_mbps": np.asarray([u.plan.upload_mbps for u in users]),
            "hour": ookla_tests.hour,
            "ookla_download_mbps": ookla_tests.download_mbps,
            "ookla_upload_mbps": ookla_tests.upload_mbps,
            "mlab_download_mbps": mlab_tests.download_mbps,
            "mlab_upload_mbps": mlab_tests.upload_mbps,
        }
    )
