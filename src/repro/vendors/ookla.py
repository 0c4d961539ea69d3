"""Ookla Speedtest simulator.

Generates a year of Speedtest Intelligence-style records for one city's
dominant ISP.  Methodology per Section 3.1: "a nearby test server is
selected and multiple TCP connections are used to calculate the
throughput"; native-application rows identify the device platform, and
Android rows additionally carry WiFi band, RSSI and available kernel
memory; web rows carry no device metadata.
"""

from __future__ import annotations

import numpy as np

from repro.frame import ColumnTable
from repro.market.isps import city_catalog
from repro.market.plans import PlanCatalog
from repro.market.population import (
    PopulationConfig,
    Subscriber,
    SubscriberPopulation,
    default_city_config,
)
from repro.netsim.latency import LatencyModel
from repro.netsim.path import MULTI_FLOW_PROFILE, FlowProfile, PathSimulator
from repro.netsim.servers import OOKLA_POOL
from repro.obs import metrics as obs_metrics
from repro.obs.quality import get_quality
from repro.obs.trace import span
from repro.vendors.schema import OOKLA_COLUMNS, sample_test_hour, sample_test_month

__all__ = ["OoklaSimulator"]


class OoklaSimulator:
    """Simulate Ookla Speedtest measurements for one city.

    Parameters
    ----------
    city:
        City id ("A"-"D").
    catalog:
        Plan catalog; defaults to the city's dominant ISP menu.
    config:
        Population config; defaults to the Table 3/5-7 calibrated Ookla mix.
    profile:
        TCP methodology; defaults to the multi-flow profile.
    seed:
        Master seed -- generation is fully deterministic per seed.

    Examples
    --------
    >>> table = OoklaSimulator("A", seed=1).generate(200)
    >>> set(table.column_names) == set(OOKLA_COLUMNS)
    True
    """

    def __init__(
        self,
        city: str,
        catalog: PlanCatalog | None = None,
        config: PopulationConfig | None = None,
        profile: FlowProfile = MULTI_FLOW_PROFILE,
        seed: int = 0,
    ):
        self.city = city.upper()
        self.catalog = catalog or city_catalog(self.city)
        self.config = config or default_city_config(self.city, "ookla")
        self.profile = profile
        self.seed = seed
        self.population = SubscriberPopulation(
            self.city, self.catalog, self.config, seed=seed
        )
        # Ookla's dense server pool puts a test server nearby
        # (Section 3.1: >16k servers), shortening the base RTT.
        self.path = PathSimulator(
            latency_model=LatencyModel(**OOKLA_POOL.latency_model_kwargs()),
            seed=seed,
        )

    # ------------------------------------------------------------------
    def generate_users(self, n_tests: int) -> list[Subscriber]:
        """Enough subscribers to cover ``n_tests`` measurements.

        Users come from population batches of ``max(64, n_tests // 2)``,
        each built only as far as it is needed.
        """
        if n_tests < 0:
            raise ValueError("n_tests cannot be negative")
        rng = np.random.default_rng(self.seed)
        users: list[Subscriber] = []
        total = 0
        batch = max(64, n_tests // 2)
        while total < n_tests:
            for user in self.population.iter_users(
                batch, seed=int(rng.integers(0, 2**63))
            ):
                users.append(user)
                total += user.n_tests
                if total >= n_tests:
                    break
        return users

    def generate(self, n_tests: int) -> ColumnTable:
        """Generate approximately ``n_tests`` Speedtest records.

        Each subscriber contributes their full test count, so the output
        has at least ``n_tests`` rows (a user's tests are never split).
        """
        with span(
            "vendor.ookla.generate", city=self.city, n_tests=n_tests
        ) as sp:
            table = self._generate(n_tests)
            sp.set(rows=len(table))
        obs_metrics.counter("tests.generated").inc(len(table))
        quality = get_quality()
        if quality.enabled:
            quality.field("ookla.download_mbps").observe_array(
                table["download_mbps"]
            )
            quality.field("ookla.upload_mbps").observe_array(
                table["upload_mbps"]
            )
            quality.field("ookla.latency_ms").observe_array(
                table["latency_ms"]
            )
        return table

    def _generate(self, n_tests: int) -> ColumnTable:
        users = self.generate_users(n_tests)
        if not users:
            return ColumnTable({name: [] for name in OOKLA_COLUMNS})
        rng = np.random.default_rng(self.seed + 1)
        counts = [user.n_tests for user in users]
        user_of_test = np.repeat(np.arange(len(users)), counts)
        n = len(user_of_test)
        # A user's repeated tests cluster within a couple of months --
        # people test while debugging a problem, not uniformly.
        anchor_month = sample_test_month(rng, len(users))
        months = np.clip(
            anchor_month[user_of_test] + rng.integers(-1, 2, n), 1, 12
        )
        hours = sample_test_hour(rng, n)
        tests = self.path.compute(
            self.path.draw(self.profile, users, user_of_test, hours, rng)
        )

        def per_user(values, dtype=None) -> np.ndarray:
            return np.repeat(np.asarray(values, dtype=dtype), counts)

        platforms = [user.platform for user in users]
        is_android = [p == "android" for p in platforms]
        return ColumnTable(
            {
                "test_id": np.array(
                    [f"ookla-{self.city}-{i:08d}" for i in range(n)],
                    dtype=object,
                ),
                "user_id": per_user([u.user_id for u in users], object),
                "city": np.full(n, self.city, dtype=object),
                "isp": np.full(n, self.catalog.isp_name, dtype=object),
                "platform": per_user(platforms, object),
                "origin": per_user(
                    ["web" if p == "web" else "native" for p in platforms],
                    object,
                ),
                "access": per_user(
                    [
                        "unknown" if u.platform == "web" else u.access
                        for u in users
                    ],
                    object,
                ),
                "download_mbps": tests.download_mbps,
                "upload_mbps": tests.upload_mbps,
                "latency_ms": tests.rtt_ms,
                "month": months,
                "hour": tests.hour,
                "wifi_band_ghz": per_user(
                    [
                        u.household.band_ghz if android else np.nan
                        for u, android in zip(users, is_android)
                    ],
                    float,
                ),
                "rssi_dbm": np.where(
                    per_user(is_android, bool), tests.rssi_dbm, np.nan
                ),
                "memory_gb": per_user(
                    [
                        u.memory_gb if android else np.nan
                        for u, android in zip(users, is_android)
                    ],
                    float,
                ),
                "true_tier": per_user([u.tier for u in users]),
            }
        )
