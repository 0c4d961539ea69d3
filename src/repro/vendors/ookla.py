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
        """Enough subscribers to cover ``n_tests`` measurements."""
        if n_tests < 0:
            raise ValueError("n_tests cannot be negative")
        rng = np.random.default_rng(self.seed)
        users: list[Subscriber] = []
        total = 0
        batch = max(64, n_tests // 2)
        while total < n_tests:
            new = self.population.generate_users(
                batch, seed=int(rng.integers(0, 2**63))
            )
            for user in new:
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
        rng = np.random.default_rng(self.seed + 1)
        columns: dict[str, list] = {name: [] for name in OOKLA_COLUMNS}
        test_index = 0
        for user in users:
            # A user's repeated tests cluster within a couple of months --
            # people test while debugging a problem, not uniformly.
            anchor_month = sample_test_month(rng)
            for _ in range(user.n_tests):
                month = anchor_month + int(rng.integers(-1, 2))
                month = min(max(month, 1), 12)
                hour = sample_test_hour(rng)
                outcome = self.path.run_test(user, self.profile, hour, rng)
                is_android = user.platform == "android"
                is_web = user.platform == "web"
                columns["test_id"].append(
                    f"ookla-{self.city}-{test_index:08d}"
                )
                columns["user_id"].append(user.user_id)
                columns["city"].append(self.city)
                columns["isp"].append(self.catalog.isp_name)
                columns["platform"].append(user.platform)
                columns["origin"].append("web" if is_web else "native")
                columns["access"].append(
                    "unknown" if is_web else user.access
                )
                columns["download_mbps"].append(outcome.download_mbps)
                columns["upload_mbps"].append(outcome.upload_mbps)
                columns["latency_ms"].append(outcome.rtt_ms)
                columns["month"].append(month)
                columns["hour"].append(hour)
                columns["wifi_band_ghz"].append(
                    user.household.band_ghz if is_android else np.nan
                )
                columns["rssi_dbm"].append(
                    outcome.conditions.rssi_dbm
                    if is_android and outcome.conditions.rssi_dbm is not None
                    else np.nan
                )
                columns["memory_gb"].append(
                    user.memory_gb if is_android else np.nan
                )
                columns["true_tier"].append(user.tier)
                test_index += 1
        return ColumnTable(columns)
