"""FCC Measuring Broadband America (MBA) panel simulator.

MBA "uses specialized hardware test units to collect Internet measurement
data from 4,000 U.S. households", measuring "multiple times per day" over
wired connections, and -- critically for the paper -- publishes the
subscriber's broadband plan (Section 3.3).  Table 2 gives the per-state
panel sizes for the four dominant ISPs (20/17/10/11 units); Section 3
notes the 2021 release lacks September-October data.

The simulated panel mirrors all of that: a small set of wired whitebox
units, each bound to one ground-truth subscription tier, each running a
few tests per day across the ten available months.
"""

from __future__ import annotations

import numpy as np

from repro.frame import ColumnTable
from repro.market.isps import state_catalog
from repro.market.plans import PlanCatalog
from repro.market.population import Household, Subscriber
from repro.netsim.path import WIRED_PANEL_PROFILE, FlowProfile, PathSimulator
from repro.obs import metrics as obs_metrics
from repro.obs.quality import get_quality
from repro.obs.trace import span
from repro.vendors.schema import MBA_COLUMNS

__all__ = ["MBASimulator", "MBA_UNITS_PER_STATE"]

# Table 2: number of MBA units subscribing to the dominant ISP per state.
MBA_UNITS_PER_STATE = {"A": 20, "B": 17, "C": 10, "D": 11}

# Months present in the 2021 MBA release (September/October missing).
MBA_MONTHS = tuple(m for m in range(1, 13) if m not in (9, 10))

# Per-tier unit weights for State-A, from the Section 4.3 measurement
# counts (15,781 in tiers 2-3; 4,185 tier 4; 2,453 tier 5; 3,508 tier 6).
_STATE_A_TIER_WEIGHTS = {2: 0.32, 3: 0.29, 4: 0.16, 5: 0.095, 6: 0.135}


class MBASimulator:
    """Simulate one state's MBA panel against its dominant ISP.

    Parameters
    ----------
    state:
        State id ("A"-"D"); uses the state's observed plan catalog
        (State-A lacks the 25/5 plan, Section 4.3).
    n_units:
        Panel size; defaults to the Table 2 count.
    tests_per_day:
        Mean daily tests per unit ("multiple times per day").
    """

    def __init__(
        self,
        state: str,
        catalog: PlanCatalog | None = None,
        n_units: int | None = None,
        tests_per_day: float = 4.0,
        profile: FlowProfile = WIRED_PANEL_PROFILE,
        seed: int = 0,
    ):
        self.state = state.upper()
        self.catalog = catalog or state_catalog(self.state)
        self.n_units = (
            MBA_UNITS_PER_STATE[self.state] if n_units is None else n_units
        )
        if self.n_units < 1:
            raise ValueError("panel needs at least one unit")
        if tests_per_day <= 0:
            raise ValueError("tests_per_day must be positive")
        self.tests_per_day = tests_per_day
        self.profile = profile
        self.seed = seed
        self.path = PathSimulator(seed=seed)

    # ------------------------------------------------------------------
    def _tier_weights(self) -> dict[int, float]:
        if self.state == "A":
            weights = dict(_STATE_A_TIER_WEIGHTS)
        else:
            # Other panels: skew toward lower tiers, every tier present.
            tiers = self.catalog.tiers
            raw = {t: 1.0 / (rank + 1) for rank, t in enumerate(tiers)}
            total = sum(raw.values())
            weights = {t: w / total for t, w in raw.items()}
        observed = {t: w for t, w in weights.items() if t in self.catalog.tiers}
        total = sum(observed.values())
        return {t: w / total for t, w in observed.items()}

    def build_units(self) -> list[Subscriber]:
        """The panel: wired whitebox units with ground-truth tiers.

        Every tier receives at least one unit (the panel exists to measure
        every plan) with the remainder allocated by the tier weights.
        """
        weights = self._tier_weights()
        tiers = sorted(weights)
        if self.n_units < len(tiers):
            # Tiny panels: fill the highest-weight tiers first.
            tiers = sorted(tiers, key=lambda t: -weights[t])[: self.n_units]
            counts = {t: 1 for t in tiers}
        else:
            counts = {t: 1 for t in tiers}
            remaining = self.n_units - len(tiers)
            rng = np.random.default_rng(self.seed + 10)
            probs = np.asarray([weights[t] for t in tiers])
            probs = probs / probs.sum()
            extra = rng.choice(tiers, size=remaining, p=probs)
            for tier in extra:
                counts[int(tier)] += 1
        units: list[Subscriber] = []
        index = 0
        for tier in sorted(counts):
            plan = self.catalog.plan_for_tier(tier)
            for _ in range(counts[tier]):
                household = Household(
                    household_id=f"mba-{self.state}-h{index:04d}",
                    city=self.state,
                    tier=tier,
                    plan=plan,
                    rssi_mean_dbm=-40.0,  # unused: units are wired
                    band_ghz=5.0,
                )
                units.append(
                    Subscriber(
                        user_id=f"mba-{self.state}-unit{index:04d}",
                        household=household,
                        platform="desktop-ethernet",
                        access="ethernet",
                        memory_gb=16.0,
                        n_tests=1,
                    )
                )
                index += 1
        return units

    def generate(self, n_tests: int | None = None) -> ColumnTable:
        """Generate the panel's 2021 measurements.

        ``n_tests`` caps the total row count; by default every unit tests
        ``tests_per_day`` times daily across the ten available months
        (~24k rows for the State-A panel, matching Table 1's 25.9k scale).
        """
        with span(
            "vendor.mba.generate",
            state=self.state,
            n_tests=-1 if n_tests is None else n_tests,
        ) as sp:
            table = self._generate(n_tests)
            sp.set(rows=len(table))
        obs_metrics.counter("tests.generated").inc(len(table))
        quality = get_quality()
        if quality.enabled:
            quality.field("mba.download_mbps").observe_array(
                table["download_mbps"]
            )
            quality.field("mba.upload_mbps").observe_array(
                table["upload_mbps"]
            )
        return table

    def _generate(self, n_tests: int | None) -> ColumnTable:
        units = self.build_units()
        rng = np.random.default_rng(self.seed + 11)
        days_per_month = 30
        total_default = int(
            self.n_units * self.tests_per_day * days_per_month * len(MBA_MONTHS)
        )
        total = total_default if n_tests is None else min(n_tests, 10**9)
        if total <= 0:
            return ColumnTable({name: [] for name in MBA_COLUMNS})
        # Round-robin units through day slots so every unit contributes
        # evenly, as a managed panel does: test k is unit k mod len(units).
        unit_of_test = np.arange(total) % len(units)
        months = np.asarray(MBA_MONTHS)[
            rng.integers(0, len(MBA_MONTHS), total)
        ]
        hours = rng.integers(0, 24, total)  # panels test around the clock
        tests = self.path.compute(
            self.path.draw(self.profile, units, unit_of_test, hours, rng)
        )
        return ColumnTable(
            {
                "unit_id": np.array(
                    [unit.user_id for unit in units], dtype=object
                )[unit_of_test],
                "state": np.full(total, self.state, dtype=object),
                "isp": np.full(total, self.catalog.isp_name, dtype=object),
                "download_mbps": tests.download_mbps,
                "upload_mbps": tests.upload_mbps,
                "month": months,
                "hour": tests.hour,
                "tier": np.asarray([unit.tier for unit in units])[
                    unit_of_test
                ],
            }
        )
