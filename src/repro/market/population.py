"""Subscriber population model: who bought which plan, on what devices.

The paper's datasets are samples of real subscriber behaviour.  This module
generates the synthetic population those samples are drawn from: each user
belongs to a household with a subscription tier, a home WiFi environment
(band, router placement -> RSSI), and a measurement device (platform,
kernel memory).  Tier-share and platform-mix defaults are calibrated to the
per-tier measurement counts of Table 3 (City-A) and Tables 5-7 (Cities
B-D), so the generated datasets reproduce the paper's headline skew:
the bulk of crowdsourced tests originate from lower subscription tiers.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from repro.market.plans import Plan, PlanCatalog

__all__ = [
    "Household",
    "Subscriber",
    "PopulationConfig",
    "SubscriberPopulation",
    "PLATFORMS",
    "categorical_cdf",
    "sample_index",
    "default_city_config",
    "ookla_tier_group_weights",
    "mlab_tier_group_weights",
]

PLATFORMS = (
    "android",
    "ios",
    "desktop-wifi",
    "desktop-ethernet",
    "web",
)

# RSSI bins (dBm) used throughout Section 6.1, best to worst.
RSSI_BIN_EDGES = ((-30.0, -20.0), (-50.0, -30.0), (-70.0, -50.0), (-88.0, -70.0))
# Kernel-memory bins (GB) of Figure 9d, worst to best.
MEMORY_BIN_EDGES = ((0.5, 2.0), (2.0, 4.0), (4.0, 6.0), (6.0, 12.0))


def categorical_cdf(probs) -> np.ndarray:
    """The normalised CDF ``rng.choice(k, p=probs)`` builds on every call.

    Precompute it once and draw with :func:`sample_index`; the pair
    consumes exactly the generator state ``rng.choice`` does.  The
    probability checks ``rng.choice`` makes per call are made here, once.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probabilities must be a non-empty 1-D sequence")
    if not (p >= 0).all():
        raise ValueError("probabilities must be non-negative")
    if abs(p.sum() - 1.0) > np.sqrt(np.finfo(float).eps):
        raise ValueError("probabilities do not sum to 1")
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf


def sample_index(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """One categorical draw: ``rng.choice(len(cdf), p=...)`` without the
    per-call argument checks (one ``rng.random()``, then a search)."""
    return int(cdf.searchsorted(rng.random(), side="right"))


@dataclass(frozen=True)
class Household:
    """One home: the subscription and the WiFi environment live here."""

    household_id: str
    city: str
    tier: int
    plan: Plan
    rssi_mean_dbm: float
    band_ghz: float  # 2.4 or 5.0 -- the band the household's devices camp on

    def __post_init__(self):
        if self.band_ghz not in (2.4, 5.0):
            raise ValueError(f"band must be 2.4 or 5.0 GHz, got {self.band_ghz}")


@dataclass(frozen=True)
class Subscriber:
    """One speed test user: a device inside a household."""

    user_id: str
    household: Household
    platform: str  # one of PLATFORMS
    access: str  # "wifi" | "ethernet"
    memory_gb: float
    n_tests: int

    def __post_init__(self):
        if self.platform not in PLATFORMS:
            raise ValueError(f"unknown platform {self.platform!r}")
        if self.access not in ("wifi", "ethernet"):
            raise ValueError(f"unknown access {self.access!r}")
        if self.n_tests < 1:
            raise ValueError("a subscriber must run at least one test")

    @property
    def tier(self) -> int:
        return self.household.tier

    @property
    def plan(self) -> Plan:
        return self.household.plan


# ---------------------------------------------------------------------------
# Calibrated tier-group weights (fraction of tests per upload group),
# derived from the per-tier measurement counts in Tables 3 and 5-7.
# ---------------------------------------------------------------------------
_OOKLA_GROUP_WEIGHTS = {
    "A": (0.428, 0.147, 0.218, 0.207),
    "B": (0.277, 0.136, 0.389, 0.198),
    "C": (0.356, 0.133, 0.343, 0.168),
    "D": (0.357, 0.346, 0.297),
}
_MLAB_GROUP_WEIGHTS = {
    "A": (0.623, 0.150, 0.144, 0.083),
    "B": (0.390, 0.173, 0.368, 0.069),
    "C": (0.533, 0.197, 0.202, 0.068),
    "D": (0.455, 0.389, 0.156),
}


def ookla_tier_group_weights(city: str) -> tuple[float, ...]:
    """Fraction of Ookla tests per upload group (Tables 3, 5-7)."""
    return _OOKLA_GROUP_WEIGHTS[city.upper()]


def mlab_tier_group_weights(city: str) -> tuple[float, ...]:
    """Fraction of M-Lab tests per upload group (Tables 3, 5-7)."""
    return _MLAB_GROUP_WEIGHTS[city.upper()]


@dataclass(frozen=True)
class PopulationConfig:
    """Knobs of the population generator.

    Attributes
    ----------
    tier_group_weights:
        Probability of each upload group (ascending by upload speed).
        ``None`` means uniform.
    within_group_weights:
        Relative weight of the 1st, 2nd, ... plan inside an upload group,
        lower plans first.  The paper observes lower plans dominate.
    platform_mix:
        Probability of each entry of :data:`PLATFORMS`; calibrated to the
        Table 3 platform counts.
    web_wifi_fraction:
        Web tests carry no device metadata, but they still traverse a real
        access link; this is the fraction of web users on WiFi.
    band_5ghz_fraction:
        Fraction of WiFi households camping on 5 GHz (the paper: ~77% of
        Android tests are 5 GHz).
    rssi_bin_probs:
        Probability of each RSSI bin of :data:`RSSI_BIN_EDGES`
        (best to worst; Figure 9c reports 5/37/49/9 percent).
    memory_bin_probs:
        Probability of each memory bin of :data:`MEMORY_BIN_EDGES`
        (worst to best; Figure 9d reports 7/17/17/59 percent).
    heavy_user_fraction / heavy_user_mean_tests:
        Fraction of users who test repeatedly (>= 5 tests) and their mean
        test count; Section 4.1 reports 23k of 85k City-A app users ran at
        least five tests.
    """

    tier_group_weights: tuple[float, ...] | None = None
    within_group_weights: tuple[float, ...] = (0.5, 0.3, 0.2)
    platform_mix: tuple[float, ...] = (0.093, 0.354, 0.053, 0.025, 0.475)
    web_wifi_fraction: float = 0.90
    band_5ghz_fraction: float = 0.77
    rssi_bin_probs: tuple[float, float, float, float] = (0.05, 0.37, 0.49, 0.09)
    memory_bin_probs: tuple[float, float, float, float] = (0.07, 0.17, 0.17, 0.59)
    heavy_user_fraction: float = 0.27
    heavy_user_mean_tests: float = 7.0

    def __post_init__(self):
        for name in ("rssi_bin_probs", "memory_bin_probs", "platform_mix"):
            probs = getattr(self, name)
            if abs(sum(probs) - 1.0) > 1e-6:
                raise ValueError(f"{name} must sum to 1, got {sum(probs)}")
            # NaN fails this comparison too, as rng.choice rejects it.
            if not all(p >= 0 for p in probs):
                raise ValueError(f"{name} entries must be non-negative")
        if len(self.platform_mix) != len(PLATFORMS):
            raise ValueError("platform_mix must match PLATFORMS")
        if len(self.rssi_bin_probs) != len(RSSI_BIN_EDGES):
            raise ValueError("rssi_bin_probs must match RSSI_BIN_EDGES")
        if len(self.memory_bin_probs) != len(MEMORY_BIN_EDGES):
            raise ValueError("memory_bin_probs must match MEMORY_BIN_EDGES")
        if not 0 <= self.heavy_user_fraction <= 1:
            raise ValueError("heavy_user_fraction must be in [0, 1]")


def default_city_config(city: str, vendor: str = "ookla") -> PopulationConfig:
    """The calibrated config for one city and vendor ("ookla" | "mlab")."""
    vendor = vendor.lower()
    if vendor == "ookla":
        weights = ookla_tier_group_weights(city)
    elif vendor == "mlab":
        weights = mlab_tier_group_weights(city)
    else:
        raise ValueError(f"unknown vendor {vendor!r}")
    return PopulationConfig(tier_group_weights=weights)


class SubscriberPopulation:
    """Generates subscribers for one city against its plan catalog.

    Examples
    --------
    >>> from repro.market.isps import city_catalog
    >>> pop = SubscriberPopulation("A", city_catalog("A"), seed=0)
    >>> users = pop.generate_users(100)
    >>> len(users)
    100
    >>> all(u.plan in pop.catalog.plans for u in users)
    True
    """

    def __init__(
        self,
        city: str,
        catalog: PlanCatalog,
        config: PopulationConfig | None = None,
        seed: int = 0,
    ):
        self.city = city.upper()
        self.catalog = catalog
        self.config = config or PopulationConfig()
        self.seed = seed
        self._tier_probs = self._build_tier_probs()
        self._rssi_cdf = categorical_cdf(self.config.rssi_bin_probs)
        self._memory_cdf = categorical_cdf(self.config.memory_bin_probs)

    def _build_tier_probs(self) -> dict[int, float]:
        """Per-plan-tier probabilities from group weights x within-group."""
        groups = self.catalog.upload_groups()
        cfg = self.config
        group_weights = cfg.tier_group_weights
        if group_weights is None:
            group_weights = tuple(1.0 / len(groups) for _ in groups)
        if len(group_weights) != len(groups):
            raise ValueError(
                f"tier_group_weights has {len(group_weights)} entries but "
                f"the catalog has {len(groups)} upload groups"
            )
        total = sum(group_weights)
        probs: dict[int, float] = {}
        for group, g_weight in zip(groups, group_weights):
            inner = list(cfg.within_group_weights)[: len(group.plans)]
            if len(inner) < len(group.plans):
                inner += [inner[-1]] * (len(group.plans) - len(inner))
            inner_total = sum(inner)
            for plan, w in zip(group.plans, inner):
                probs[plan.tier] = (g_weight / total) * (w / inner_total)
        return probs

    @property
    def tier_probabilities(self) -> dict[int, float]:
        """The effective per-tier sampling probabilities (sums to 1)."""
        return dict(self._tier_probs)

    # ------------------------------------------------------------------
    def generate_users(
        self,
        n_users: int,
        seed: int | None = None,
    ) -> list[Subscriber]:
        """Generate ``n_users`` subscribers (deterministic per seed)."""
        return list(self.iter_users(n_users, seed))

    def iter_users(
        self,
        n_users: int,
        seed: int | None = None,
    ) -> Iterator[Subscriber]:
        """Yield up to ``n_users`` subscribers, each built when asked for.

        The batch-wide tier and platform draws are made first, for all
        ``n_users``, so every subscriber yielded is the one
        :meth:`generate_users` returns at that position -- however early
        the caller stops.
        """
        if n_users < 0:
            raise ValueError("n_users cannot be negative")
        return self._iter_users(n_users, seed)

    def _iter_users(
        self, n_users: int, seed: int | None
    ) -> Iterator[Subscriber]:
        rng = np.random.default_rng(self.seed if seed is None else seed)
        cfg = self.config
        tiers = np.asarray(sorted(self._tier_probs))
        tier_p = np.asarray([self._tier_probs[t] for t in tiers])
        tier_p = tier_p / tier_p.sum()

        chosen_tiers = rng.choice(tiers, size=n_users, p=tier_p).tolist()
        platforms = rng.choice(
            len(PLATFORMS), size=n_users, p=np.asarray(cfg.platform_mix)
        ).tolist()
        for i in range(n_users):
            tier = chosen_tiers[i]
            plan = self.catalog.plan_for_tier(tier)
            platform = PLATFORMS[platforms[i]]
            access = self._access_for_platform(platform, rng)
            band = (
                5.0
                if rng.random() < cfg.band_5ghz_fraction
                else 2.4
            )
            household = Household(
                household_id=f"{self.city}-h{i:07d}",
                city=self.city,
                tier=tier,
                plan=plan,
                rssi_mean_dbm=self._sample_rssi(rng),
                band_ghz=band,
            )
            yield Subscriber(
                user_id=f"{self.city}-u{i:07d}",
                household=household,
                platform=platform,
                access=access,
                memory_gb=self._sample_memory(platform, rng),
                n_tests=self._sample_test_count(rng),
            )

    def _access_for_platform(self, platform: str, rng) -> str:
        if platform in ("android", "ios", "desktop-wifi"):
            return "wifi"
        if platform == "desktop-ethernet":
            return "ethernet"
        # Web tests: no metadata recorded, but a physical link still exists.
        return (
            "wifi"
            if rng.random() < self.config.web_wifi_fraction
            else "ethernet"
        )

    def _sample_rssi(self, rng) -> float:
        lo, hi = RSSI_BIN_EDGES[sample_index(self._rssi_cdf, rng)]
        return float(rng.uniform(lo, hi))

    def _sample_memory(self, platform: str, rng) -> float:
        if platform.startswith("desktop") or platform == "web":
            # Desktops rarely hit the mobile kernel-memory ceiling.
            return float(rng.uniform(8.0, 32.0))
        lo, hi = MEMORY_BIN_EDGES[sample_index(self._memory_cdf, rng)]
        return float(rng.uniform(lo, hi))

    def _sample_test_count(self, rng) -> int:
        cfg = self.config
        if rng.random() < cfg.heavy_user_fraction:
            # Heavy users: at least five tests, geometric tail above.
            extra_mean = max(cfg.heavy_user_mean_tests - 5.0, 0.5)
            return 5 + int(rng.geometric(1.0 / (1.0 + extra_mean))) - 1
        return int(rng.integers(1, 4))

    def with_config(self, **overrides) -> "SubscriberPopulation":
        """Clone this population with config fields overridden."""
        return SubscriberPopulation(
            self.city,
            self.catalog,
            config=replace(self.config, **overrides),
            seed=self.seed,
        )
