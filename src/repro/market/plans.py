"""Subscription plans and ISP plan catalogs.

A :class:`Plan` is one ISP offering -- an advertised download and upload
speed pair plus a tier label.  A :class:`PlanCatalog` is the full menu an
ISP sells in a city.  The catalog also exposes the *upload groups* that the
BST methodology exploits: plans sharing the same advertised upload speed
(e.g. ISP-A's 25/100/200 Mbps download plans all upload at 5 Mbps), which
is why upload speed narrows the candidate tier set so effectively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Plan", "UploadGroup", "PlanCatalog"]


@dataclass(frozen=True, order=True)
class Plan:
    """One advertised subscription plan.

    Ordering is by (download, upload) so catalogs sort naturally from the
    slowest to the premium tier.
    """

    download_mbps: float
    upload_mbps: float
    tier: int = field(compare=False, default=0)
    name: str = field(compare=False, default="")

    def __post_init__(self):
        if self.download_mbps <= 0 or self.upload_mbps <= 0:
            raise ValueError("plan speeds must be positive")
        if self.upload_mbps > self.download_mbps:
            raise ValueError(
                "residential plans in this model are asymmetric "
                "(upload <= download)"
            )

    @property
    def label(self) -> str:
        return self.name or f"{self.download_mbps:g}/{self.upload_mbps:g}"


@dataclass(frozen=True)
class UploadGroup:
    """Plans sharing one advertised upload speed.

    ``tier_label`` is the paper-style span label, e.g. ``"Tier 1-3"`` for
    ISP-A's three 5 Mbps-upload plans.
    """

    upload_mbps: float
    plans: tuple[Plan, ...]

    @property
    def tier_label(self) -> str:
        tiers = sorted(p.tier for p in self.plans)
        if tiers[0] == tiers[-1]:
            return f"Tier {tiers[0]}"
        return f"Tier {tiers[0]}-{tiers[-1]}"

    @property
    def download_speeds(self) -> tuple[float, ...]:
        return tuple(p.download_mbps for p in self.plans)


class PlanCatalog:
    """The plan menu an ISP offers in one city/state.

    Plans are stored sorted by (download, upload) and assigned 1-based tier
    numbers in that order unless explicit tiers were provided.

    Examples
    --------
    >>> catalog = PlanCatalog("ISP-A", [Plan(25, 5), Plan(1200, 35)])
    >>> [p.tier for p in catalog.plans]
    [1, 2]
    >>> catalog.upload_speeds
    (5, 35)
    """

    def __init__(self, isp_name: str, plans):
        plans = sorted(plans)
        if not plans:
            raise ValueError("a catalog needs at least one plan")
        seen = set()
        for plan in plans:
            key = (plan.download_mbps, plan.upload_mbps)
            if key in seen:
                raise ValueError(f"duplicate plan {key}")
            seen.add(key)
        if any(p.tier == 0 for p in plans):
            plans = [
                Plan(
                    p.download_mbps,
                    p.upload_mbps,
                    tier=i + 1,
                    name=p.name,
                )
                for i, p in enumerate(plans)
            ]
        self.isp_name = isp_name
        self.plans: tuple[Plan, ...] = tuple(plans)
        self._by_tier = {p.tier: p for p in self.plans}
        if len(self._by_tier) != len(self.plans):
            raise ValueError("plan tiers must be unique")
        # The plans are a fixed tuple, so the upload groups and the
        # tier -> group index map are built once here, not per lookup.
        self._upload_groups = tuple(
            UploadGroup(
                upload_mbps=upload,
                plans=tuple(p for p in self.plans if p.upload_mbps == upload),
            )
            for upload in self.upload_speeds
        )
        self._group_index_by_tier = {
            plan.tier: gi
            for gi, group in enumerate(self._upload_groups)
            for plan in group.plans
        }

    # ------------------------------------------------------------------
    @property
    def num_plans(self) -> int:
        return len(self.plans)

    @property
    def tiers(self) -> tuple[int, ...]:
        return tuple(p.tier for p in self.plans)

    def plan_for_tier(self, tier: int) -> Plan:
        try:
            return self._by_tier[tier]
        except KeyError:
            raise KeyError(
                f"{self.isp_name} has no tier {tier}; tiers: {self.tiers}"
            ) from None

    @property
    def upload_speeds(self) -> tuple[float, ...]:
        """Distinct advertised upload speeds, ascending."""
        return tuple(sorted({p.upload_mbps for p in self.plans}))

    @property
    def download_speeds(self) -> tuple[float, ...]:
        """Advertised download speeds, ascending."""
        return tuple(p.download_mbps for p in self.plans)

    def upload_groups(self) -> tuple[UploadGroup, ...]:
        """Plans grouped by shared upload speed, ascending by upload."""
        return self._upload_groups

    def upload_group_index(self, tier: int) -> int:
        """Index into :meth:`upload_groups` of the group holding ``tier``."""
        try:
            return self._group_index_by_tier[tier]
        except KeyError:
            raise KeyError(
                f"tier {tier} not in catalog {self.isp_name}"
            ) from None

    def group_for_upload(self, upload_mbps: float) -> UploadGroup:
        """The upload group advertising exactly ``upload_mbps``."""
        for group in self.upload_groups():
            if group.upload_mbps == upload_mbps:
                return group
        raise KeyError(
            f"{self.isp_name} offers no {upload_mbps} Mbps upload; "
            f"offered: {self.upload_speeds}"
        )

    def nearest_upload_group(self, upload_mbps: float) -> UploadGroup:
        """The upload group whose advertised speed is closest to a value."""
        groups = self.upload_groups()
        return min(groups, key=lambda g: abs(g.upload_mbps - upload_mbps))

    def plan_for_speeds(
        self, download_mbps: float, upload_mbps: float
    ) -> Plan:
        """Exact advertised-speed lookup (raises KeyError when absent)."""
        for plan in self.plans:
            if (
                plan.download_mbps == download_mbps
                and plan.upload_mbps == upload_mbps
            ):
                return plan
        raise KeyError(
            f"{self.isp_name} has no {download_mbps}/{upload_mbps} plan"
        )

    def restrict_to_tiers(self, tiers) -> "PlanCatalog":
        """A sub-catalog with only ``tiers`` (keeps original tier numbers).

        Used to model the MBA panel in State-A, which has no subscriber on
        the 25/5 plan (Section 4.3).
        """
        keep = set(tiers)
        plans = [p for p in self.plans if p.tier in keep]
        if not plans:
            raise ValueError(f"no plans left after restricting to {tiers}")
        return PlanCatalog(self.isp_name, plans)

    def __repr__(self) -> str:
        menu = ", ".join(p.label for p in self.plans)
        return f"PlanCatalog({self.isp_name}: {menu})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlanCatalog):
            return NotImplemented
        return self.isp_name == other.isp_name and self.plans == other.plans

    def __hash__(self) -> int:
        return hash((self.isp_name, self.plans))
