"""Tests for plans and catalogs."""

import pytest

from repro.market import Plan, PlanCatalog
from repro.market.plans import UploadGroup


class TestPlan:
    def test_basic_construction(self):
        plan = Plan(100, 5, tier=2)
        assert plan.download_mbps == 100
        assert plan.label == "100/5"

    def test_named_plan_label(self):
        assert Plan(100, 5, name="Fast").label == "Fast"

    def test_nonpositive_speeds_rejected(self):
        with pytest.raises(ValueError):
            Plan(0, 5)
        with pytest.raises(ValueError):
            Plan(100, -1)

    def test_symmetric_plan_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Plan(100, 200)

    def test_ordering_by_download(self):
        assert Plan(25, 5) < Plan(100, 5)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Plan(100, 5).download_mbps = 50


@pytest.fixture
def catalog():
    return PlanCatalog(
        "ISP-X",
        [
            Plan(25, 5),
            Plan(100, 5),
            Plan(400, 10),
            Plan(1200, 35),
        ],
    )


class TestPlanCatalog:
    def test_tiers_assigned_in_speed_order(self, catalog):
        assert catalog.tiers == (1, 2, 3, 4)
        assert catalog.plan_for_tier(1).download_mbps == 25

    def test_explicit_tiers_kept(self):
        cat = PlanCatalog("I", [Plan(25, 5, tier=7), Plan(100, 5, tier=9)])
        assert cat.tiers == (7, 9)

    def test_duplicate_plans_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PlanCatalog("I", [Plan(25, 5), Plan(25, 5)])

    def test_duplicate_tiers_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            PlanCatalog("I", [Plan(25, 5, tier=1), Plan(100, 5, tier=1)])

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            PlanCatalog("I", [])

    def test_unknown_tier_raises(self, catalog):
        with pytest.raises(KeyError, match="tiers"):
            catalog.plan_for_tier(99)

    def test_upload_speeds_deduplicated(self, catalog):
        assert catalog.upload_speeds == (5.0, 10.0, 35.0)

    def test_download_speeds_sorted(self, catalog):
        assert catalog.download_speeds == (25, 100, 400, 1200)

    def test_upload_groups_partition_plans(self, catalog):
        groups = catalog.upload_groups()
        assert len(groups) == 3
        total = sum(len(g.plans) for g in groups)
        assert total == catalog.num_plans

    def test_group_tier_labels(self, catalog):
        labels = [g.tier_label for g in catalog.upload_groups()]
        assert labels == ["Tier 1-2", "Tier 3", "Tier 4"]

    def test_upload_group_index(self, catalog):
        for gi, group in enumerate(catalog.upload_groups()):
            for plan in group.plans:
                assert catalog.upload_group_index(plan.tier) == gi
        with pytest.raises(KeyError, match="tier 9 not in catalog"):
            catalog.upload_group_index(9)

    def test_upload_groups_built_once(self, catalog):
        assert catalog.upload_groups() is catalog.upload_groups()

    def test_group_for_upload_exact(self, catalog):
        group = catalog.group_for_upload(5.0)
        assert group.download_speeds == (25, 100)

    def test_group_for_upload_missing(self, catalog):
        with pytest.raises(KeyError, match="offered"):
            catalog.group_for_upload(17.5)

    def test_nearest_upload_group(self, catalog):
        assert catalog.nearest_upload_group(11.8).upload_mbps == 10.0

    def test_plan_for_speeds(self, catalog):
        assert catalog.plan_for_speeds(400, 10).tier == 3

    def test_plan_for_speeds_missing(self, catalog):
        with pytest.raises(KeyError):
            catalog.plan_for_speeds(401, 10)

    def test_restrict_to_tiers(self, catalog):
        sub = catalog.restrict_to_tiers([2, 3])
        assert sub.tiers == (2, 3)
        assert sub.plan_for_tier(2).download_mbps == 100

    def test_restrict_to_nothing_rejected(self, catalog):
        with pytest.raises(ValueError):
            catalog.restrict_to_tiers([99])

    def test_equality_and_hash(self, catalog):
        same = PlanCatalog("ISP-X", list(catalog.plans))
        assert catalog == same
        assert hash(catalog) == hash(same)

    def test_repr_lists_menu(self, catalog):
        assert "25/5" in repr(catalog)


class TestUploadGroup:
    def test_single_plan_label(self):
        group = UploadGroup(10.0, (Plan(400, 10, tier=4),))
        assert group.tier_label == "Tier 4"
