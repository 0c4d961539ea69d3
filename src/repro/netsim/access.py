"""Access-network model: plan shaping, over-provisioning, time of day.

Cable ISPs shape each modem to its subscribed rate plus headroom.  The
paper's MBA analysis (Section 4.3) sees this directly: the 100 and
200 Mbps tiers measure ~110.9 and ~231.7 Mbps on wired whiteboxes --
"ISP-A provides performance that surpasses the subscribed download speed
for these subscription tiers" -- so the model over-provisions every plan
by a configurable factor with small per-household spread.

Time of day matters only marginally (Section 6.2): tests during 00-06
local achieve slightly better normalised speeds (e.g. Tier 4 iOS medians
0.53 overnight vs ~0.45-0.46 otherwise).  The model applies a small
daytime utilisation discount to access capacity accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.market.plans import Plan

__all__ = ["AccessLink", "timeofday_factor", "noisy_timeofday_factor",
           "TIMEOFDAY_NOISE_SIGMA", "OVERPROVISION_DOWNLOAD",
           "OVERPROVISION_UPLOAD"]

# Calibrated against the MBA cluster means of Section 4.3 and the upload
# cluster means of Table 3 (e.g. the 35 Mbps tier measures ~40 Mbps).
OVERPROVISION_DOWNLOAD = 1.16
OVERPROVISION_UPLOAD = 1.14

# Daytime (06-24 local) capacity multiplier; overnight is 1.0.  Chosen so
# the overnight advantage is ~10-15% at the median, the paper's "slightly
# better performance recorded for tests conducted during 00-06 hours".
_DAYTIME_FACTOR = 0.90
# Spread of the per-test noise on the factor.
TIMEOFDAY_NOISE_SIGMA = 0.02


def timeofday_factor(hour: int, rng: np.random.Generator | None = None) -> float:
    """Access capacity multiplier for a local ``hour`` (0-23).

    Overnight (00-06) the shared segment is idle (factor 1.0); during the
    day a mild utilisation discount applies, with small per-test noise when
    an ``rng`` is provided.
    """
    if not 0 <= hour <= 23:
        raise ValueError(f"hour must be 0-23, got {hour}")
    if rng is None:
        return 1.0 if hour < 6 else _DAYTIME_FACTOR
    return float(
        noisy_timeofday_factor(hour, rng.normal(0.0, TIMEOFDAY_NOISE_SIGMA))
    )


def noisy_timeofday_factor(hour, noise):
    """The factor of :func:`timeofday_factor` given its drawn noise.

    Elementwise over equal-shape arrays of hours and noise draws; the
    result is clamped to ``[0.6, 1]``.
    """
    base = np.where(np.asarray(hour) < 6, 1.0, _DAYTIME_FACTOR)
    return np.minimum(np.maximum(base + noise, 0.6), 1.0)


@dataclass(frozen=True)
class AccessLink:
    """One household's shaped access link.

    The shaped rates are the plan rates times the ISP's over-provisioning
    factor times a per-household installation factor (modem/line quality),
    fixed at construction so repeated tests from one home see the same
    access ceiling -- the stability that makes upload speeds such a good
    tier fingerprint.
    """

    plan: Plan
    household_factor: float = 1.0
    overprovision_download: float = OVERPROVISION_DOWNLOAD
    overprovision_upload: float = OVERPROVISION_UPLOAD

    def __post_init__(self):
        if self.household_factor <= 0:
            raise ValueError("household factor must be positive")
        if self.overprovision_download <= 0 or self.overprovision_upload <= 0:
            raise ValueError("over-provisioning factors must be positive")

    @property
    def download_capacity_mbps(self) -> float:
        return (
            self.plan.download_mbps
            * self.overprovision_download
            * self.household_factor
        )

    @property
    def upload_capacity_mbps(self) -> float:
        return (
            self.plan.upload_mbps
            * self.overprovision_upload
            * self.household_factor
        )

    @classmethod
    def for_household(
        cls,
        plan: Plan,
        rng: np.random.Generator,
        household_sigma: float = 0.03,
    ) -> "AccessLink":
        """Sample a link with per-household installation spread."""
        factor = min(max(rng.normal(1.0, household_sigma), 0.85), 1.15)
        return cls(plan=plan, household_factor=factor)
