"""Tests for vendor schemas and shared samplers."""

import numpy as np
import pytest

from repro.vendors.mba import MBA_MONTHS
from repro.vendors.schema import (
    DIURNAL_BIN_WEIGHTS,
    sample_test_hour,
    sample_test_month,
)


def test_diurnal_weights_sum_to_one():
    assert sum(DIURNAL_BIN_WEIGHTS) == pytest.approx(1.0)


def test_hours_in_range():
    rng = np.random.default_rng(0)
    hours = sample_test_hour(rng, 500)
    assert all(0 <= h <= 23 for h in hours)


def test_overnight_is_least_popular():
    rng = np.random.default_rng(1)
    hours = sample_test_hour(rng, 5000)
    bins = [np.mean((hours >= 6 * i) & (hours < 6 * (i + 1))) for i in range(4)]
    assert bins[0] == min(bins)


def test_months_in_range():
    rng = np.random.default_rng(2)
    months = sample_test_month(rng, 300)
    assert all(1 <= m <= 12 for m in months)


def test_month_exclusion():
    rng = np.random.default_rng(3)
    months = sample_test_month(rng, 500, excluded_months=(9, 10)).tolist()
    assert 9 not in months and 10 not in months


def test_all_months_excluded():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        sample_test_month(rng, 1, excluded_months=tuple(range(1, 13)))


# The samplers replace rng.choice with the exact draws it makes; these
# pin that equivalence (values and generator state) so a numpy change to
# choice's internals fails here instead of shifting every output.


def _hours_via_choice(rng, size):
    p = np.asarray(DIURNAL_BIN_WEIGHTS)
    bins = rng.choice(len(DIURNAL_BIN_WEIGHTS), p=p, size=size)
    return bins * 6 + rng.integers(0, 6, size)


def test_hour_draw_matches_rng_choice():
    for seed in range(250):
        ours = np.random.default_rng(seed)
        theirs = np.random.default_rng(seed)
        for size in (1, 3, 40):
            assert (
                sample_test_hour(ours, size).tolist()
                == _hours_via_choice(theirs, size).tolist()
            )
        assert ours.random() == theirs.random()


@pytest.mark.parametrize("excluded", [(), (9, 10), (1, 2, 3, 12)])
def test_month_draw_matches_rng_choice(excluded):
    allowed = [m for m in range(1, 13) if m not in excluded]
    for seed in range(250):
        ours = np.random.default_rng(seed)
        theirs = np.random.default_rng(seed)
        for size in (1, 3, 40):
            months = sample_test_month(ours, size, excluded_months=excluded)
            assert months.tolist() == theirs.choice(allowed, size).tolist()
        assert ours.random() == theirs.random()


@pytest.mark.parametrize("seq", [MBA_MONTHS, tuple(range(1, 13)), (7,)])
def test_sequence_index_matches_rng_choice(seq):
    for seed in range(250):
        ours = np.random.default_rng(seed)
        theirs = np.random.default_rng(seed)
        for size in (1, 3, 40):
            index = ours.integers(0, len(seq), size)
            assert (
                np.asarray(seq)[index].tolist()
                == theirs.choice(seq, size).tolist()
            )
        assert ours.random() == theirs.random()
