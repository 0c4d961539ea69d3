"""Golden outputs: the sha256 of every column each simulator emits.

The determinism tests elsewhere only check that one build reproduces
itself.  These digests pin the exact bytes across builds, so a rewrite of
the simulator hot path that changes a single drawn number -- a reordered
draw, a different clamp, a different interpolation -- fails here instead
of silently shifting every figure under ``results/``.

The digests live in ``golden_digests.json`` beside this file.  Only a
change that deliberately accepts new simulator outputs may rewrite them::

    PYTHONPATH=src python -m tests.vendors.test_golden > tests/vendors/golden_digests.json
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from repro.frame import ColumnTable
from repro.market import SubscriberPopulation, city_catalog, state_catalog
from repro.market.population import PopulationConfig, default_city_config
from repro.netsim.path import WIRED_PANEL_PROFILE, PathSimulator
from repro.vendors import MBASimulator, MLabSimulator, OoklaSimulator
from repro.vendors.paired import generate_paired_tests

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

SEEDS = (0, 3)
REGIONS = ("A", "B", "C", "D")
N_OOKLA_TESTS = 300
N_MBA_TESTS = 200
N_MLAB_SESSIONS = 200
N_PAIRED_USERS = 150
N_MODEM_USERS = 150
# The paper_pipeline benchmark's size per city and per panel.
N_PIPELINE_TESTS = 10_000
# With no heavy users a subscriber runs 1-3 tests, so this many tests
# need a second population batch on seed 0.
N_TWO_BATCH_TESTS = 300


def column_digest(values: np.ndarray) -> str:
    """sha256 of one column: raw bytes for numbers, text for objects."""
    arr = np.asarray(values)
    digest = hashlib.sha256()
    if arr.dtype == object:
        digest.update("\x1f".join(map(str, arr.tolist())).encode())
    else:
        digest.update(arr.dtype.str.encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def table_digests(table: ColumnTable) -> dict[str, str]:
    return {name: column_digest(table[name]) for name in table.column_names}


def _modem_panel(seed: int) -> ColumnTable:
    """Wired panel tests with the optional modem ceiling switched on."""
    population = SubscriberPopulation(
        "A", state_catalog("A"), PopulationConfig(), seed=seed
    )
    users = population.generate_users(N_MODEM_USERS)
    sim = PathSimulator(seed=seed, model_modems=True)
    tests = sim.compute(
        sim.draw(
            WIRED_PANEL_PROFILE,
            users,
            np.repeat(np.arange(len(users)), 2),
            np.tile([3, 20], len(users)),
            np.random.default_rng(seed + 1),
        )
    )
    return ColumnTable(
        {"download_mbps": tests.download_mbps, "upload_mbps": tests.upload_mbps}
    )


def _two_batch_ookla() -> ColumnTable:
    """Ookla tests whose users come from two population batches."""
    config = replace(default_city_config("A", "ookla"), heavy_user_fraction=0.0)
    return OoklaSimulator("A", config=config, seed=0).generate(N_TWO_BATCH_TESTS)


def _cases() -> dict[str, Callable[[], ColumnTable]]:
    cases: dict[str, Callable[[], ColumnTable]] = {}
    for seed in SEEDS:
        for region in REGIONS:
            cases[f"ookla-{region}-seed{seed}"] = (
                lambda r=region, s=seed: OoklaSimulator(r, seed=s).generate(
                    N_OOKLA_TESTS
                )
            )
            cases[f"mba-{region}-seed{seed}"] = (
                lambda r=region, s=seed: MBASimulator(r, seed=s).generate(
                    N_MBA_TESTS
                )
            )
            cases[f"mlab-{region}-seed{seed}"] = (
                lambda r=region, s=seed: MLabSimulator(r, seed=s).generate(
                    N_MLAB_SESSIONS
                )
            )
        cases[f"paired-A-seed{seed}"] = lambda s=seed: generate_paired_tests(
            "A", N_PAIRED_USERS, seed=s
        )
        cases[f"modem-panel-A-seed{seed}"] = lambda s=seed: _modem_panel(s)
    # Pipeline scale, lazily built users, and empty tables (whose column
    # digests pin the dtypes).
    cases["ookla-A-seed0-n10000"] = lambda: OoklaSimulator("A", seed=0).generate(
        N_PIPELINE_TESTS
    )
    cases["mba-A-seed0-n10000"] = lambda: MBASimulator("A", seed=0).generate(
        N_PIPELINE_TESTS
    )
    cases["ookla-A-seed0-two-batches"] = _two_batch_ookla
    cases["ookla-A-seed0-empty"] = lambda: OoklaSimulator("A", seed=0).generate(0)
    cases["mba-A-seed0-empty"] = lambda: MBASimulator("A", seed=0).generate(0)
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text())


def test_every_case_has_a_golden(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_columns_match_golden(case, golden):
    digests = table_digests(CASES[case]())
    assert sorted(digests) == sorted(golden[case])
    changed = [name for name in digests if digests[name] != golden[case][name]]
    assert not changed, f"{case}: columns changed bytes: {changed}"


@pytest.mark.parametrize(
    "case", ["ookla-B-seed3", "mba-C-seed3", "mlab-D-seed3", "paired-A-seed3"]
)
def test_second_generate_reproduces_every_column(case):
    first, second = CASES[case](), CASES[case]()
    assert table_digests(first) == table_digests(second)


def test_digest_sees_one_ulp():
    values = np.asarray([1.0, 2.0, 3.0])
    nudged = values.copy()
    nudged[1] = np.nextafter(nudged[1], np.inf)
    assert column_digest(values) != column_digest(nudged)


if __name__ == "__main__":
    print(
        json.dumps(
            {case: table_digests(CASES[case]()) for case in sorted(CASES)},
            indent=1,
            sort_keys=True,
        )
    )
