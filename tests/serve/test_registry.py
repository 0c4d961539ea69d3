"""Tests for the content-addressed model registry."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.config import BSTConfig
from repro.serve.registry import ModelKey, ModelRecord, ModelRegistry


@pytest.fixture
def registry(tmp_path):
    return ModelRegistry(tmp_path / "models")


def test_round_trip(registry, fitted_a, catalog_a):
    key = registry.key_for("A", catalog_a)
    record = registry.register(key, fitted_a)
    loaded, loaded_record = registry.load(key)
    assert np.array_equal(loaded.tiers, fitted_a.tiers)
    assert loaded_record.digest == record.digest
    assert loaded_record.train_size == len(fitted_a)


def test_key_includes_config_fingerprint(registry, catalog_a):
    default = registry.key_for("A", catalog_a)
    binned = registry.key_for("A", catalog_a, BSTConfig(kde_method="binned"))
    assert default.config_hash != binned.config_hash
    assert default.slug != binned.slug
    assert ModelKey.from_slug(default.slug) == default


def test_registration_is_content_addressed(registry, fitted_a, catalog_a):
    key_a = registry.key_for("A", catalog_a)
    key_b = registry.key_for("B", catalog_a)  # same fit, different city
    rec_a = registry.register(key_a, fitted_a)
    rec_b = registry.register(key_b, fitted_a)
    assert rec_a.digest == rec_b.digest
    objects = list(registry.objects_dir.glob("*.json"))
    assert len(objects) == 1  # one object, two index entries
    assert len(registry.records()) == 2


def test_reregistration_updates_record(registry, fitted_a, catalog_a):
    key = registry.key_for("A", catalog_a)
    first = registry.register(key, fitted_a)
    second = registry.register(key, fitted_a)
    assert second.digest == first.digest
    assert len(registry.records()) == 1
    assert second.created_s >= first.created_s


def test_lookup_miss_returns_none_load_raises(registry, catalog_a):
    key = registry.key_for("Z", catalog_a)
    assert registry.lookup(key) is None
    with pytest.raises(KeyError, match="no model registered"):
        registry.load(key)


def test_training_stats_recorded(registry, fitted_a, catalog_a, ookla_a):
    downs = np.asarray(ookla_a["download_mbps"], dtype=float)
    ups = np.asarray(ookla_a["upload_mbps"], dtype=float)
    key = registry.key_for("A", catalog_a)
    record = registry.register(key, fitted_a, downloads=downs, uploads=ups)
    stats = record.training_stats["download_mbps"]
    finite = downs[np.isfinite(downs)]
    assert stats["n"] == finite.size
    assert stats["mean"] == pytest.approx(finite.mean())
    assert "p95" in stats
    assert "upload_mbps" in record.training_stats


def test_staleness_metadata(registry, fitted_a, catalog_a):
    key = registry.key_for("A", catalog_a)
    record = registry.register(key, fitted_a)
    assert record.age_s() < 60.0
    assert record.age_s(now=record.created_s + 5.0) == 5.0
    assert record.created_utc.endswith("Z")


def test_every_load_reads_disk(registry, fitted_a, catalog_a):
    """The registry caches no fit: a registration loads nothing, and
    each load (plain or shared) reads the object again."""
    from repro.obs.metrics import MetricsRegistry, use_registry

    key = registry.key_for("A", catalog_a)
    with use_registry(MetricsRegistry()) as metrics:
        registry.register(key, fitted_a)
        loaded, _ = registry.load(key)
        again, _ = registry.load(key)
        shared, _ = registry.load_shared(key)
    assert again is not loaded
    assert np.array_equal(again.tiers, loaded.tiers)
    assert np.array_equal(shared.tiers, loaded.tiers)
    assert metrics.counter("serve.registry.loads").value == 2
    assert metrics.counter("serve.registry.shared_loads").value == 1


def test_index_survives_new_registry_instance(
    tmp_path, fitted_a, catalog_a
):
    root = tmp_path / "models"
    first = ModelRegistry(root)
    key = first.key_for("A", catalog_a)
    first.register(key, fitted_a)
    second = ModelRegistry(root)
    loaded, record = second.load(key)
    assert np.array_equal(loaded.tiers, fitted_a.tiers)
    assert record.key == key


def test_corrupt_index_raises_value_error(registry, fitted_a, catalog_a):
    key = registry.key_for("A", catalog_a)
    registry.register(key, fitted_a)
    registry.index_path.write_text("{not json")
    with pytest.raises(ValueError, match="corrupt registry index"):
        registry.lookup(key)


def test_unknown_index_schema_raises(registry):
    registry.root.mkdir(parents=True, exist_ok=True)
    registry.index_path.write_text(
        json.dumps({"index_schema": 99, "entries": {}})
    )
    with pytest.raises(ValueError, match="index schema"):
        registry.records()


def test_missing_object_raises_value_error(registry, fitted_a, catalog_a):
    key = registry.key_for("A", catalog_a)
    record = registry.register(key, fitted_a)
    registry.object_path(record.digest).unlink()
    with pytest.raises(ValueError, match="missing object"):
        registry.load(key)


def test_corrupt_object_raises_value_error(registry, fitted_a, catalog_a):
    key = registry.key_for("A", catalog_a)
    record = registry.register(key, fitted_a)
    registry.object_path(record.digest).write_text("{truncated")
    with pytest.raises(ValueError, match="corrupt model object"):
        registry.load(key)


def test_record_round_trips_through_dict(registry, fitted_a, catalog_a):
    key = registry.key_for("A", catalog_a)
    record = registry.register(key, fitted_a)
    assert ModelRecord.from_dict(record.to_dict()) == record
    with pytest.raises(ValueError, match="truncated model record"):
        ModelRecord.from_dict({"city": "A"})


def test_no_tmp_files_left_behind(registry, fitted_a, catalog_a):
    registry.register(registry.key_for("A", catalog_a), fitted_a)
    leftovers = [
        p for p in registry.root.rglob("*") if ".tmp." in p.name
    ]
    assert leftovers == []


# ---------------------------------------------------------------------------
# mmap sidecar + shard hashing
# ---------------------------------------------------------------------------
def _speeds(table):
    return (
        np.asarray(table["download_mbps"], dtype=float),
        np.asarray(table["upload_mbps"], dtype=float),
    )


def test_register_writes_mmap_sidecar(registry, fitted_a, catalog_a):
    record = registry.register(registry.key_for("A", catalog_a), fitted_a)
    sidecar = registry.shared_path(record.digest)
    assert sidecar.exists()
    assert sidecar.read_bytes().startswith(b"RPROARR1")


def test_load_shared_equals_load(registry, fitted_a, catalog_a):
    key = registry.key_for("A", catalog_a)
    registry.register(key, fitted_a)
    shared, record = registry.load_shared(key)
    assert np.array_equal(shared.tiers, fitted_a.tiers)
    assert np.array_equal(shared.group_indices, fitted_a.group_indices)
    # The big arrays are views into the mapped file, not copies.
    assert not shared.tiers.flags.owndata
    assert not shared.tiers.flags.writeable


def test_load_shared_backfills_missing_sidecar(
    registry, fitted_a, catalog_a
):
    key = registry.key_for("A", catalog_a)
    record = registry.register(key, fitted_a)
    registry.shared_path(record.digest).unlink()
    shared, _ = registry.load_shared(key)
    assert np.array_equal(shared.tiers, fitted_a.tiers)
    assert registry.shared_path(record.digest).exists()


def test_load_shared_rejects_corrupt_sidecar(
    registry, fitted_a, catalog_a
):
    key = registry.key_for("A", catalog_a)
    record = registry.register(key, fitted_a)
    registry.shared_path(record.digest).write_bytes(b"NOTMAGIC" + b"x" * 64)
    with pytest.raises(ValueError, match="magic"):
        registry.load_shared(key)


def test_index_rows_with_a_lookup_table_still_load_and_serve(
    tmp_path, fitted_a, catalog_a, ookla_a, fresh_sample
):
    """Older builds persisted a lookup table in each index row
    registered with its training sample.  Such a row still resolves,
    loads (plain and shared) and serves the same answers as a fresh
    registration; the table is ignored, and new rows carry none."""
    import shutil

    from repro.serve.server import AssignmentService, ServeConfig

    downs, ups = _speeds(ookla_a)
    fresh = ModelRegistry(tmp_path / "fresh")
    key = fresh.key_for("A", catalog_a)
    record = fresh.register(key, fitted_a, downloads=downs, uploads=ups)
    index = json.loads(fresh.index_path.read_bytes())
    assert "lookup" not in index["entries"][key.slug]
    assert "lookup" not in record.to_dict()

    # The row as an older build wrote it: a table that, if anything
    # read it, would put every row in upload group 0 at tier 1.
    index["entries"][key.slug]["lookup"] = {
        "lookup_schema": 1,
        "upload_cuts": [],
        "upload_labels": [0],
        "download_tables": {"0": {"cuts": [], "labels": [1]}},
        "verified_n": int(downs.size),
    }
    shutil.copytree(fresh.root, tmp_path / "older")
    older = ModelRegistry(tmp_path / "older")
    older.index_path.write_text(json.dumps(index, sort_keys=True, indent=2))

    assert older.resolve("A") == record
    for load in (older.load, older.load_shared):
        result, loaded_record = load(key)
        assert loaded_record == record
        assert np.array_equal(result.tiers, fitted_a.tiers)
        assert np.array_equal(result.group_indices, fitted_a.group_indices)
    fresh_downs, fresh_ups = fresh_sample
    body = {
        "downloads": fresh_downs[:200].tolist(),
        "uploads": fresh_ups[:200].tolist(),
    }
    answers = {}
    for name, registry in (("fresh", fresh), ("older", older)):
        for mmap_models in (False, True):
            service = AssignmentService(
                registry,
                ServeConfig(
                    default_city="A",
                    alert_interval_s=0.0,
                    mmap_models=mmap_models,
                ),
            )
            try:
                out = service.assign_payload(body)
            finally:
                service.close()
            answers[name, mmap_models] = out
    assert len({json.dumps(a, sort_keys=True) for a in answers.values()}) == 1


def test_shard_for_is_deterministic_and_total():
    from repro.serve.registry import shard_for

    assert shard_for("A", "MetroNet", 4) == shard_for("A", "MetroNet", 4)
    for n in (1, 2, 3, 8):
        assert 0 <= shard_for("A", "MetroNet", n) < n
    assert shard_for("A", "MetroNet", 1) == 0
    with pytest.raises(ValueError, match="n_shards"):
        shard_for("A", "MetroNet", 0)


# ---------------------------------------------------------------------------
# resolve: the one "newest matching registration" rule
# ---------------------------------------------------------------------------
def test_resolve_sees_another_instances_registration(
    tmp_path, fitted_a, catalog_a
):
    root = tmp_path / "models"
    serving = ModelRegistry(root)
    serving.register(serving.key_for("A", catalog_a), fitted_a)
    assert serving.resolve(city="A").key.city == "A"  # index now memoized
    with pytest.raises(KeyError):
        serving.resolve(city="B")
    # Another process registers through its own instance on the same root.
    ModelRegistry(root).register(serving.key_for("B", catalog_a), fitted_a)
    assert serving.resolve(city="B").key.city == "B"


def test_memoized_index_still_detects_corruption(
    registry, fitted_a, catalog_a
):
    registry.register(registry.key_for("A", catalog_a), fitted_a)
    assert len(registry.records()) == 1
    registry.index_path.write_bytes(b"\x00garbage{")
    with pytest.raises(ValueError, match="corrupt registry index"):
        registry.records()
    with pytest.raises(ValueError, match="corrupt registry index"):
        registry.resolve(city="A")


def test_resolve_picks_newest_registration(registry, fitted_a, catalog_a):
    default = registry.key_for("A", catalog_a)
    binned = registry.key_for("A", catalog_a, BSTConfig(kde_method="binned"))
    registry.register(default, fitted_a)
    registry.register(binned, fitted_a)
    assert registry.resolve(city="A").key == binned
    registry.register(default, fitted_a)  # re-registration is newer
    assert registry.resolve(city="A").key == default
    assert registry.resolve(config_hash=binned.config_hash).key == binned


def test_resolve_shard_filter_matches_shard_for(
    registry, fitted_a, catalog_a
):
    from repro.serve.registry import shard_for

    keys = [registry.key_for(c, catalog_a) for c in ("A", "B", "C", "D")]
    for key in keys:
        registry.register(key, fitted_a)
    for key in keys:
        owner = shard_for(key.city, key.isp, 2)
        assert registry.resolve(city=key.city, shard=(owner, 2)).key == key
        with pytest.raises(KeyError):
            registry.resolve(city=key.city, shard=(1 - owner, 2))


def test_resolve_miss_message(registry, fitted_a, catalog_a):
    registry.register(registry.key_for("A", catalog_a), fitted_a)
    with pytest.raises(KeyError) as err:
        registry.resolve(city="Z", isp="MetroNet")
    assert err.value.args[0] == (
        "no registered model matches "
        "city='Z' isp='MetroNet' config_hash=None"
    )


def test_concurrent_readers_never_see_the_index_go_back(
    registry, fitted_a, catalog_a
):
    """Readers racing registrations see a consistent, growing index."""
    registry.register(registry.key_for("A", catalog_a), fitted_a)
    n_new = 12
    done = threading.Event()
    failures: list[str] = []

    def reader() -> None:
        seen = 0
        try:
            while not done.is_set():
                records = registry.records()
                slugs = [r.key.slug for r in records]
                if len(records) < seen or slugs != sorted(slugs):
                    failures.append(f"went from {seen} to {slugs}")
                seen = len(records)
                registry.resolve(city="A")
        except Exception as exc:  # reported through `failures`
            failures.append(repr(exc))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=reader) for _ in range(8)]
    try:
        for thread in threads:
            thread.start()
        for i in range(n_new):
            registry.register(registry.key_for(f"C{i}", catalog_a), fitted_a)
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(registry.records()) == n_new + 1


_REGISTER_MANY = """
import sys, time
from pathlib import Path
from repro.serve.registry import ModelKey, ModelRegistry

root, base, proc, n, go = sys.argv[1:]
registry = ModelRegistry(root)
base_key = ModelKey.from_slug(base)
result, _ = registry.load(base_key)
Path(go + proc).touch()  # ready
while not Path(go).exists():
    time.sleep(0.001)
for i in range(int(n)):
    key = ModelKey(f"P{proc}-{i}", base_key.isp, base_key.config_hash)
    registry.register(key, result)
"""


def test_concurrent_processes_keep_every_index_entry(
    registry, fitted_a, catalog_a, tmp_path
):
    """Registries in separate processes register different keys at once;
    the index read-modify-write must not drop any of them."""
    base = registry.register(registry.key_for("A", catalog_a), fitted_a)
    n_procs, n_each = 4, 25
    go = str(tmp_path / "go")
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    procs = [
        subprocess.Popen(
            [
                sys.executable, "-c", _REGISTER_MANY, str(registry.root),
                base.key.slug, str(proc), str(n_each), go,
            ],
            env=env,
        )
        for proc in range(n_procs)
    ]
    try:
        deadline = time.monotonic() + 120
        while not all(
            os.path.exists(go + str(proc)) for proc in range(n_procs)
        ):
            assert time.monotonic() < deadline, "workers never got ready"
            assert all(p.poll() is None for p in procs), "a worker died"
            time.sleep(0.01)
        Path(go).touch()
        assert [p.wait(timeout=120) for p in procs] == [0] * n_procs
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    cities = {r.key.city for r in ModelRegistry(registry.root).records()}
    expected = {"A"} | {
        f"P{proc}-{i}" for proc in range(n_procs) for i in range(n_each)
    }
    assert cities == expected


def test_registration_counts_no_assignment(
    registry, fitted_a, catalog_a, ookla_a
):
    """A registration with its training sample answers nothing, so no
    assignment count moves."""
    from repro.obs.metrics import MetricsRegistry, use_registry
    from repro.obs.quality import use_quality

    with use_registry(MetricsRegistry()) as metrics, use_quality() as quality:
        registry.register(
            registry.key_for("A", catalog_a),
            fitted_a,
            downloads=np.asarray(ookla_a["download_mbps"], dtype=float),
            uploads=np.asarray(ookla_a["upload_mbps"], dtype=float),
        )
    counted = {
        name for name in metrics.snapshot() if name.endswith("assigned")
    }
    assert counted == set()
    assert quality.report().n_assignments == 0
