"""Run ledger, manifests, and the ``repro obs`` CLI family."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.obs import use_collector, use_quality, use_registry
from repro.obs.runs import (
    RunLedger,
    RunManifest,
    RunRecorder,
    config_fingerprint,
    default_ledger_path,
    git_revision,
    new_run_id,
    peak_rss_bytes,
    record_bench,
)
from repro.obs.trace import span


_FAKE_SHA = "0123456789abcdef0123456789abcdef01234567"


@pytest.fixture
def fake_checkout(tmp_path, monkeypatch):
    """A minimal git checkout (``.git/HEAD`` -> ``refs/heads/main``) as cwd.

    Provenance must not depend on how the tree under test was copied (a
    clone or a ``git archive`` export), so these tests bring their own.
    """
    root = tmp_path / "checkout"
    (root / ".git" / "refs" / "heads").mkdir(parents=True)
    (root / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
    (root / ".git" / "refs" / "heads" / "main").write_text(_FAKE_SHA + "\n")
    monkeypatch.delenv("GIT_DIR", raising=False)
    monkeypatch.chdir(root)
    return root


def _record_one(name: str = "unit", results=None) -> RunManifest:
    """One manifest built from real (small) sink activity."""
    recorder = RunRecorder(
        kind="cli", name=name, argv=["x", "--y"], params={"seed": 7},
        seed=7,
    )
    with use_collector() as collector, use_registry() as registry:
        with use_quality() as quality:
            with recorder:
                with span("stage.a"):
                    pass
                quality.field("f").observe_array([1.0, float("nan")])
    return recorder.finish(
        exit_code=0,
        collector=collector,
        registry=registry,
        quality=quality,
        results=results or {"score": 0.5},
    )


class TestManifest:
    def test_round_trip(self):
        manifest = _record_one()
        clone = RunManifest.from_dict(
            json.loads(json.dumps(manifest.to_dict()))
        )
        assert clone.run_id == manifest.run_id
        assert clone.config_hash == manifest.config_hash
        assert clone.span_digest == manifest.span_digest
        assert clone.results == manifest.results
        assert clone.quality is not None
        assert clone.quality.fields[0].nan_rate == pytest.approx(0.5)

    def test_manifest_carries_provenance(self, fake_checkout):
        manifest = _record_one()
        assert manifest.git_sha == _FAKE_SHA
        assert len(manifest.config_hash) == 64
        assert manifest.seed == 7
        assert manifest.peak_rss_bytes > 0
        assert "stage.a" in manifest.span_table
        assert manifest.span_digest
        rendered = manifest.render()
        for needle in ("git sha", "config hash", "seed", "peak RSS",
                       "span table", "digest"):
            assert needle in rendered

    def test_run_ids_unique(self):
        assert new_run_id() != new_run_id()

    def test_peak_rss_positive(self):
        assert peak_rss_bytes() > 1024 * 1024

    def test_git_revision_here(self, fake_checkout, tmp_path):
        assert git_revision() == _FAKE_SHA
        assert git_revision(fake_checkout / "sub" / "dir") == _FAKE_SHA
        plain = tmp_path / "plain"
        plain.mkdir()
        assert git_revision(plain) is None


class TestConfigFingerprint:
    def test_order_independent(self):
        assert config_fingerprint({"a": 1, "b": 2.0}) == config_fingerprint(
            {"b": 2.0, "a": 1}
        )

    def test_value_sensitive(self):
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})

    def test_stable_across_processes(self):
        """The same params hash identically under different PYTHONHASHSEED."""
        program = (
            "from repro.obs.runs import config_fingerprint;"
            "print(config_fingerprint("
            "{'seed': 3, 'scale': 'small', 'names': ['b', 'a']}))"
        )
        hashes = set()
        for hashseed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            out = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True, text=True, env=env, check=True,
            )
            hashes.add(out.stdout.strip())
        assert len(hashes) == 1


class TestLedger:
    def test_append_and_find(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        first = _record_one("one")
        second = _record_one("two")
        ledger.append(first)
        ledger.append(second)
        assert [m.name for m in ledger.read()] == ["one", "two"]
        assert ledger.find(first.run_id).run_id == first.run_id
        assert ledger.find("latest").run_id == second.run_id
        # Prefix match (ids from the same second differ in the suffix).
        assert ledger.find(second.run_id[:-1]).run_id == second.run_id
        with pytest.raises(KeyError, match="ambiguous"):
            ledger.find(second.run_id[:9])  # shared timestamp prefix

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        ledger.append(_record_one("ok"))
        with open(path, "a") as fh:
            fh.write("{not json\n")
        ledger.append(_record_one("ok2"))
        assert [m.name for m in ledger.read()] == ["ok", "ok2"]

    def test_unknown_id_raises(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        with pytest.raises(KeyError):
            ledger.find("latest")
        ledger.append(_record_one())
        with pytest.raises(KeyError):
            ledger.find("zzz-does-not-exist")

    def test_env_disable(self, monkeypatch):
        for off in ("0", "off", "none", ""):
            monkeypatch.setenv("REPRO_LEDGER", off)
            assert default_ledger_path() is None
        monkeypatch.setenv("REPRO_LEDGER", "elsewhere.jsonl")
        assert default_ledger_path() == "elsewhere.jsonl"


class TestRecordBench:
    def test_writes_json_and_ledger(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "runs.jsonl"))
        manifest = record_bench(
            "unit_bench",
            wall_s=0.25,
            results={"speedup": 8.0},
            params={"n": 100},
        )
        data = json.loads((tmp_path / "BENCH_unit_bench.json").read_text())
        assert data["run_id"] == manifest.run_id
        assert data["results"]["speedup"] == 8.0
        rows = RunLedger(tmp_path / "runs.jsonl").read()
        assert [m.kind for m in rows] == ["bench"]
        assert rows[0].name == "bench.unit_bench"


class TestObsCli:
    """End-to-end: record via the CLI, inspect via ``repro obs``."""

    @pytest.fixture()
    def ledger_path(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        for seed in (1, 2):
            code = main(
                [
                    "evaluate", "--state", "A", "--n", "1500",
                    "--seed", str(seed), "--ledger", str(path),
                ]
            )
            assert code == 0
        return path

    def test_runs_lists_both(self, ledger_path, capsys):
        assert main(["obs", "runs", "--ledger", str(ledger_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("evaluate") == 2
        assert "2 matching runs" in out

    def test_show_latest(self, ledger_path, capsys):
        assert main(
            ["obs", "show", "latest", "--ledger", str(ledger_path)]
        ) == 0
        out = capsys.readouterr().out
        for needle in (
            "git sha", "config hash", "seed", "peak RSS",
            "span table", "-- data quality --", "mba.download_mbps",
        ):
            assert needle in out, needle

    def test_diff(self, ledger_path, capsys):
        runs = RunLedger(ledger_path).read()
        assert main(
            [
                "obs", "diff", runs[0].run_id, runs[1].run_id,
                "--ledger", str(ledger_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "wall time" in out
        assert "config hash" in out

    def test_check_passes_on_similar_runs(self, ledger_path, capsys):
        assert main(["obs", "check", "--ledger", str(ledger_path)]) == 0
        assert "ok (" in capsys.readouterr().out

    def test_check_fails_on_degraded_run(self, ledger_path, capsys):
        runs = RunLedger(ledger_path).read()
        bad = json.loads(json.dumps(runs[-1].to_dict()))
        bad["run_id"] = "99999999T999999-bad999"
        bad["wall_s"] = runs[-1].wall_s * 10 + 60.0
        for key in bad["results"]:
            bad["results"][key] = bad["results"][key] * 0.5
        with open(ledger_path, "a") as fh:
            fh.write(json.dumps(bad) + "\n")
        assert main(["obs", "check", "--ledger", str(ledger_path)]) == 1
        out = capsys.readouterr().out
        assert "timing regression" in out
        assert "result drift" in out

    def test_check_without_baseline_passes(self, tmp_path, capsys):
        path = tmp_path / "solo.jsonl"
        RunLedger(path).append(_record_one("solo"))
        assert main(["obs", "check", "--ledger", str(path)]) == 0
        assert "no earlier matching runs" in capsys.readouterr().out

    def test_no_ledger_flag(self, tmp_path, capsys):
        path = tmp_path / "never.jsonl"
        code = main(
            [
                "evaluate", "--state", "A", "--n", "1500",
                "--no-ledger", "--ledger", str(path),
            ]
        )
        assert code == 0
        assert not path.exists()

    def test_obs_commands_error_when_disabled(self, capsys):
        # REPRO_LEDGER=0 from the autouse fixture and no --ledger.
        assert main(["obs", "runs"]) == 2
        assert "disabled" in capsys.readouterr().err
