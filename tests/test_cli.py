"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.frame import read_csv, write_csv


@pytest.fixture
def ookla_csv(tmp_path, ookla_a):
    path = tmp_path / "ookla.csv"
    write_csv(ookla_a.head(1500), path)
    return path


@pytest.fixture
def ctx_csv(tmp_path, ookla_ctx_a):
    path = tmp_path / "ctx.csv"
    write_csv(ookla_ctx_a.table.head(1500), path)
    return path


class TestGenerate:
    def test_generate_ookla(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = main(
            [
                "generate", "--vendor", "ookla", "--city", "A",
                "--n", "200", "--seed", "5", "--out", str(out),
            ]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        assert len(read_csv(out)) >= 200

    def test_generate_mba(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code = main(
            [
                "generate", "--vendor", "mba", "--city", "B",
                "--n", "300", "--out", str(out),
            ]
        )
        assert code == 0
        table = read_csv(out)
        assert "tier" in table

    def test_generate_and_join_mlab(self, tmp_path, capsys):
        raw = tmp_path / "ndt.csv"
        joined = tmp_path / "joined.csv"
        assert main(
            [
                "generate", "--vendor", "mlab", "--city", "A",
                "--n", "400", "--out", str(raw),
            ]
        ) == 0
        assert main(
            ["join-ndt", "--input", str(raw), "--out", str(joined)]
        ) == 0
        table = read_csv(joined)
        assert "download_mbps" in table and "upload_mbps" in table

    def test_unknown_vendor_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "generate", "--vendor", "fast", "--out",
                    str(tmp_path / "x.csv"),
                ]
            )


class TestContextualize:
    def test_round_trip(self, tmp_path, ookla_csv, capsys):
        out = tmp_path / "ctx.csv"
        code = main(
            [
                "contextualize", "--input", str(ookla_csv),
                "--city", "A", "--out", str(out),
            ]
        )
        assert code == 0
        table = read_csv(out)
        assert "bst_tier" in table
        assert "median dl/plan" in capsys.readouterr().out

    def test_jobs_flag_matches_serial(self, tmp_path, ookla_csv, capsys):
        serial_out = tmp_path / "ctx1.csv"
        parallel_out = tmp_path / "ctx2.csv"
        base = ["contextualize", "--input", str(ookla_csv), "--city", "A"]
        assert main(base + ["--out", str(serial_out)]) == 0
        assert main(
            base + ["--out", str(parallel_out), "--jobs", "2"]
        ) == 0
        capsys.readouterr()
        assert serial_out.read_text() == parallel_out.read_text()

    def test_ledger_manifest_carries_quality_gauges(
        self, tmp_path, ookla_csv, capsys
    ):
        """A ledgered run's ``quality.*`` metrics are its quality report's
        scalars: the gauges land in the registry the manifest snapshots."""
        from repro.obs.runs import RunLedger

        ledger = tmp_path / "runs.jsonl"
        assert main(
            [
                "contextualize", "--input", str(ookla_csv), "--city", "A",
                "--out", str(tmp_path / "ctx.csv"), "--ledger", str(ledger),
            ]
        ) == 0
        capsys.readouterr()
        (manifest,) = RunLedger(str(ledger)).matching(name="contextualize")
        gauges = {
            name: entry["value"]
            for name, entry in manifest.metrics.items()
            if name.startswith("quality.")
        }
        assert manifest.quality.n_assignments == 1500
        assert gauges == pytest.approx(manifest.quality.scalars())
        assert gauges

    def test_jobs_default_is_serial(self):
        args = build_parser().parse_args(
            ["contextualize", "--input", "x.csv", "--city", "A",
             "--out", "y.csv"]
        )
        assert args.jobs == 1


class TestEvaluate:
    def test_reports_accuracy(self, capsys):
        code = main(["evaluate", "--state", "A", "--n", "3000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "upload-group accuracy" in out
        assert "%" in out


class TestExperiments:
    def test_list(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig13" in out and "tab2" in out

    def test_run_small_experiment(self, capsys):
        code = main(["experiment", "fig10", "--scale", "small"])
        assert code == 0
        assert "bottleneck" in capsys.readouterr().out.lower()

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestAuditAndChallenge:
    def test_audit_raw_table(self, ookla_csv, capsys):
        assert main(["audit", "--input", str(ookla_csv)]) == 0
        out = capsys.readouterr().out
        assert "interpretability score" in out
        assert "recommendations" in out

    def test_audit_contextualised(self, ctx_csv, capsys):
        assert main(["audit", "--input", str(ctx_csv)]) == 0
        out = capsys.readouterr().out
        assert "subscription plan" in out

    def test_challenge_triage(self, ctx_csv, capsys):
        assert main(["challenge", "--input", str(ctx_csv)]) == 0
        out = capsys.readouterr().out
        assert "challenge-worthy" in out
        assert "evidence-grade" in out

    def test_challenge_custom_ratio(self, ctx_csv, capsys):
        assert main(
            ["challenge", "--input", str(ctx_csv), "--ratio", "0.9"]
        ) == 0


class TestDescribeAndDossier:
    def test_describe(self, capsys):
        assert main(["describe", "--city", "A"]) == 0
        out = capsys.readouterr().out
        assert "BST methodology" in out
        assert "Tier 1-3" in out

    def test_dossier(self, capsys):
        assert main(
            ["dossier", "--city", "A", "--n", "2000", "--seed", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Broadband dossier" in out
        assert "challenge triage" in out


class TestObservabilityFlags:
    def test_all_subcommands_accept_obs_flags(self):
        import argparse

        parser = build_parser()
        subparsers = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        for name, sub in subparsers.choices.items():
            options = {
                opt for action in sub._actions
                for opt in action.option_strings
            }
            assert {
                "--log-level", "--log-format", "--trace-out",
                "--metrics", "--profile",
            } <= options, f"{name} is missing obs flags"

    def test_trace_out_writes_valid_jsonl(self, tmp_path, ookla_csv, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "contextualize", "--input", str(ookla_csv),
                "--city", "A", "--out", str(tmp_path / "ctx.csv"),
                "--trace-out", str(trace),
            ]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        rows = [
            json.loads(line)
            for line in trace.read_text().splitlines()
        ]
        assert rows, "trace file is empty"
        names = {row["name"] for row in rows}
        assert {
            "contextualize", "bst.fit", "bst.fit_upload",
            "kde.count_peaks", "gmm.fit", "bst.assign",
        } <= names
        for row in rows:
            assert {"name", "span_id", "duration_s", "attributes"} <= set(row)

    def test_metrics_flag_prints_summary(self, tmp_path, ookla_csv, capsys):
        code = main(
            [
                "contextualize", "--input", str(ookla_csv),
                "--city", "A", "--out", str(tmp_path / "ctx.csv"),
                "--metrics",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "-- metrics summary --" in out
        assert "em.iterations" in out
        assert "kde.peaks_found" in out

    def test_no_obs_flags_no_obs_output(self, tmp_path, ookla_csv, capsys):
        code = main(
            [
                "contextualize", "--input", str(ookla_csv),
                "--city", "A", "--out", str(tmp_path / "ctx.csv"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics summary" not in out
        assert "spans" not in out

    def test_trace_out_unwritable_fails_fast(self, tmp_path, ookla_csv, capsys):
        code = main(
            [
                "contextualize", "--input", str(ookla_csv),
                "--city", "A", "--out", str(tmp_path / "ctx.csv"),
                "--trace-out", str(tmp_path / "missing" / "t.jsonl"),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "cannot write --trace-out" in captured.err
        # Fails before the command runs -- no contextualise output.
        assert "contextualised rows" not in captured.out

    def test_profile_flag_prints_stats(self, capsys):
        code = main(["describe", "--city", "A", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "-- profile" in out
        assert "cumulative" in out

    def test_log_level_json_goes_to_stderr(self, tmp_path, ookla_csv, capsys):
        code = main(
            [
                "contextualize", "--input", str(ookla_csv),
                "--city", "A", "--out", str(tmp_path / "ctx.csv"),
                "--log-level", "info", "--log-format", "json",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        log_lines = [
            json.loads(line)
            for line in captured.err.splitlines() if line.startswith("{")
        ]
        assert any(
            row["logger"] == "repro.pipeline.contextualize"
            for row in log_lines
        )
        # stdout stays machine-readable: no log lines mixed in.
        assert "{" not in captured.out

    def test_experiment_with_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "exp.jsonl"
        code = main(
            [
                "experiment", "tab2", "--scale", "small",
                "--trace-out", str(trace), "--metrics",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "-- metrics summary --" in out
        assert "-- timings --" in out
        names = {
            json.loads(line)["name"]
            for line in trace.read_text().splitlines()
        }
        assert "experiment.tab2" in names
        assert "bst.fit" in names


def test_no_command_exits():
    with pytest.raises(SystemExit):
        main([])


class TestAssign:
    def test_assign_cold_then_warm(self, tmp_path, ookla_csv, capsys):
        registry = tmp_path / "models"
        cold_out = tmp_path / "cold.csv"
        warm_out = tmp_path / "warm.csv"
        code = main(
            [
                "assign", "--input", str(ookla_csv), "--city", "A",
                "--registry", str(registry), "--out", str(cold_out),
            ]
        )
        assert code == 0
        assert "fresh fit (now registered)" in capsys.readouterr().out
        code = main(
            [
                "assign", "--input", str(ookla_csv), "--city", "A",
                "--registry", str(registry), "--out", str(warm_out),
            ]
        )
        assert code == 0
        assert "registered model" in capsys.readouterr().out
        assert cold_out.read_bytes() == warm_out.read_bytes()
        assert (registry / "index.json").exists()

    def test_assign_records_one_assignment_per_row(
        self, tmp_path, ookla_csv, capsys
    ):
        """Under the run ledger, a fresh fit (cold) and a registered model
        (warm) each record one assignment per row: the registration
        counts none."""
        from repro.obs.runs import RunLedger

        ledger = tmp_path / "runs.jsonl"
        for _ in ("cold", "warm"):
            assert main(
                [
                    "assign", "--input", str(ookla_csv), "--city", "A",
                    "--registry", str(tmp_path / "models"),
                    "--out", str(tmp_path / "out.csv"),
                    "--ledger", str(ledger),
                ]
            ) == 0
        capsys.readouterr()
        cold, warm = RunLedger(str(ledger)).matching(name="assign")
        assert [m.results["registry_hit"] for m in (cold, warm)] == [0, 1]
        for manifest in (cold, warm):
            assert manifest.quality.n_assignments == manifest.results["rows"]

    def test_assign_output_matches_contextualize(
        self, tmp_path, ookla_csv, capsys
    ):
        ctx_out = tmp_path / "ctx.csv"
        assign_out = tmp_path / "assign.csv"
        assert main(
            [
                "contextualize", "--input", str(ookla_csv), "--city", "A",
                "--out", str(ctx_out),
            ]
        ) == 0
        assert main(
            [
                "assign", "--input", str(ookla_csv), "--city", "A",
                "--registry", str(tmp_path / "models"),
                "--out", str(assign_out),
            ]
        ) == 0
        capsys.readouterr()
        assert ctx_out.read_bytes() == assign_out.read_bytes()
