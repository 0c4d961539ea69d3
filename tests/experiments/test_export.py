"""Tests for the report-export module."""

from pathlib import Path

import numpy as np
import pytest

from repro.experiments import Scale
from repro.experiments.export import export_all, scorecard
from repro.frame import ColumnTable, read_csv, write_csv

RESULTS = Path(__file__).resolve().parents[2] / "results"


def test_export_subset(tmp_path):
    results = export_all(
        tmp_path, experiment_ids=["fig10", "tab2"], scale=Scale.SMALL
    )
    assert set(results) == {"fig10", "tab2"}
    assert (tmp_path / "fig10.txt").exists()
    assert (tmp_path / "tab2.txt").exists()
    assert "fig10" in (tmp_path / "summary.txt").read_text()


def test_metrics_csv_structure(tmp_path):
    export_all(tmp_path, experiment_ids=["tab2"], scale=Scale.SMALL)
    metrics = read_csv(tmp_path / "metrics.csv")
    assert set(metrics.column_names) == {
        "experiment", "metric", "measured", "paper",
    }
    assert len(metrics) > 0
    assert set(metrics["experiment"].tolist()) == {"tab2"}


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(KeyError, match="unknown"):
        export_all(tmp_path, experiment_ids=["fig99"])


def test_creates_directory(tmp_path):
    target = tmp_path / "nested" / "reports"
    export_all(target, experiment_ids=["fig10"], scale=Scale.SMALL)
    assert target.is_dir()


def test_cli_report_all(tmp_path, capsys):
    from repro.cli import main

    code = main(
        [
            "report-all", "--out-dir", str(tmp_path / "reports"),
            "--scale", "small", "--only", "fig10",
        ]
    )
    assert code == 0
    assert "exported 1" in capsys.readouterr().out


def _metrics_file(path, measured):
    write_csv(
        ColumnTable(
            {
                "experiment": ["fig1", "fig1", "tab2"],
                "metric": ["a", "b", "c"],
                "measured": measured,
                "paper": [10.0, float("nan"), 0.5],
            }
        ),
        path,
    )
    return path


class TestScorecard:
    def test_relative_errors_and_aggregates(self, tmp_path):
        files = [
            _metrics_file(tmp_path / "s0.csv", [11.0, 3.0, 0.5]),
            _metrics_file(tmp_path / "s1.csv", [7.0, 4.0, 0.5625]),
        ]
        card, aggregates = scorecard(files)
        assert card.column_names == [
            "experiment", "metric", "paper", "seed0", "seed1", "median",
        ]
        # Only paper-paired metrics are scored.
        assert card["metric"].tolist() == ["a", "c"]
        np.testing.assert_allclose(card["seed0"], [0.1, 0.0])
        np.testing.assert_allclose(card["seed1"], [0.3, 0.125])
        np.testing.assert_allclose(card["median"], [0.2, 0.0625])
        np.testing.assert_allclose(
            aggregates["median_rel_error"], [0.05, 0.2125]
        )
        # Within is inclusive: an error of exactly 10% counts.
        assert aggregates["within_10"].tolist() == [2, 0]
        assert aggregates["within_25"].tolist() == [2, 1]

    def test_files_must_pair_the_same_metrics(self, tmp_path):
        first = _metrics_file(tmp_path / "s0.csv", [11.0, 3.0, 0.5])
        other = tmp_path / "s1.csv"
        table = read_csv(first)
        write_csv(
            ColumnTable(
                {**{n: table[n] for n in table.column_names},
                 "paper": [10.0, float("nan"), 0.6]}
            ),
            other,
        )
        with pytest.raises(ValueError, match="pairs other metrics"):
            scorecard([first, other])
        with pytest.raises(ValueError):
            scorecard([])

    def test_committed_scorecard_matches_committed_metrics(self):
        """``results/scorecard.csv``'s seed-0 column is the scorecard of
        ``results/metrics.csv`` (both from ``report-all --seed 0``)."""
        committed = read_csv(RESULTS / "scorecard.csv")
        card, _ = scorecard([RESULTS / "metrics.csv"])
        for name in ("experiment", "metric", "paper", "seed0"):
            assert committed[name].tolist() == card[name].tolist(), name
