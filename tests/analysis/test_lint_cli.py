"""End-to-end tests for ``repro lint`` (and the live-tree meta-test)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src"


@pytest.fixture
def bad_tree(tmp_path):
    """A scan root with one seeded violation per rule family."""
    root = tmp_path / "tree"
    root.mkdir()
    (root / "bad.py").write_text(
        "import random\n"
        "import time\n"
        "\n"
        "\n"
        "def f(xs=[]):\n"
        "    xs.append(random.random())\n"
        "    return time.time()\n"
    )
    return root


def test_live_tree_is_clean(capsys):
    """Meta-test: the shipped source passes its own lint gate."""
    code = main(["lint", "--root", str(SRC_ROOT)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.startswith("OK ")
    assert "0 findings" in out


def test_seeded_violations_fail(bad_tree, capsys):
    code = main(["lint", "--root", str(bad_tree)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    for rule_id in ("COR001", "DET001", "DET002"):
        assert rule_id in out


def test_json_format_is_artifact_schema(bad_tree, capsys):
    code = main(["lint", "--root", str(bad_tree), "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["files_checked"] == 1
    rules = {f["rule"] for f in payload["findings"]}
    assert {"COR001", "DET001", "DET002"} <= rules
    assert all(
        {"path", "line", "col", "rule", "severity", "message"}
        <= set(f)
        for f in payload["findings"]
    )


def test_select_subset(bad_tree, capsys):
    code = main(["lint", "--root", str(bad_tree), "--select", "COR001"])
    out = capsys.readouterr().out
    assert code == 1
    assert "COR001" in out
    assert "DET001" not in out


def test_select_unknown_rule_errors(bad_tree, capsys):
    code = main(["lint", "--root", str(bad_tree), "--select", "NOPE999"])
    assert code == 2
    assert "unknown rule" in capsys.readouterr().err


def test_explicit_paths(bad_tree, capsys):
    clean = bad_tree / "clean.py"
    clean.write_text("x = 1\n")
    code = main(["lint", "--root", str(bad_tree), str(clean)])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 files" in out


def test_list_rules(capsys):
    code = main(["lint", "--list-rules"])
    out = capsys.readouterr().out
    assert code == 0
    for rule_id in ("DET001", "COR001", "OBS001", "LOCK001", "LINT001"):
        assert rule_id in out


def test_lint_run_lands_in_ledger(bad_tree, tmp_path, capsys):
    """The satellite contract: lint runs flow through repro.obs."""
    ledger = tmp_path / "runs.jsonl"
    code = main(
        ["lint", "--root", str(bad_tree), "--ledger", str(ledger)]
    )
    assert code == 1
    capsys.readouterr()
    rows = [
        json.loads(line)
        for line in ledger.read_text().splitlines()
        if line.strip()
    ]
    assert len(rows) == 1
    manifest = rows[0]
    assert manifest["name"] == "lint"
    assert manifest["results"]["findings"] == 3.0
    assert manifest["metrics"]["lint.findings"]["value"] == 3.0
    assert manifest["metrics"]["lint.rules_run"]["value"] >= 10
    assert "lint.run" in manifest["span_table"]
