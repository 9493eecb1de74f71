"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

The file name keeps it out of the repository's default test collection: these
tests pin the benchmark's own contract (such as today's solve count), not the
program's.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from mrio_footprint import fixtures, scenario  # noqa: E402
from mrio_footprint.cli import main as cli_main  # noqa: E402

SOLVES_PER_SCENARIO = 71


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def compare_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("compare")
    fx = root / "fx"
    assert cli_main(["fixture", "--regions", "3", "--sectors", "5", "--seed", "7",
                     "--out", str(fx)]) == 0
    assert cli_main(["compare", "--layout", str(fx / "layout.json"),
                     "--scenario", str(fx / "scenarios" / "baseline.json"),
                     "--scenario", str(fx / "scenarios" / "halved.json"),
                     "--params", str(fx / "params.json"), "--out", str(root / "out")]) == 0
    return root / "out", checks.oracle_totals(fixtures.fixture(3, 5, 7))


def _rewrite(path: Path, dimension: str, factor: float) -> None:
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    for row in rows:
        if row[1] == "labour" and row[2] == dimension:
            row[4] = repr(float(row[4]) * factor)
            break
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def test_checks_pass_on_program_output(compare_tree):
    out, oracle = compare_tree
    stdout = "compared 2 scenario(s) over 5 report(s)\n"
    assert checks.check_compare(out, stdout, ["baseline", "halved"], oracle) == []


@pytest.mark.parametrize("dimension, factor, expected", [
    ("total", 1.0 + 1e-5, "misses the oracle"),
    ("total", 1.0 + 1e-8, "category rows miss the total"),
    ("origin", 1.0 + 1e-8, "origin rows miss the total"),
])
def test_checks_flag_a_perturbed_report(compare_tree, tmp_path, dimension, factor, expected):
    out, oracle = compare_tree
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    _rewrite(copy / "baseline" / "report.csv", dimension, factor)
    problems = checks.check_compare(copy, "compared 2 scenario(s)", ["baseline", "halved"], oracle)
    assert any("labour" in p and expected in p for p in problems), problems
    assert checks.tree_digest(copy) != checks.tree_digest(out)


def test_checks_flag_a_collapsed_scenario(compare_tree):
    out, oracle = compare_tree
    problems = checks.check_compare(out, "compared 2 scenario(s)",
                                    ["baseline", "halved", "missing"], oracle)
    assert any("missing" in p for p in problems)


def test_seeded_specs_are_valid_and_repeat(tmp_path):
    categories = ["Clothing", "Housing", "Healthcare"]
    specs = checks.seeded_specs(5, 8, categories)
    assert specs == checks.seeded_specs(5, 8, categories)
    assert specs != checks.seeded_specs(6, 8, categories)
    assert len({s["name"] for s in specs}) == 8
    for spec in specs:
        path = tmp_path / f"{spec['name']}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        loaded = scenario.load_scenario_spec(path)
        assert loaded.home_region == "R0"
        assert 0.5 <= loaded.government_factor <= 1.0
        assert len(loaded.adjustments) == 3
        assert all(m.source in categories for m in loaded.adjustments)


@pytest.mark.parametrize("workload, scenarios", [("smoke", 3), ("smoke-validate", 0)])
def test_traced_solve_count(workload, scenarios):
    result = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                            "--trace", "1"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    metrics = result["metrics"]
    assert metrics["algebra.solve_count"]["value"] == SOLVES_PER_SCENARIO * scenarios
    assert metrics["algebra.solve_count"]["unit"] == "count"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}


def test_untraced_run_reports_end_to_end_metrics():
    result = _result(_bench("--workload", "smoke", "--seed", "4", "--seconds", "1",
                            "--trace", "0"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["ok_share"]["value"] == 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
