"""The README's Quick start commands and library example run as written."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from mrio_footprint import fixtures
from mrio_footprint.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    start = text.index("## Quick start")
    block = re.compile(r"```\n(.*?)```", re.DOTALL).search(text, start)
    assert block.start() < text.index("\n## ", start)
    commands = [shlex.split(line) for line in block.group(1).replace("\\\n", " ").splitlines()]
    assert commands and all(command[0] == "mrio-footprint" for command in commands)
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(command[1:]) == 0, command
    results = tmp_path / "results"
    for name in ("baseline", "halved"):
        assert (results / name / "report.csv").is_file()
        assert (results / name / "summary.txt").is_file()
    assert (results / "comparison.csv").is_file()
    assert sorted(path.name for path in (results / "plots").iterdir()) == [
        f"fig{k}.csv" for k in range(1, 6)]


def test_library_use_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    fence = re.compile(r"```python\n(.*?)```", re.DOTALL)
    block = fence.search(text, text.index("### Library use"))
    # Padded so that a traceback names the snippet's lines in the README.
    snippet = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
    fixtures.write_fixture_set(3, 5, 7, tmp_path / "fx")
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, str(README), "exec"), {})
    radius, total, report_total, by_category = capsys.readouterr().out.splitlines()
    assert 0.0 < float(radius) < 1.0
    assert float(report_total) == pytest.approx(float(total), rel=1e-9)
    assert len(ast.literal_eval(by_category)) == 13
