"""The README's library example runs as written."""

import ast
import re
from pathlib import Path

import pytest

from mrio_footprint import fixtures

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    fence = re.compile(r"```python\n(.*?)```", re.DOTALL)
    block = fence.search(text, text.index("### Library use"))
    # Padded so that a traceback names the snippet's lines in the README.
    snippet = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
    fixtures.write_fixture_set(3, 5, 7, tmp_path / "fx")
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, str(README), "exec"), {})
    radius, total, via_multipliers, by_category = capsys.readouterr().out.splitlines()
    assert 0.0 < float(radius) < 1.0
    assert float(via_multipliers) == pytest.approx(float(total), rel=1e-9)
    assert len(ast.literal_eval(by_category)) == 13
