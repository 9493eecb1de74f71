"""Metamorphic relations of the whole chain, from input files to outputs.

Each relation changes a fixture set in a way whose effect on the answer is
known exactly, runs ``compare`` on the original and on the changed set
through ``cli.main``, and checks that effect on the output files:

- money x2: Z, Y, x and every numeric scenario target doubled. Scaling by a
  power of two is exact, so A, the LU, s q and each target/baseline ratio
  keep their bits, and every output file is byte-identical.
- stressors x2: every stressor row and direct-use value doubled. Every
  ``report.csv`` value is exactly doubled.
"""

import csv
import json
from dataclasses import replace
from pathlib import Path

import pytest

from mrio_footprint import fileio, fixtures
from mrio_footprint.cli import main

# (regions, sectors, seed): the smallest criterion-7 set and one at n = 200.
FIXTURES = [(3, 5, 7), (5, 40, 11)]


def write_changed_set(out: Path, dims: tuple[int, int, int], change=None,
                      target_scale: float = 1.0) -> Path:
    """Write fixture ``dims``, with its account passed through ``change`` and
    every numeric scenario target multiplied by ``target_scale``; returns
    the layout path."""
    layout = fixtures.write_fixture_set(*dims, out)
    if change is not None:
        fileio.write_account(change(fixtures.fixture(*dims)), out)
    for path in (out / "scenarios").glob("*.json"):
        spec = json.loads(path.read_text(encoding="utf-8"))
        spec["category_targets"] = {category: None if target is None else target * target_scale
                                    for category, target in spec["category_targets"].items()}
        path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    return layout


def run_compare(layout: Path, out: Path) -> Path:
    specs = sorted((layout.parent / "scenarios").glob("*.json"))
    assert main(["compare", "--layout", str(layout), "--params",
                 str(layout.parent / "params.json"), "--out", str(out),
                 *(item for spec in specs for item in ("--scenario", str(spec)))]) == 0
    return out


def tree(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def double_money(account):
    return replace(account, Z=2.0 * account.Z, Y=2.0 * account.Y, x=2.0 * account.x)


def double_stressors(account):
    return replace(account, extensions={
        name: replace(ext, rows=2.0 * ext.rows, direct=None if ext.direct is None else
                      {region: 2.0 * value for region, value in ext.direct.items()})
        for name, ext in account.extensions.items()})


@pytest.fixture(scope="module", params=FIXTURES, ids=lambda dims: "fixture{}-{}-{}".format(*dims))
def original(request, tmp_path_factory):
    """A fixture set's ``compare`` output, and the set's dimensions."""
    root = tmp_path_factory.mktemp("original")
    layout = write_changed_set(root / "fx", request.param)
    return request.param, run_compare(layout, root / "out")


def test_doubled_money_gives_byte_identical_outputs(original, tmp_path):
    dims, out = original
    layout = write_changed_set(tmp_path / "fx", dims, double_money, target_scale=2.0)
    expected = tree(out)
    assert len(expected) > 4
    assert tree(run_compare(layout, tmp_path / "out")) == expected


def test_doubled_stressors_double_every_report_value(original, tmp_path):
    dims, out = original
    layout = write_changed_set(tmp_path / "fx", dims, double_stressors)
    doubled = run_compare(layout, tmp_path / "out")
    reports = sorted(out.glob("*/report.csv"))
    assert [path.parent.name for path in reports] == ["baseline", "halved"]
    for path in reports:
        with path.open(encoding="utf-8") as a, (doubled / path.relative_to(out)).open(
                encoding="utf-8") as b:
            before, after = list(csv.DictReader(a)), list(csv.DictReader(b))
        assert len(after) == len(before) > 0
        for old, new in zip(before, after):
            assert {**new, "value": None} == {**old, "value": None}
            assert float(new["value"]) == 2.0 * float(old["value"]), old
