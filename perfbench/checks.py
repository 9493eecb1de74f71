"""What the benchmark calls correct: inputs it derives from a seed, an
independent oracle, and checks on every output tree the CLI writes.

Nothing here is timed. The oracle uses only numpy on the in-memory fixture,
never the package's solve path, so a wrong solver cannot agree with it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from collections import defaultdict
from pathlib import Path

import numpy as np

# Bounds of the acceptance suite: criterion 1 (solver against an oracle) and
# criteria 3 and 4 (additivity of the disaggregations).
ORACLE_RTOL = 1e-6
ADDITIVITY_RTOL = 1e-9

HOME_REGION = "R0"
BASELINE_SPEC = "baseline"
# Final-demand columns of the home region that scenarios act on: consumption
# (households, non-profit, government) plus gross fixed capital formation.
BASELINE_DEMAND = ("households", "non-profit", "government", "gfcf")
ZERO_OUTPUT_EPS = 1e-9


def oracle_totals(account) -> dict[str, float]:
    """Baseline footprint total of every report, by a dense numpy solve.

    Report names follow the CLI: one per extension, and for a material
    extension with used/unused flags a ``-tmc`` (all rows) and ``-mf`` (used
    rows) variant.
    """
    x = np.asarray(account.x, dtype=float)
    active = x > ZERO_OUTPUT_EPS
    inverse_x = np.zeros_like(x)
    inverse_x[active] = 1.0 / x[active]
    A = account.Z * inverse_x[np.newaxis, :]
    columns = [j for j, (region, category) in enumerate(account.y_columns)
               if region == HOME_REGION and category in BASELINE_DEMAND]
    y = account.Y[:, columns].sum(axis=1)
    q = np.linalg.solve(np.eye(x.size) - A, y)

    totals: dict[str, float] = {}
    for name, ext in account.extensions.items():
        rows = np.asarray(ext.rows, dtype=float)
        if ext.kind == "material" and ext.material_flags is not None:
            used = [k for k, label in enumerate(ext.stressors)
                    if ext.material_flags.get(label) == "used"]
            totals[f"{name}-tmc"] = float(rows.sum(axis=0) * inverse_x @ q)
            if used:
                totals[f"{name}-mf"] = float(rows[used].sum(axis=0) * inverse_x @ q)
        else:
            totals[name] = float(rows.sum(axis=0) * inverse_x @ q)
    return totals


def seeded_specs(seed: int, count: int, categories: list[str]) -> list[dict]:
    """``count`` budget-sweep scenario specs drawn from ``seed``.

    Every spec has a unique name, the single home region R0, a government
    factor in [0.5, 1] and three budget moves between ``categories`` (or
    dropped), so each one stays valid under a rule that rejects duplicate
    names or mixed home regions.
    """
    rng = random.Random(seed)
    specs = []
    for i in range(count):
        moves = []
        for _ in range(3):
            source = rng.choice(categories)
            destination = rng.choice([c for c in categories if c != source] + [None])
            move = {"source": source, "fraction": rng.uniform(0.0, 0.5)}
            if destination is not None:
                move["destination"] = destination
            moves.append(move)
        specs.append({
            "name": f"sweep-{i:03d}",
            "home_region": HOME_REGION,
            "category_targets": {category: None for category in categories},
            "government_factor": rng.uniform(0.5, 1.0),
            "adjustments": moves,
        })
    if len({s["name"] for s in specs}) != len(specs):
        raise ValueError("seeded scenario names are not unique")
    if {s["home_region"] for s in specs} - {HOME_REGION}:
        raise ValueError("seeded scenarios mix home regions")
    return specs


def concordance_categories(path: Path) -> list[str]:
    """Spending categories named in a (sector, category) concordance, in order."""
    seen: dict[str, None] = {}
    with path.open(newline="", encoding="utf-8") as handle:
        for row in csv.reader(handle, delimiter="\t"):
            if len(row) >= 2 and not row[0].startswith("#"):
                seen[row[1].strip()] = None
    return list(seen)


def tree_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of every file under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _rel(actual: float, expected: float) -> float:
    return abs(actual - expected) / max(abs(expected), 1e-300)


def check_report_csv(path: Path, oracle: dict[str, float] | None = None) -> list[str]:
    """Problems in one scenario's report.csv.

    Per report, the category rows and the origin rows must each sum to the
    total; with an oracle, every total must match it and no report may be
    missing or extra.
    """
    totals: dict[str, float] = {}
    sums: dict[tuple[str, str], float] = defaultdict(float)
    with path.open(newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            value = float(row["value"])
            if row["dimension"] == "total":
                totals[row["extension"]] = value
            elif row["dimension"] in ("category", "origin"):
                sums[row["extension"], row["dimension"]] += value
    problems = []
    if not totals:
        problems.append(f"{path}: no total rows")
    for name, total in totals.items():
        for dimension in ("category", "origin"):
            gap = _rel(sums.get((name, dimension), 0.0), total)
            if gap > ADDITIVITY_RTOL:
                problems.append(f"{path}: {name} {dimension} rows miss the total by {gap:.3e}")
    if oracle is not None:
        if set(totals) != set(oracle):
            problems.append(f"{path}: reports {sorted(totals)} != expected {sorted(oracle)}")
        for name in set(totals) & set(oracle):
            gap = _rel(totals[name], oracle[name])
            if gap > ORACLE_RTOL:
                problems.append(f"{path}: {name} total misses the oracle by {gap:.3e}")
    return problems


def check_compare(out_dir: Path, stdout: str, spec_names: list[str],
                  oracle: dict[str, float]) -> list[str]:
    """Problems in a compare output tree: one report per spec, additivity in
    each, baseline totals against the oracle, comparison and plot files."""
    problems = []
    if f"compared {len(spec_names)} scenario(s)" not in stdout:
        problems.append(f"stdout does not report {len(spec_names)} scenarios: {stdout.strip()!r}")
    for name in spec_names:
        report = out_dir / name / "report.csv"
        if not report.is_file():
            problems.append(f"missing {report}")
            continue
        problems += check_report_csv(report, oracle if name == BASELINE_SPEC else None)
    for required in ("comparison.csv", "plots/fig1.csv", "plots/fig5.csv"):
        if not (out_dir / required).is_file():
            problems.append(f"missing {out_dir / required}")
    return problems


def check_validate(out_dir: Path, stdout: str) -> list[str]:
    """Problems in a validate run: it must call the account productive."""
    problems = []
    if not any(line.startswith("productivity:") and line.rstrip().endswith("— productive")
               for line in stdout.splitlines()):
        problems.append(f"validate did not report productive: {stdout.strip()!r}")
    try:
        payload = json.loads((out_dir / "validation.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return problems + [f"unreadable validation.json: {exc}"]
    if payload.get("productivity", {}).get("productive") is not True:
        problems.append("validation.json does not record a productive account")
    if payload.get("balance", {}).get("violations"):
        problems.append("validation.json records balance violations")
    return problems
