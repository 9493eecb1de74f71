"""Command-line pipeline: validate data, compute footprints, compare scenarios.

Verbs:
    validate   ingest + balance check + productivity certificate
    footprint  apply one scenario and write per-extension reports
    compare    run several scenarios and write comparison + plot-ready series
    fixture    write a complete synthetic data set

Exit codes: 0 clean, 1 operational error, 2 validation failure, which for
every verb includes an economy not certified productive. All emitted files
are deterministic functions of the inputs (numbers carry 17 significant
digits; no timestamps), so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import algebra, fileio, fixtures, indicators, model, scenario
from .errors import MrioError, ParseError, UnknownRegion, UnproductiveEconomy
from .fileio import format_number as _FMT
from .indicators import ConversionParams, FootprintReport
from .model import MrioAccount
from .scenario import ScenarioSpec

# Conventional companion files next to the layout descriptor, used when the
# corresponding flags are not given.
DEFAULT_CATEGORY_CONCORDANCE = "category_concordance.tsv"
DEFAULT_SECTOR_GROUPS = "sector_groups.tsv"

# What compare writes next to the scenario directories.
COMPARE_OUTPUTS = ("comparison.csv", "plots")


def _existing(path: str | Path) -> Path:
    """``path`` as a Path; FileNotFoundError when nothing is there."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    return path


def _out_dir(raw: str) -> Path:
    """``--out`` as a path, checked before any work: it must name something,
    and the path, or else its nearest existing parent, must be a directory."""
    if not raw.strip():
        raise MrioError(f"--out {raw!r} names no directory")
    out = Path(raw)
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise MrioError(f"--out {raw}: {existing} exists and is not a directory")
    return out


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def _load_specs(paths: list[Path], home_region: str | None,
                compare: bool) -> list[ScenarioSpec]:
    """Every scenario spec of a run; two specs may not share a name.

    For ``compare`` no spec may be named after compare's own outputs, and
    the specs must share a home region (the deltas and per-capita values
    assume one population), unless --home-region overrides them all.
    """
    specs: list[ScenarioSpec] = []
    seen: dict[str, Path] = {}
    for path in paths:
        spec = scenario.load_scenario_spec(path)
        if compare and spec.name in COMPARE_OUTPUTS:
            raise ParseError(f"scenario name {spec.name!r} is the name of an output "
                             "of compare", path=str(path))
        if spec.name in seen:
            raise MrioError(f"scenario name {spec.name!r} is used by both "
                            f"{seen[spec.name]} and {path}")
        seen[spec.name] = path
        specs.append(spec)
    if compare and home_region is None:
        first, first_path = specs[0], paths[0]
        for spec, path in zip(specs, paths):
            if spec.home_region != first.home_region:
                raise MrioError(f"scenario {first.name!r} ({first_path}) has home region "
                                f"{first.home_region!r} but {spec.name!r} ({path}) has "
                                f"{spec.home_region!r}; set --home-region to compare them")
    return specs


def _run(args, compare: bool = False) -> tuple[
        Path, list[tuple[ScenarioSpec, list[FootprintReport]]]]:
    """The shared run of ``footprint`` and ``compare``: checks every flag,
    file and spec, loads the inputs, makes every scenario's reports from one
    solve, then writes them to one directory per scenario, in spec order.
    Returns the output directory and each spec with its reports."""
    layout_path = _existing(args.layout)
    spec_paths = [_existing(raw) for raw in args.scenario]
    params_path = _existing(args.params)
    base = layout_path.parent
    categories_path = _existing(args.categories or base / DEFAULT_CATEGORY_CONCORDANCE)
    groups_path = _existing(args.groups or base / DEFAULT_SECTOR_GROUPS)
    extensions = None
    if args.extensions is not None:
        extensions = [name.strip() for name in args.extensions.split(",") if name.strip()]
        if not extensions:
            raise MrioError(f"--extensions {args.extensions!r} names no extension")
        for k, name in enumerate(extensions):
            if name in extensions[:k]:
                raise MrioError(f"extension {name!r} is listed twice in --extensions")
    if args.home_region is not None and not args.home_region.strip():
        raise MrioError(f"--home-region {args.home_region!r} names no region")
    out_root = _out_dir(args.out)
    specs = _load_specs(spec_paths, args.home_region, compare)

    ingested = fileio.ingest(layout_path)
    account = ingested.account
    regions = [args.home_region or spec.home_region for spec in specs]
    category_codes = scenario.load_concordance(categories_path, account.index)
    # Each home region's category basis and baseline totals.
    homes: dict[str, tuple[np.ndarray, dict[str, float]]] = {}
    for region, path in zip(regions, spec_paths):
        if region not in account.index.regions:
            source = "--home-region" if args.home_region else str(path)
            raise UnknownRegion(f"unknown region {region!r}: {source} sets it as the home "
                                "region, but the account has no such region")
        if region not in homes:
            homes[region] = scenario.category_basis(*model.home_demand(account, region),
                                                    category_codes, account.index)
    group_labels, group_codes = indicators.load_sector_groups(groups_path, account.index)
    params = indicators.load_conversion_params(params_path)
    # A name the account lacks fails here, before a factorization.
    variants = indicators.report_variants(account, extensions or list(account.extensions))
    operator = algebra.LeontiefOperator(account.Z, account.x, fileio.factorization_entry(
        ingested, algebra.factorization_identity()))
    # One solve of 13 basis columns per home region, whatever the scenario
    # count, and a last column of ones, whose solution is the certificate's.
    q = operator.apply(np.hstack([*(basis for basis, _ in homes.values()),
                                  np.ones((account.index.n, 1))]))
    certificate = algebra.ProductivityEstimate.of(q[:, -1])
    if not certificate.productive:
        raise UnproductiveEconomy(f"spectral radius <= {certificate.spectral_radius:.6f} "
                                  "is too close to 1 to certify the economy productive")
    blocks = dict(zip(homes, np.hsplit(q[:, :-1], len(homes))))
    reports = indicators.footprint_reports(
        account, variants, blocks,
        [(spec.name, region, scenario.scenario_factors(spec, homes[region][1]))
         for spec, region in zip(specs, regions)], group_labels, group_codes, params)
    runs = list(zip(specs, reports))
    for (spec, scenario_reports), region in zip(runs, regions):
        out_dir = out_root / spec.name
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(out_dir / "report.csv", REPORT_HEADER,
                   [row for report in scenario_reports for row in _report_rows(report)])
        _write_summary(out_dir / "summary.txt", layout_path, account, params, spec, region,
                       scenario_reports)
    return out_root, runs


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

REPORT_HEADER = ["scenario", "extension", "dimension", "label", "value", "unit"]
COMPARISON_HEADER = ["extension", "scenario", "total", "per_capita", "hours_week_equivalent",
                     "domestic", "imported", "import_share", "direct_use", "delta_total",
                     "delta_per_capita"]
FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5")
PLOT_HEADER = ["figure", "scenario", "extension", "segment", "value", "share", "unit"]


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        out = csv.writer(handle, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)


def _optional(value: float | None) -> str:
    return "" if value is None else _FMT(value)


def _report_rows(report: FootprintReport) -> list[list[str]]:
    rows = []

    def add(dimension: str, label: str, value: float, unit: str = report.unit) -> None:
        rows.append([report.scenario, report.extension_name, dimension, label,
                     _FMT(value), unit])

    add("total", "", report.total)
    add("per-capita", "", report.per_capita, f"{report.unit}/person/year")
    if report.hours_week_equivalent is not None:
        add("hours-week-equivalent", "", report.hours_week_equivalent, "hours/week")
    add("origin", "domestic", report.by_origin.domestic)
    add("origin", "imported", report.by_origin.imported)
    for dimension, values in (("sector-group", report.by_sector_group),
                              ("skill", report.by_skill),
                              ("category", report.by_category),
                              ("stressor", report.by_stressor)):
        for label, value in (values or {}).items():
            add(dimension, label, value)
    if report.direct_use is not None:
        add("direct-use", "", report.direct_use)
    return rows


def _write_summary(path: Path, layout_path: Path, account: MrioAccount,
                   params: ConversionParams, spec: ScenarioSpec, home_region: str,
                   reports: list[FootprintReport]) -> None:
    # Provenance names files rather than absolute paths so identical inputs
    # give byte-identical outputs regardless of where they live.
    lines = [
        f"scenario: {spec.name}",
        f"home region: {home_region}",
        f"layout: {layout_path.name}",
        f"account year: {account.year}",
        f"regions x sectors: {account.index.n_regions} x {account.index.n_sectors}",
        "solver mode: factorized-solve",
        f"weeks worked per year: {_FMT(params.weeks_worked_per_year)}",
        f"working life share: {_FMT(params.working_life_share)}",
        f"working-age population: {_FMT(params.working_age_population)}",
        f"total population: {_FMT(params.total_population)}",
        "",
    ]
    for report in reports:
        lines.append(f"[{report.extension_name}] total: {_FMT(report.total)} {report.unit}; "
                     f"per capita: {_FMT(report.per_capita)} {report.unit}/person/year")
        if report.hours_week_equivalent is not None:
            lines.append(f"[{report.extension_name}] hours/week equivalent: "
                         f"{_FMT(report.hours_week_equivalent)}")
        if report.direct_use is not None:
            lines.append(f"[{report.extension_name}] direct use: "
                         f"{_FMT(report.direct_use)} {report.unit}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _comparison_rows(reports_per_scenario: list[list[FootprintReport]]):
    """One row per report, extension-major, with deltas against the first
    scenario. Every scenario's reports come in the same variant order."""
    for aligned in zip(*reports_per_scenario):
        first = aligned[0]
        for r in aligned:
            yield [r.extension_name, r.scenario, _FMT(r.total), _FMT(r.per_capita),
                   _optional(r.hours_week_equivalent), _FMT(r.by_origin.domestic),
                   _FMT(r.by_origin.imported), _FMT(r.by_origin.import_share),
                   _optional(r.direct_use), _FMT(r.total - first.total),
                   _FMT(r.per_capita - first.per_capita)]


def _plot_rows(reports_per_scenario: list[list[FootprintReport]]) -> dict[str, list[list[str]]]:
    """Plot-ready stacked series mirroring the five result figures, by figure.

    Figures 1-4 cover labour (by category, origin, sector group, skill);
    figure 5 covers per-capita resource footprints split by origin plus
    direct use. Segment sums reproduce the underlying report totals (for
    figure 5, embedded plus direct use); figures 3 and 4 also give each
    segment's percentage share. Per-person values use each report's params.
    """
    figures: dict[str, list[list[str]]] = {}

    def add(figure: str, report: FootprintReport, unit: str, segments, shares=False) -> None:
        total = sum(value for _, value in segments)
        for label, value in segments:
            share = ""
            if shares:
                share = _FMT(100.0 * value / total if total != 0.0 else 0.0)
            figures.setdefault(figure, []).append(
                [figure, report.scenario, report.extension_name, label, _FMT(value), share, unit])

    for reports in reports_per_scenario:
        for report in reports:
            params = report.params
            origin = [("domestic", report.by_origin.domestic),
                      ("imported", report.by_origin.imported)]
            if report.hours_week_equivalent is None:
                if report.direct_use is not None:
                    origin.append(("direct use", report.direct_use))
                add("fig5", report, f"{report.unit}/person/year",
                    [(label, indicators.per_capita(value, params.total_population))
                     for label, value in origin])
                continue
            for figure, segments in (("fig1", report.by_category.items()), ("fig2", origin)):
                add(figure, report, "hours/week",
                    [(label, indicators.hours_per_week_equivalent(value, params))
                     for label, value in segments])
            add("fig3", report, report.unit, list(report.by_sector_group.items()), shares=True)
            add("fig4", report, report.unit, list((report.by_skill or {}).items()), shares=True)
    return figures


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    # nan would pass every row, since no comparison with it is true.
    if not args.tol >= 0:
        raise MrioError(f"--tol {args.tol:g} is not a nonnegative number")
    layout_path = _existing(args.layout)
    out_dir = None if args.out is None else _out_dir(args.out)
    result = fileio.ingest(layout_path)
    account = result.account
    balance = model.validate_balance(account, tol=args.tol)
    # The certificate of a run, from its column of ones solved alone.
    try:
        operator = algebra.LeontiefOperator(account.Z, account.x, fileio.factorization_entry(
            result, algebra.factorization_identity()))
        estimate = algebra.ProductivityEstimate.of(operator.apply(np.ones(account.index.n)))
    except UnproductiveEconomy:
        estimate = algebra.ProductivityEstimate(None)

    print(f"account: {account.index.n_regions} regions x {account.index.n_sectors} sectors "
          f"(n={account.index.n}), year {account.year}")
    print(f"balance: max residual {balance.max_residual:.3e} at tol {args.tol:g} — "
          f"{len(balance.violations)} violation(s)")
    for violation in balance.violations:
        print(f"  row {violation.row} ({violation.region}, {violation.sector}): "
              f"residual {violation.residual:.3e}")
    bound = ("spectral radius >= 1" if estimate.spectral_radius is None
             else f"spectral radius <= {estimate.spectral_radius:.6f}")
    print(f"productivity: {bound} — {'productive' if estimate.productive else 'UNPRODUCTIVE'}")
    for warning in result.warnings:
        print(f"warning: ({warning['region']}, {warning['sector']}) {warning['note']}")

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "n_regions": account.index.n_regions,
            "n_sectors": account.index.n_sectors,
            "year": account.year,
            "balance": {
                "tol": args.tol,
                "max_residual": balance.max_residual,
                "violations": [dataclasses.asdict(v) for v in balance.violations],
            },
            "productivity": {
                "spectral_radius": estimate.spectral_radius,
                "productive": estimate.productive,
            },
            "warnings": result.warnings,
        }
        (out_dir / "validation.json").write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    return 0 if balance.ok and estimate.productive else 2


def cmd_footprint(args) -> int:
    _, runs = _run(args)
    for spec, reports in runs:
        for report in reports:
            print(f"{spec.name}/{report.extension_name}: "
                  f"total {_FMT(report.total)} {report.unit}")
    return 0


def cmd_compare(args) -> int:
    out_dir, runs = _run(args, compare=True)
    reports_per_scenario = [reports for _, reports in runs]
    _write_csv(out_dir / "comparison.csv", COMPARISON_HEADER,
               _comparison_rows(reports_per_scenario))
    plots = out_dir / "plots"
    plots.mkdir(exist_ok=True)
    figures = _plot_rows(reports_per_scenario)
    # A figure without rows is not written, and one of an earlier run is stale.
    for figure in FIGURES:
        if figure in figures:
            _write_csv(plots / f"{figure}.csv", PLOT_HEADER, figures[figure])
        else:
            (plots / f"{figure}.csv").unlink(missing_ok=True)
    print(f"compared {len(reports_per_scenario)} scenario(s) over "
          f"{len(reports_per_scenario[0])} report(s)")
    return 0


def cmd_fixture(args) -> int:
    out_dir = _out_dir(args.out)
    for flag, count in (("--regions", args.regions), ("--sectors", args.sectors)):
        if count < 1:
            raise MrioError(f"{flag} {count} is not a positive count")
    if args.seed < 0:
        raise MrioError(f"--seed {args.seed} is negative")
    layout_path = fixtures.write_fixture_set(args.regions, args.sectors, args.seed, out_dir)
    print(f"fixture written: {layout_path}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrio-footprint",
        description="Consumption-based footprint accounting and scenario evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="ingest and validate an account")
    validate.add_argument("--layout", required=True)
    validate.add_argument("--tol", type=float, default=1e-6)
    validate.add_argument("--out", default=None)
    validate.set_defaults(func=cmd_validate)

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--layout", required=True)
        p.add_argument("--scenario", action="append", required=True)
        p.add_argument("--params", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--extensions", default=None,
                       help="comma-separated extension names (default: all)")
        p.add_argument("--home-region", dest="home_region", default=None)
        p.add_argument("--categories", default=None,
                       help="category concordance file (default: next to layout)")
        p.add_argument("--groups", default=None,
                       help="sector-group concordance file (default: next to layout)")

    footprint = sub.add_parser("footprint", help="compute reports for one scenario")
    add_run_flags(footprint)
    footprint.set_defaults(func=cmd_footprint)

    compare = sub.add_parser("compare", help="compare several scenarios")
    add_run_flags(compare)
    compare.set_defaults(func=cmd_compare)

    fixture_cmd = sub.add_parser("fixture", help="write a synthetic data set")
    fixture_cmd.add_argument("--regions", type=int, required=True)
    fixture_cmd.add_argument("--sectors", type=int, required=True)
    fixture_cmd.add_argument("--seed", type=int, required=True)
    fixture_cmd.add_argument("--out", required=True)
    fixture_cmd.set_defaults(func=cmd_fixture)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        name = getattr(exc, "filename", None) or str(exc)
        print(f"error: missing file: {name}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}",
              file=sys.stderr)
        return 1
    except MrioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UnproductiveEconomy) else 1


if __name__ == "__main__":
    sys.exit(main())
