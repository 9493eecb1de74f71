"""Command-line pipeline: validate data, compute footprints, compare scenarios.

Verbs:
    validate   ingest + balance check + productivity check
    footprint  apply one scenario and write per-extension reports
    compare    run several scenarios and write comparison + plot-ready series
    fixture    write a complete synthetic data set

Exit codes: 0 clean, 1 operational error, 2 validation failure. All emitted
files are deterministic functions of the inputs (numbers carry 17
significant digits; no timestamps), so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import algebra, fileio, fixtures, indicators, model, scenario
from .errors import MrioError, ParseError, UnknownRegion, UnknownScenario
from .indicators import ConversionParams, FootprintReport, ReportVariant
from .model import MrioAccount
from .scenario import ScenarioSpec

_FMT = fileio._fmt

# Conventional companion files next to the layout descriptor, used when the
# corresponding flags are not given.
DEFAULT_CATEGORY_CONCORDANCE = "category_concordance.tsv"
DEFAULT_SECTOR_GROUPS = "sector_groups.tsv"

# What compare writes next to the scenario directories.
COMPARE_OUTPUTS = ("comparison.csv", "plots")


@dataclass(frozen=True)
class RunConfig:
    """Resolved and existence-checked inputs for footprint/compare runs."""

    layout_path: Path
    scenario_paths: tuple[Path, ...]
    params_path: Path
    categories_path: Path
    groups_path: Path
    out_dir: Path
    extensions: tuple[str, ...] | None
    home_region: str | None

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        layout_path = Path(args.layout)
        if not layout_path.exists():
            raise FileNotFoundError(str(layout_path))
        scenario_paths = []
        for raw in args.scenario:
            p = Path(raw)
            if not p.exists():
                raise UnknownScenario(f"scenario spec not found: {p}")
            scenario_paths.append(p)
        params_path = Path(args.params)
        if not params_path.exists():
            raise FileNotFoundError(str(params_path))
        base = layout_path.parent
        categories_path = Path(args.categories) if args.categories else base / DEFAULT_CATEGORY_CONCORDANCE
        groups_path = Path(args.groups) if args.groups else base / DEFAULT_SECTOR_GROUPS
        for p in (categories_path, groups_path):
            if not p.exists():
                raise FileNotFoundError(str(p))
        extensions = None
        if args.extensions is not None:
            extensions = tuple(name.strip() for name in args.extensions.split(",") if name.strip())
            if not extensions:
                raise MrioError(f"--extensions {args.extensions!r} names no extension")
            for k, name in enumerate(extensions):
                if name in extensions[:k]:
                    raise MrioError(f"extension {name!r} is listed twice in --extensions")
        return cls(
            layout_path=layout_path,
            scenario_paths=tuple(scenario_paths),
            params_path=params_path,
            categories_path=categories_path,
            groups_path=groups_path,
            out_dir=_out_dir(args.out),
            extensions=extensions,
            home_region=args.home_region,
        )


def _out_dir(raw: str) -> Path:
    """``--out`` as a path, checked before any work: the path, or else its
    nearest existing parent, must be a directory."""
    out = Path(raw)
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise MrioError(f"--out {raw}: {existing} exists and is not a directory")
    return out


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoadedData:
    account: MrioAccount
    params: ConversionParams
    operator: algebra.LeontiefOperator
    variants: tuple[ReportVariant, ...]
    # Each home region's baseline consumption and capital-formation demand.
    demand: dict[str, tuple[np.ndarray, np.ndarray]]
    # Each region-sector's spending category and sector group, as codes; the
    # group codes index ``group_labels``.
    category_codes: np.ndarray
    group_labels: tuple[str, ...]
    group_codes: np.ndarray


def _operator(ingested: fileio.IngestResult) -> algebra.LeontiefOperator:
    """The account's Leontief operator; its LU is read from the cache next to
    the layout when one was saved under this BLAS, and saved there when made."""
    identity = algebra.factorization_identity()
    entry = None if identity is None else fileio.factorization_entry(ingested, identity)
    return algebra.LeontiefOperator(ingested.account.Z, ingested.account.x, entry)


def _load(config: RunConfig, specs: list[ScenarioSpec]) -> LoadedData:
    ingested = fileio.ingest(config.layout_path)
    account = ingested.account
    demand = {}
    for spec, path in zip(specs, config.scenario_paths):
        region = config.home_region or spec.home_region
        if region not in account.index.regions:
            source = "--home-region" if config.home_region else str(path)
            raise UnknownRegion(f"unknown region {region!r}: {source} sets it as the home "
                                "region, but the account has no such region")
        if region not in demand:
            demand[region] = model.home_demand(account, region)
    category_codes = scenario.load_concordance(config.categories_path, account.index)
    group_labels, group_codes = indicators.load_sector_groups(config.groups_path, account.index)
    params = indicators.load_conversion_params(config.params_path)
    operator = _operator(ingested)
    variants = indicators.report_variants(
        account, operator, _selected_extensions(account, config.extensions))
    return LoadedData(account=account, params=params, operator=operator,
                      variants=tuple(variants), demand=demand, category_codes=category_codes,
                      group_labels=group_labels, group_codes=group_codes)


def _load_specs(config: RunConfig, compare: bool) -> list[ScenarioSpec]:
    """Every scenario spec of a run; two specs may not share a name.

    For ``compare`` no spec may be named after compare's own outputs, and
    the specs must share a home region (the deltas and per-capita values
    assume one population), unless --home-region overrides them all.
    """
    paths = config.scenario_paths
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
    if compare and config.home_region is None:
        first, first_path = specs[0], paths[0]
        for spec, path in zip(specs, paths):
            if spec.home_region != first.home_region:
                raise MrioError(f"scenario {first.name!r} ({first_path}) has home region "
                                f"{first.home_region!r} but {spec.name!r} ({path}) has "
                                f"{spec.home_region!r}; set --home-region to compare them")
    return specs


def _selected_extensions(account: MrioAccount, selection: tuple[str, ...] | None) -> list[str]:
    if selection is None:
        return list(account.extensions)
    for name in selection:
        if name not in account.extensions:
            raise MrioError(f"extension {name!r} not present in the account")
    return list(selection)


def _embedded(data: LoadedData, home_region: str) -> dict[str, float]:
    """The baseline embedded footprint of each report that scales direct
    use, shared by every scenario of ``home_region``."""
    scaled = [v for v in data.variants if v.has_direct_use]
    if not scaled:
        return {}
    # One baseline solve serves every report's direct-use scaling.
    y, gfcf = data.demand[home_region]
    q = data.operator.apply(y + gfcf)
    return {v.name: algebra.footprint_total(v.total_intensity, q) for v in scaled}


def _scenario_reports(data: LoadedData, spec: ScenarioSpec, home_region: str,
                      embedded: dict[str, float]) -> list[FootprintReport]:
    """All reports for one scenario, from one solve of its whole demand."""
    account = data.account
    y, gfcf = data.demand[home_region]
    y_scen, gfcf_scen = scenario.apply_scenario(y, gfcf, data.category_codes, spec,
                                                account.index)
    demand_by_category = indicators.decompose_demand_by_category(
        y_scen, gfcf_scen, data.category_codes)
    # Every element lies in one category only, so this equals the sum of the parts.
    q = data.operator.apply(y_scen + gfcf_scen)
    return [
        indicators.build_footprint_report(
            account=account, variant=variant, q=q, demand_by_category=demand_by_category,
            home_region=home_region, group_labels=data.group_labels,
            group_codes=data.group_codes, params=data.params,
            scenario_name=spec.name, baseline_embedded=embedded.get(variant.name),
        )
        for variant in data.variants
    ]


def _run(args, compare: bool = False) -> tuple[
        RunConfig, LoadedData, Iterator[tuple[ScenarioSpec, list[FootprintReport]]]]:
    """The shared run of ``footprint`` and ``compare``: checks the specs and
    loads the inputs, then iterates over each scenario's reports, written to
    the scenario's directory as made."""
    config = RunConfig.from_args(args)
    specs = _load_specs(config, compare)
    data = _load(config, specs)

    def reports_by_scenario():
        embedded: dict[str, dict[str, float]] = {}
        for spec in specs:
            home_region = config.home_region or spec.home_region
            if home_region not in embedded:
                embedded[home_region] = _embedded(data, home_region)
            reports = _scenario_reports(data, spec, home_region, embedded[home_region])
            out_dir = config.out_dir / spec.name
            out_dir.mkdir(parents=True, exist_ok=True)
            _write_csv(out_dir / "report.csv", REPORT_HEADER,
                       [row for report in reports for row in _report_rows(report)])
            _write_summary(out_dir / "summary.txt", config, spec, home_region, data, reports)
            yield spec, reports

    return config, data, reports_by_scenario()


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

REPORT_HEADER = ["scenario", "extension", "dimension", "label", "value", "unit"]
COMPARISON_HEADER = ["extension", "scenario", "total", "per_capita", "hours_week_equivalent",
                     "domestic", "imported", "import_share", "direct_use", "delta_total",
                     "delta_per_capita"]
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


def _write_summary(path: Path, config: RunConfig, spec: ScenarioSpec,
                   home_region: str, data: LoadedData,
                   reports: list[FootprintReport]) -> None:
    params = data.params
    # Provenance names files rather than absolute paths so identical inputs
    # give byte-identical outputs regardless of where they live.
    lines = [
        f"scenario: {spec.name}",
        f"home region: {home_region}",
        f"layout: {config.layout_path.name}",
        f"account year: {data.account.year}",
        f"regions x sectors: {data.account.index.n_regions} x {data.account.index.n_sectors}",
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
    scenario. Every scenario's reports follow ``data.variants`` order."""
    for aligned in zip(*reports_per_scenario):
        first = aligned[0]
        for r in aligned:
            yield [r.extension_name, r.scenario, _FMT(r.total), _FMT(r.per_capita),
                   _optional(r.hours_week_equivalent), _FMT(r.by_origin.domestic),
                   _FMT(r.by_origin.imported), _FMT(r.by_origin.import_share),
                   _optional(r.direct_use), _FMT(r.total - first.total),
                   _FMT(r.per_capita - first.per_capita)]


def _plot_rows(reports_per_scenario: list[list[FootprintReport]],
               params: ConversionParams) -> dict[str, list[list[str]]]:
    """Plot-ready stacked series mirroring the five result figures, by figure.

    Figures 1-4 cover labour (by category, origin, sector group, skill);
    figure 5 covers per-capita resource footprints split by origin plus
    direct use. Segment sums reproduce the underlying report totals (for
    figure 5, embedded plus direct use); figures 3 and 4 also give each
    segment's percentage share.
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

    population = params.total_population
    to_week = lambda v: indicators.hours_per_week_equivalent(v, params)
    for reports in reports_per_scenario:
        for report in reports:
            origin = (("domestic", report.by_origin.domestic),
                      ("imported", report.by_origin.imported))
            if report.hours_week_equivalent is None:
                segments = [(label, value / population) for label, value in origin]
                if report.direct_use is not None:
                    segments.append(("direct use", report.direct_use / population))
                add("fig5", report, f"{report.unit}/person/year", segments)
                continue
            add("fig1", report, "hours/week",
                [(c, to_week(v)) for c, v in report.by_category.items()])
            add("fig2", report, "hours/week", [(label, to_week(v)) for label, v in origin])
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
    layout_path = Path(args.layout)
    if not layout_path.exists():
        raise FileNotFoundError(str(layout_path))
    out_dir = _out_dir(args.out) if args.out else None
    result = fileio.ingest(layout_path)
    account = result.account
    balance = model.validate_balance(account, tol=args.tol)
    estimate = algebra.productivity_check(_operator(result))

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
        print(f"warning: ({warning.region}, {warning.sector}) {warning.note}")

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "n_regions": account.index.n_regions,
            "n_sectors": account.index.n_sectors,
            "year": account.year,
            "balance": {
                "tol": args.tol,
                "max_residual": balance.max_residual,
                "violations": [
                    {"row": v.row, "region": v.region, "sector": v.sector,
                     "residual": v.residual}
                    for v in balance.violations
                ],
            },
            "productivity": {
                "spectral_radius": estimate.spectral_radius,
                "productive": estimate.productive,
            },
            "warnings": [
                {"region": w.region, "sector": w.sector, "note": w.note}
                for w in result.warnings
            ],
        }
        (out_dir / "validation.json").write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    clean = balance.ok and estimate.productive
    return 0 if clean else 2


def cmd_footprint(args) -> int:
    _, _, runs = _run(args)
    for spec, reports in runs:
        for report in reports:
            print(f"{spec.name}/{report.extension_name}: "
                  f"total {_FMT(report.total)} {report.unit}")
    return 0


def cmd_compare(args) -> int:
    config, data, runs = _run(args, compare=True)
    reports_per_scenario = [reports for _, reports in runs]
    _write_csv(config.out_dir / "comparison.csv", COMPARISON_HEADER,
               _comparison_rows(reports_per_scenario))
    plots = config.out_dir / "plots"
    plots.mkdir(exist_ok=True)
    for figure, rows in _plot_rows(reports_per_scenario, data.params).items():
        _write_csv(plots / f"{figure}.csv", PLOT_HEADER, rows)
    print(f"compared {len(reports_per_scenario)} scenario(s) over "
          f"{len(data.variants)} report(s)")
    return 0


def cmd_fixture(args) -> int:
    layout_path = fixtures.write_fixture_set(args.regions, args.sectors, args.seed,
                                             Path(args.out))
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
    except MrioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
