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
from .errors import MrioError, UnknownScenario
from .indicators import ConversionParams, FootprintReport, ReportVariant, SectorGroupConcordance
from .model import MrioAccount
from .scenario import ScenarioSpec

_FMT = fileio._fmt

# Conventional companion files next to the layout descriptor, used when the
# corresponding flags are not given.
DEFAULT_CATEGORY_CONCORDANCE = "category_concordance.tsv"
DEFAULT_SECTOR_GROUPS = "sector_groups.tsv"


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
            out_dir=Path(args.out),
            extensions=extensions,
            home_region=args.home_region,
        )


@dataclass(frozen=True)
class PlotSeries:
    """Stacked-bar data for one figure analogue: label -> nonnegative value."""

    figure: str
    scenario: str
    extension: str
    unit: str
    segments: tuple[tuple[str, float], ...]
    shares: tuple[float, ...] | None = None


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoadedData:
    account: MrioAccount
    groups: SectorGroupConcordance
    params: ConversionParams
    operator: algebra.LeontiefOperator
    variants: tuple[ReportVariant, ...]
    # Each region-sector's spending category and sector group, as codes.
    category_codes: np.ndarray
    group_codes: np.ndarray


def _operator(ingested: fileio.IngestResult) -> algebra.LeontiefOperator:
    """The account's Leontief operator; its LU is read from the cache next to
    the layout when one was saved under this BLAS, and saved there when made."""
    identity = algebra.factorization_identity()
    entry = None if identity is None else fileio.factorization_entry(ingested, identity)
    return algebra.LeontiefOperator(ingested.account.Z, ingested.account.x, entry)


def _load(config: RunConfig) -> LoadedData:
    ingested = fileio.ingest(config.layout_path)
    account = ingested.account
    concordance = scenario.load_concordance(config.categories_path, account.index.sectors)
    groups = indicators.load_sector_groups(config.groups_path, account.index.sectors)
    params = indicators.load_conversion_params(config.params_path)
    operator = _operator(ingested)
    variants = indicators.report_variants(
        account, operator, _selected_extensions(account, config.extensions))
    return LoadedData(account=account, groups=groups, params=params,
                      operator=operator, variants=tuple(variants),
                      category_codes=concordance.codes(account.index),
                      group_codes=groups.codes(account.index))


def _load_specs(config: RunConfig, one_home_region: bool) -> list[ScenarioSpec]:
    """Every scenario spec of a run; two specs may not share a name.

    With ``one_home_region`` (compare's deltas and per-capita values assume
    one population) the specs must also share a home region, unless
    --home-region overrides them all.
    """
    paths = config.scenario_paths
    specs: list[ScenarioSpec] = []
    seen: dict[str, Path] = {}
    for path in paths:
        spec = scenario.load_scenario_spec(path)
        if spec.name in seen:
            raise MrioError(f"scenario name {spec.name!r} is used by both "
                            f"{seen[spec.name]} and {path}")
        seen[spec.name] = path
        specs.append(spec)
    if one_home_region and config.home_region is None:
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


@dataclass(frozen=True)
class Baseline:
    """One home region's baseline demand and the embedded footprints that
    scale direct use, shared by every scenario of that region."""

    y: np.ndarray
    gfcf: np.ndarray
    embedded: dict[str, float]


def _baseline(data: LoadedData, home_region: str) -> Baseline:
    account = data.account
    y = model.select_demand(account, model.consumption_selection(home_region))
    gfcf = model.select_demand(account, model.gfcf_selection(home_region))
    scaled = [v for v in data.variants if v.has_direct_use]
    embedded = {}
    if scaled:
        # One baseline solve serves every report's direct-use scaling.
        q = data.operator.apply(y + gfcf)
        embedded = {v.name: algebra.footprint_total(v.total_intensity, q) for v in scaled}
    return Baseline(y=y, gfcf=gfcf, embedded=embedded)


def _scenario_reports(data: LoadedData, spec: ScenarioSpec, home_region: str,
                      baseline: Baseline) -> list[FootprintReport]:
    """All reports for one scenario, from one solve of its whole demand."""
    account = data.account
    y_scen, gfcf_scen = scenario.apply_scenario(
        baseline.y, baseline.gfcf, data.category_codes, spec, account.index)
    demand_by_category = indicators.decompose_demand_by_category(
        y_scen, gfcf_scen, data.category_codes)
    # Every element lies in one category only, so this equals the sum of the parts.
    q = data.operator.apply(y_scen + gfcf_scen)
    return [
        indicators.build_footprint_report(
            account=account, variant=variant, q=q, demand_by_category=demand_by_category,
            home_region=home_region, groups=data.groups, group_codes=data.group_codes,
            params=data.params,
            scenario_name=spec.name, baseline_embedded=baseline.embedded.get(variant.name),
        )
        for variant in data.variants
    ]


def _run(args, one_home_region: bool = False) -> tuple[
        RunConfig, LoadedData, Iterator[tuple[ScenarioSpec, list[FootprintReport]]]]:
    """The shared run of ``footprint`` and ``compare``: checks the specs and
    loads the inputs, then iterates over each scenario's reports, written to
    the scenario's directory as made."""
    config = RunConfig.from_args(args)
    specs = _load_specs(config, one_home_region)
    data = _load(config)

    def reports_by_scenario():
        baselines: dict[str, Baseline] = {}
        for spec in specs:
            home_region = config.home_region or spec.home_region
            if home_region not in baselines:
                baselines[home_region] = _baseline(data, home_region)
            reports = _scenario_reports(data, spec, home_region, baselines[home_region])
            out_dir = config.out_dir / spec.name
            out_dir.mkdir(parents=True, exist_ok=True)
            _write_report_csv(out_dir / "report.csv", reports)
            _write_summary(out_dir / "summary.txt", config, spec, home_region, data, reports)
            yield spec, reports

    return config, data, reports_by_scenario()


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _report_rows(report: FootprintReport) -> list[list[str]]:
    rows = [[report.scenario, report.extension_name, "total", "",
             _FMT(report.total), report.unit]]
    rows.append([report.scenario, report.extension_name, "per-capita", "",
                 _FMT(report.per_capita), f"{report.unit}/person/year"])
    if report.hours_week_equivalent is not None:
        rows.append([report.scenario, report.extension_name, "hours-week-equivalent", "",
                     _FMT(report.hours_week_equivalent), "hours/week"])
    for label, value in (("domestic", report.by_origin.domestic),
                         ("imported", report.by_origin.imported)):
        rows.append([report.scenario, report.extension_name, "origin", label,
                     _FMT(value), report.unit])
    for label, value in report.by_sector_group.items():
        rows.append([report.scenario, report.extension_name, "sector-group", label,
                     _FMT(value), report.unit])
    if report.by_skill is not None:
        for label, value in report.by_skill.items():
            rows.append([report.scenario, report.extension_name, "skill", label,
                         _FMT(value), report.unit])
    for label, value in report.by_category.items():
        rows.append([report.scenario, report.extension_name, "category", label,
                     _FMT(value), report.unit])
    if report.by_stressor is not None:
        for label, value in report.by_stressor.items():
            rows.append([report.scenario, report.extension_name, "stressor", label,
                         _FMT(value), report.unit])
    if report.direct_use is not None:
        rows.append([report.scenario, report.extension_name, "direct-use", "",
                     _FMT(report.direct_use), report.unit])
    return rows


REPORT_HEADER = ["scenario", "extension", "dimension", "label", "value", "unit"]


def _write_report_csv(path: Path, reports: list[FootprintReport]) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        out = csv.writer(handle, lineterminator="\n")
        out.writerow(REPORT_HEADER)
        for report in reports:
            out.writerows(_report_rows(report))


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


def _labour_reports(reports: list[FootprintReport]) -> list[FootprintReport]:
    return [r for r in reports if r.hours_week_equivalent is not None]


def build_plot_series(reports_by_scenario: dict[str, list[FootprintReport]],
                      params: ConversionParams) -> list[PlotSeries]:
    """Plot-ready stacked series mirroring the five result figures.

    Figures 1-4 cover labour (by category, origin, sector group, skill);
    figure 5 covers per-capita resource footprints split by origin plus
    direct use. Segment sums reproduce the underlying report totals (for
    figure 5, embedded plus direct use).
    """
    series: list[PlotSeries] = []
    for name, reports in reports_by_scenario.items():
        for report in _labour_reports(reports):
            to_week = lambda v: indicators.hours_per_week_equivalent(v, params)
            series.append(PlotSeries(
                figure="fig1", scenario=name, extension=report.extension_name,
                unit="hours/week",
                segments=tuple((c, to_week(v)) for c, v in report.by_category.items()),
            ))
            series.append(PlotSeries(
                figure="fig2", scenario=name, extension=report.extension_name,
                unit="hours/week",
                segments=(("domestic", to_week(report.by_origin.domestic)),
                          ("imported", to_week(report.by_origin.imported))),
            ))
            group_items = tuple(report.by_sector_group.items())
            series.append(PlotSeries(
                figure="fig3", scenario=name, extension=report.extension_name,
                unit=report.unit, segments=group_items,
                shares=_shares([v for _, v in group_items]),
            ))
            skill_items = tuple((report.by_skill or {}).items())
            series.append(PlotSeries(
                figure="fig4", scenario=name, extension=report.extension_name,
                unit=report.unit, segments=skill_items,
                shares=_shares([v for _, v in skill_items]),
            ))
        for report in reports:
            if report.hours_week_equivalent is not None:
                continue
            segments = [
                ("domestic", report.by_origin.domestic / params.total_population),
                ("imported", report.by_origin.imported / params.total_population),
            ]
            if report.direct_use is not None:
                segments.append(("direct use", report.direct_use / params.total_population))
            series.append(PlotSeries(
                figure="fig5", scenario=name, extension=report.extension_name,
                unit=f"{report.unit}/person/year", segments=tuple(segments),
            ))
    return series


def _shares(values: list[float]) -> tuple[float, ...]:
    total = sum(values)
    if total == 0.0:
        return tuple(0.0 for _ in values)
    return tuple(100.0 * v / total for v in values)


def _write_plot_series(out_dir: Path, series: list[PlotSeries]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    by_figure: dict[str, list[PlotSeries]] = {}
    for s in series:
        by_figure.setdefault(s.figure, []).append(s)
    for figure, group in by_figure.items():
        with (out_dir / f"{figure}.csv").open("w", newline="", encoding="utf-8") as handle:
            out = csv.writer(handle, lineterminator="\n")
            out.writerow(["figure", "scenario", "extension", "segment", "value", "share", "unit"])
            for s in group:
                shares = s.shares if s.shares is not None else [""] * len(s.segments)
                for (label, value), share in zip(s.segments, shares):
                    out.writerow([s.figure, s.scenario, s.extension, label, _FMT(value),
                                  _FMT(share) if share != "" else "", s.unit])


def _write_comparison(path: Path, rows_by_extension: dict[str, list]) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        out = csv.writer(handle, lineterminator="\n")
        out.writerow(["extension", "scenario", "total", "per_capita",
                      "hours_week_equivalent", "domestic", "imported", "import_share",
                      "direct_use", "delta_total", "delta_per_capita"])
        for extension, rows in rows_by_extension.items():
            for row in rows:
                out.writerow([
                    extension, row.scenario, _FMT(row.total), _FMT(row.per_capita),
                    "" if row.hours_week_equivalent is None else _FMT(row.hours_week_equivalent),
                    _FMT(row.domestic), _FMT(row.imported), _FMT(row.import_share),
                    "" if row.direct_use is None else _FMT(row.direct_use),
                    _FMT(row.delta_total), _FMT(row.delta_per_capita),
                ])


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

    if args.out:
        out_dir = Path(args.out)
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
    config, data, runs = _run(args, one_home_region=True)
    reports_by_scenario = {spec.name: reports for spec, reports in runs}

    report_names = [r.extension_name for r in next(iter(reports_by_scenario.values()))]
    rows_by_extension = {}
    for name in report_names:
        aligned = [
            next(r for r in reports if r.extension_name == name)
            for reports in reports_by_scenario.values()
        ]
        rows_by_extension[name] = indicators.compare_reports(aligned)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    _write_comparison(config.out_dir / "comparison.csv", rows_by_extension)

    series = build_plot_series(reports_by_scenario, data.params)
    _write_plot_series(config.out_dir / "plots", series)
    print(f"compared {len(reports_by_scenario)} scenario(s) over "
          f"{len(report_names)} report(s)")
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
