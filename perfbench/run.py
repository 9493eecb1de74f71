"""Benchmark of the mrio-footprint CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--workload NAME ...] --seed N \
        --seconds S --trace 0|1

Run from the repository root. The package is run from ``src/`` as a child
process, one command at a time, exactly as its console script would run it;
nothing is installed. Inputs are generated from the seed under
``.perfbench_work/`` and removed at the end.

A run of one workload:

1. writes the inputs (the ``fixture`` verb plus any seeded scenario specs)
   ``setups`` times;
2. runs the command until ``--seconds`` have passed, and at least
   ``MIN_COLD`` times cold, each on a fresh copy of the inputs, and
   ``MIN_WARM`` times warm, on one copy that a command has already used;
3. with ``--trace 1``, runs the command once more in-process under
   ``traced.py``, which times every layer.

Every command's outputs are checked (see ``checks.py``); a command that exits
non-zero or fails a check counts as failed. Timed commands run without
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS, so OpenBLAS picks
its own thread count as in a user's shell; the count is recorded.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer ones). Run metadata and every metric with its
unit are printed on the lines before it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# What the ``mrio-footprint`` console script runs.
ENTRY = "import sys; from mrio_footprint.cli import main; sys.exit(main())"
MIN_WARM = 3
MIN_COLD = 2
# One cold command follows every COLD_EVERY warm ones, so both kinds of
# sample see the same machine load.
COLD_EVERY = 2
# A run must end within 180 s; children still running at this point are killed.
RUN_DEADLINE_S = 170.0

PROBE = r"""
import ctypes, json, platform
import numpy, scipy, scipy.linalg, mrio_footprint, mrio_footprint.cli

def blas_version(module):
    return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

threads = {}
with open("/proc/self/maps") as maps:
    libraries = sorted({line.split()[-1] for line in maps
                        if "openblas" in line.lower() and line.split()[-1].startswith("/")})
for path in libraries:
    library = ctypes.CDLL(path)
    for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
        getter = getattr(library, symbol, None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads[path.rsplit("/", 1)[-1]] = getter()
            break
print(json.dumps({
    "package_file": mrio_footprint.__file__,
    "python": platform.python_version(),
    "numpy": numpy.__version__, "scipy": scipy.__version__,
    "openblas": {"numpy": blas_version(numpy), "scipy": blas_version(scipy)},
    "blas_threads": threads,
}))
"""


@dataclass(frozen=True)
class Workload:
    verb: str
    regions: int
    sectors: int
    fixture_specs: tuple[str, ...]  # specs the fixture verb writes, in order
    seeded_specs: int               # seeded budget-sweep specs appended after them
    setups: int                     # times the inputs are written per run
    # Also trace one validate on the same inputs, so that validate's layers
    # (balance check, productivity) are measured on this workload too.
    trace_validate: bool = False


# The sweep's 64 specs are the fixture's identity baseline and 63 seeded ones:
# the oracle checks the baseline, and comparisons are taken against the first.
# Writing the n = 3000 inputs takes 12-18 s, so those workloads set up once per
# run to keep all runs of the benchmark within its time budget.
WORKLOADS = {
    # The paper's three-scenario run on a large account; ingest dominates.
    "compare-n3000-s3": Workload("compare", 15, 200, ("baseline", "halved"), 1, 1,
                                 trace_validate=True),
    # A budget sweep: Leontief solves and the per-scenario loops dominate.
    "compare-n1000-s64": Workload("compare", 10, 100, ("baseline",), 63, 3),
    # Ingest, balance check and power iteration; no factorization or solves.
    "validate-n3000": Workload("validate", 15, 200, (), 0, 1),
    # Tiny workloads that exercise all of the plumbing in a few seconds.
    "smoke": Workload("compare", 3, 5, ("baseline", "halved"), 1, 3, trace_validate=True),
    "smoke-validate": Workload("validate", 3, 5, (), 0, 3),
}

END_TO_END_UNITS = {
    "wall_s": "s", "cold_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_share": "ratio",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.self_s": "s", "cli.out_bytes": "bytes",
    "fileio.ingest_s": "s", "fileio.ingest_rss_mb": "MB", "fileio.in_bytes": "bytes",
    "fileio.ingest_mb_per_s": "MB/s", "fileio.write_s": "s",
    "algebra.coefficients_s": "s", "algebra.factorize_s": "s",
    "algebra.solve_count": "count", "algebra.solve_s": "s",
    "algebra.productivity_s": "s", "algebra.productivity_iterations": "count",
    "model.select_demand_s": "s", "model.balance_s": "s",
    "scenario.load_s": "s", "scenario.apply_s": "s",
    "indicators.decompose_s": "s", "indicators.group_s": "s", "indicators.report_self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (the program is missing or a
    setup step failed)."""


@dataclass
class Command:
    wall_s: float
    rss_mb: float
    status: int
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    # Import from cached bytecode, as an installed package would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list[str], env: dict[str, str], logs: Path, deadline: float) -> Command:
    """Run one child to completion and time it; ru_maxrss comes from wait4."""
    logs.mkdir(parents=True, exist_ok=True)
    with (logs / "stdout.txt").open("wb") as out, (logs / "stderr.txt").open("wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                 stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return Command(wall_s=wall_s, rss_mb=usage.ru_maxrss / 1024.0, status=child.returncode,
                   stdout=(logs / "stdout.txt").read_text(encoding="utf-8", errors="replace"),
                   stderr=(logs / "stderr.txt").read_text(encoding="utf-8", errors="replace"))


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def ingest_bytes(layout_path: Path) -> int:
    """Bytes of the layout descriptor and every file it names."""
    layout = json.loads(layout_path.read_text(encoding="utf-8"))
    names = list(layout["files"].values())
    for entry in layout["extensions"]:
        names += [entry[key] for key in ("file", "direct_file") if entry.get(key)]
    return layout_path.stat().st_size + sum((layout_path.parent / n).stat().st_size for n in names)


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def span_total(spans: dict, function: str, key: str = "total_s") -> float:
    """Sum of one statistic over spans of a function, in whichever module it lives."""
    return sum(stats[key] for name, stats in spans.items() if name.rsplit(".", 1)[-1] == function)


def per_layer_metrics(spans: dict, write_spans: dict, validate_spans: dict, import_s: float,
                      traced_wall_s: float, wall_s: float, in_bytes: int,
                      out_bytes: int) -> dict[str, float]:
    ingest_s = span_total(spans, "ingest")
    return {
        "cli.import_s": import_s,
        "cli.self_s": span_total(spans, "cmd_compare", "self_s")
        + span_total(spans, "cmd_validate", "self_s"),
        "cli.out_bytes": out_bytes,
        "fileio.ingest_s": ingest_s,
        "fileio.ingest_rss_mb": span_total(spans, "ingest", "rss_rise_mb"),
        "fileio.in_bytes": in_bytes,
        "fileio.ingest_mb_per_s": in_bytes / 1e6 / ingest_s if ingest_s > 0 else 0.0,
        "fileio.write_s": span_total(write_spans, "write_fixture_set"),
        "algebra.coefficients_s": span_total(spans, "technical_coefficients"),
        "algebra.factorize_s": span_total(spans, "factorize"),
        "algebra.solve_count": span_total(spans, "apply", "calls"),
        "algebra.solve_s": span_total(spans, "apply"),
        "algebra.productivity_s": span_total(validate_spans, "productivity_check"),
        "algebra.productivity_iterations":
            span_total(validate_spans, "productivity_check", "iterations"),
        "model.select_demand_s": span_total(spans, "select_demand"),
        "model.balance_s": span_total(validate_spans, "validate_balance"),
        "scenario.load_s": span_total(spans, "load_scenario_spec")
        + span_total(spans, "load_concordance"),
        "scenario.apply_s": span_total(spans, "apply_scenario"),
        "indicators.decompose_s": span_total(spans, "decompose_demand_by_category"),
        "indicators.group_s": span_total(spans, "aggregate_by_sector_group"),
        "indicators.report_self_s": span_total(spans, "build_footprint_report")
        - span_total(spans, "build_footprint_report", "solve_s"),
        "trace.overhead_s": traced_wall_s - wall_s,
    }


class Run:
    """One workload at one seed: inputs, commands, checks and samples."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, deadline: float):
        self.name, self.workload = name, WORKLOADS[name]
        self.seed, self.seconds, self.trace, self.deadline = seed, seconds, trace, deadline
        self.work = WORK / f"{name}-{seed}-{os.getpid()}"
        self.inputs = self.work / "inputs"
        self.env = child_env()
        self.spec_files: list[str] = []
        self.spec_names: list[str] = []
        self.oracle: dict[str, float] | None = None
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.count = 0
        self.out_bytes = 0
        self.spans: dict = {}

    def _logs(self) -> Path:
        self.count += 1
        return self.work / "logs" / f"{self.count:04d}"

    def _cli(self, *args: str) -> list[str]:
        return [sys.executable, "-c", ENTRY, *args]

    def _traced(self, spans: Path, *args: str) -> list[str]:
        return [sys.executable, str(HERE / "traced.py"), str(spans), "--", *args]

    def setup(self, spans: Path | None) -> float:
        """Write the inputs; returns the seconds taken."""
        w = self.workload
        shutil.rmtree(self.inputs, ignore_errors=True)
        args = ("fixture", "--regions", str(w.regions), "--sectors", str(w.sectors),
                "--seed", str(self.seed), "--out", str(self.inputs))
        start = time.perf_counter()
        done = run_child(self._traced(spans, *args) if spans else self._cli(*args),
                         self.env, self._logs(), self.deadline)
        if done.status != 0:
            raise BenchError(f"fixture exited {done.status}: {done.stderr.strip()}")
        files = [f"scenarios/{name}.json" for name in w.fixture_specs]
        if w.seeded_specs:
            categories = checks.concordance_categories(self.inputs / "category_concordance.tsv")
            for spec in checks.seeded_specs(self.seed, w.seeded_specs, categories):
                files.append(f"scenarios/{spec['name']}.json")
                (self.inputs / files[-1]).write_text(json.dumps(spec, indent=2) + "\n",
                                                     encoding="utf-8")
        elapsed = time.perf_counter() - start

        from mrio_footprint import scenario
        specs = [scenario.load_scenario_spec(self.inputs / f) for f in files]
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names) or len({spec.home_region for spec in specs}) > 1:
            raise BenchError(f"scenario specs must have unique names and one home region: {names}")
        self.spec_files, self.spec_names = files, names
        return elapsed

    def fresh_inputs(self, name: str) -> Path:
        """A new copy of the inputs that no command has run on yet."""
        copy = self.work / name
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(self.inputs, copy)
        return copy

    def command(self, inputs: Path, traced_spans: Path | None = None,
                verb: str | None = None) -> Command:
        """Run the workload's command (or ``verb``) on ``inputs`` once and check
        what it wrote."""
        verb = verb or self.workload.verb
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        args = [verb, "--layout", str(inputs / "layout.json")]
        if verb == "compare":
            for name in self.spec_files:
                args += ["--scenario", str(inputs / name)]
            args += ["--params", str(inputs / "params.json")]
        args += ["--out", str(out)]
        argv = self._traced(traced_spans, *args) if traced_spans else self._cli(*args)
        done = run_child(argv, self.env, self._logs(), self.deadline)

        problems = []
        if done.status != 0:
            problems.append(f"exit status {done.status}: {done.stderr.strip()[-500:]}")
        elif verb == "compare":
            problems += checks.check_compare(out, done.stdout, self.spec_names, self.oracle)
        else:
            problems += checks.check_validate(out, done.stdout)
        if out.is_dir():
            digest = checks.tree_digest(out)
            if verb == self.workload.verb:
                self.out_bytes = checks.tree_bytes(out)
            if self.digests.setdefault(verb, digest) != digest:
                problems.append("output tree differs from the first run's")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        return done

    def traced_command(self, inputs: Path, verb: str) -> tuple[Command, dict]:
        """Run ``verb`` once under traced.py; returns the command and its spans."""
        path = self.work / f"spans-{verb}.json"
        done = self.command(inputs, path, verb=verb)
        if done.status != 0 or not path.is_file():
            raise BenchError(f"traced {verb} exited {done.status}: {done.stderr.strip()[-500:]}")
        return done, json.loads(path.read_text(encoding="utf-8"))

    def measure(self) -> tuple[dict[str, float], dict[str, float] | None, dict]:
        probe_run = run_child([sys.executable, "-c", PROBE], self.env, self._logs(), self.deadline)
        if probe_run.status != 0:
            raise BenchError(f"cannot import the package: {probe_run.stderr.strip()}")
        probe = json.loads(probe_run.stdout)
        if not Path(probe["package_file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"package imported from {probe['package_file']}, not {SRC}")
        if self.workload.verb == "compare":
            from mrio_footprint import fixtures
            w = self.workload
            self.oracle = checks.oracle_totals(fixtures.fixture(w.regions, w.sectors, self.seed))

        write_spans = self.work / "write_spans.json"
        setup_s = [self.setup(write_spans if self.trace and i == 0 else None)
                   for i in range(self.workload.setups)]
        # The first cold command warms the copy that every warm command reuses;
        # later cold commands each get a fresh copy.
        warm_inputs = self.fresh_inputs("warm")
        cold, warm = [self.command(warm_inputs)], []
        start = time.monotonic()
        while (len(warm) < MIN_WARM or len(cold) < MIN_COLD
               or time.monotonic() - start < self.seconds):
            if len(warm) >= COLD_EVERY * len(cold):
                cold.append(self.command(self.fresh_inputs("cold")))
                shutil.rmtree(self.work / "cold")
            else:
                warm.append(self.command(warm_inputs))

        walls = [c.wall_s for c in warm]
        end_to_end = {
            "wall_s": statistics.median(walls),
            "cold_wall_s": statistics.median(c.wall_s for c in cold),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": statistics.median(c.rss_mb for c in warm),
            "ok_share": (self.attempted - self.failed) / self.attempted,
        }
        per_layer = None
        if self.trace:
            traced, trace = self.traced_command(warm_inputs, self.workload.verb)
            validate_spans = trace["spans"]
            if self.workload.trace_validate:
                validate_spans = self.traced_command(warm_inputs, "validate")[1]["spans"]
            writes = json.loads(write_spans.read_text(encoding="utf-8"))
            per_layer = per_layer_metrics(
                trace["spans"], writes["spans"], validate_spans, trace["import_s"], traced.wall_s,
                end_to_end["wall_s"], ingest_bytes(self.inputs / "layout.json"), self.out_bytes)
            self.spans = trace["spans"]

        percentile = tail_percentile(walls)
        meta = {
            "workload": self.name, "seed": self.seed, "seconds": self.seconds,
            "trace": int(self.trace), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_thread_vars_removed": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "blas_threads": probe["blas_threads"], "python": probe["python"],
            "numpy": probe["numpy"], "scipy": probe["scipy"], "openblas": probe["openblas"],
            "machine": platform.machine(), "git_commit": git_commit(),
            "input_bytes": {str(p.relative_to(self.inputs)): p.stat().st_size
                            for p in sorted(self.inputs.rglob("*")) if p.is_file()},
            "samples": {"setup": len(setup_s), "cold": len(cold), "warm": len(warm)},
            "wall_s_samples": walls,
            "wall_s_tail": None if percentile is None
            else {"percentile": percentile[0], "value": percentile[1]},
        }
        return end_to_end, per_layer, meta


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> tuple[Run, dict, dict | None, dict]:
    run = Run(name, seed, seconds, trace, deadline)
    shutil.rmtree(run.work, ignore_errors=True)
    try:
        end_to_end, per_layer, meta = run.measure()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    return run, end_to_end, per_layer, meta


def _print_metrics(metrics: dict[str, float], units: dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mrio_footprint" / "cli.py").is_file():
        print(f"benchmark error: no package source at {SRC / 'mrio_footprint'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.monotonic() + RUN_DEADLINE_S
    seed = args.seed % 2**32

    results = {}
    for name in args.workload:
        try:
            run, end_to_end, per_layer, meta = run_workload(
                name, seed, args.seconds, bool(args.trace), deadline)
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
        print(f"workload {name}, seed {seed}: {run.attempted} commands, {run.failed} failed")
        for problem in run.problems:
            print(f"  FAILED CHECK: {problem}")
        print("end-to-end (tracing off):")
        _print_metrics(end_to_end, END_TO_END_UNITS)
        tail = meta["wall_s_tail"]
        print(f"  wall_s is the median of {len(meta['wall_s_samples'])} warm commands; "
              + ("no percentile has ten samples beyond it" if tail is None
                 else f"p{tail['percentile']} = {tail['value']:.6g} s"))
        if per_layer is not None:
            print("per-layer (one traced run):")
            _print_metrics(per_layer, PER_LAYER_UNITS)
            print("spans (calls, total s, self s):")
            for span, stats in sorted(run.spans.items(), key=lambda kv: -kv[1]["total_s"]):
                if stats["calls"]:
                    print(f"  {span:48s} {stats['calls']:>7d} {stats['total_s']:>10.4f} "
                          f"{stats['self_s']:>10.4f}")
        print("meta " + json.dumps(meta))
        chosen, units = (per_layer, PER_LAYER_UNITS) if args.trace else (end_to_end, END_TO_END_UNITS)
        results[name] = (run, {k: {"value": v, "unit": units[k]} for k, v in chosen.items()})

    if len(results) == 1:
        metrics = next(iter(results.values()))[1]
    else:
        metrics = {f"{name}:{k}": v for name, (_, m) in results.items() for k, v in m.items()}
    attempted = sum(run.attempted for run, _ in results.values())
    failed = sum(run.failed for run, _ in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
