"""Run one mrio-footprint CLI command in-process with every layer timed.

    python3 perfbench/traced.py SPANS_JSON -- <mrio-footprint arguments>

The package is imported from ``src/`` next to this directory. Every public
function of every package module, and ``LeontiefOperator.apply``, is replaced
at module-attribute level by a timing wrapper before ``cli.main`` runs; the
package itself is not modified. Calls bound by ``from ... import`` inside the
package stay untimed and count toward their caller's self time.

SPANS_JSON receives, per wrapped function: calls, total and self seconds,
seconds spent in nested solves, the largest rise of the process's peak RSS
across one call, and the summed ``iterations`` of returned objects.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SOLVE = "algebra.LeontiefOperator.apply"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        # One frame per open span: [seconds in traced children, seconds in nested solves].
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, {
            "calls": 0, "total_s": 0.0, "self_s": 0.0, "solve_s": 0.0,
            "rss_rise_mb": 0.0, "iterations": 0,
        })
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0, 0.0]
            stack.append(frame)
            rss_before = _peak_rss_mb()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stats["calls"] += 1
                stats["total_s"] += elapsed
                stats["self_s"] += elapsed - frame[0]
                stats["solve_s"] += frame[1]
                stats["rss_rise_mb"] = max(stats["rss_rise_mb"], _peak_rss_mb() - rss_before)
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1] += elapsed if name == SOLVE else frame[1]
            iterations = getattr(result, "iterations", None)
            if isinstance(iterations, int):
                stats["iterations"] += iterations
            return result

        return timed

    def install(self, package) -> None:
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"{package.__name__}.{info.name}")
            for attr, value in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    setattr(module, attr, self.wrap(f"{info.name}.{attr}", value))
        operator = getattr(sys.modules.get(f"{package.__name__}.algebra"), "LeontiefOperator", None)
        if operator is not None:
            operator.apply = self.wrap(SOLVE, operator.apply)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, cli_args = Path(argv[0]), argv[2:]
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import mrio_footprint
    import mrio_footprint.cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install(mrio_footprint)
    start = time.perf_counter()
    status = mrio_footprint.cli.main(cli_args)
    main_s = time.perf_counter() - start
    out_path.write_text(json.dumps({
        "status": status, "import_s": import_s, "main_s": main_s,
        "peak_rss_mb": _peak_rss_mb(), "spans": tracer.stats,
    }, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
