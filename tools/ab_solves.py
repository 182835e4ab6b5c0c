"""Interleaved A/B timing of one workload's solves on two checkouts.

Run from the repository root, with the other checkout's root as ``--base``:

    python3 tools/ab_solves.py --base ../dynreg-parent --workload many-small --seed 0 --rounds 8
    python3 tools/ab_solves.py --base ../dynreg-parent --workload many-small --seed 0 --rounds 8 --repeats 4

The two checkouts' ``src/dynreg`` are imported into one interpreter as two
separately named packages, ``dynreg_base`` and ``dynreg_change`` (the
change side defaults to this checkout).  Every solve of the workload (see
``perfbench/workloads.py``) is set up on both sides as the benchmark sets
it up, then the rounds time ``driver.run`` on a fresh oracle solve by
solve, alternating which side goes first.  Both sides thus share each
moment's machine speed, which separate benchmark runs on a shared host do
not.

The output gives, per side, the p50 over solves of each solve's median
time (the benchmark's ``solve_ms_p50``) and the sum of those medians, then
the median over solves of the per-solve ratio change/base, the same median
within each solve kind (problem name, p, q and oracle kind, so a gain shows
which solves it comes from), the number of
solves whose trace (``cli.record_to_json`` of every record) differs
between the sides, and the number of solves whose counts differ: the exit
kind, complete iterations, function evaluations, derivative evaluations
per order or ladder shrinks.  A change that only moves rounding gives
differing traces but no differing counts; comparing solve by solve, not
totals, keeps a +1 on one solve and a -1 on another from cancelling.  It
ends with each side's totals of those counts over the workload (summed as
the benchmark sums them, an aborted solve counting its partial trace), so
a change that moves the counts shows its count and time effects in one
interleaved run.  Uses one BLAS thread, like the benchmark.

Per-process state (where each side's arrays and code land) can move one
side by a few percent for the life of an interpreter, whichever side that
is.  ``--repeats R`` therefore runs R repeats one after another, each in a
freshly spawned interpreter, loading the base side first in even repeats
and the change side first in odd ones (a single run loads the base side
first).  It prints every repeat's output, then one line per repeat with
its median per-solve ratio, its p50 ratio and its ratio of the sums of
medians, then the medians of each over the repeats.  A difference that keeps its sign across repeats
and load orders is the code's; one that follows the load order is the
process's.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import importlib.util
import json
import multiprocessing
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


def load_checkout(root: Path, name: str):
    """The ``cli`` and ``driver`` modules of ``root/src/dynreg``, imported as package ``name``."""
    pkg = Path(root).resolve() / "src" / "dynreg"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"ab_solves: no dynreg package under {pkg}")
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli"), importlib.import_module(f"{name}.driver")


class Side:
    """One checkout's solves, set up once."""

    def __init__(self, root: Path, name: str, raws: list[dict]):
        self.cli, self.driver = load_checkout(root, name)
        self.entries = []
        for raw in raws:
            cfg = self.cli.RunConfig.from_dict(raw)
            params, orders = cfg.build_params(), cfg.build_orders()
            problem, dataset, x0 = self.cli.build_problem(cfg)
            self.entries.append((cfg, params, orders, problem, dataset, x0))

    def solve(self, i: int):
        """The report and the seconds of ``driver.run`` for solve i on a fresh oracle."""
        cfg, params, orders, problem, dataset, x0 = self.entries[i]
        oracle = self.cli.build_oracle(cfg, problem, dataset, params, orders)
        t0 = perf_counter()
        try:
            report = self.driver.run(oracle, x0, params, orders)
        except self.driver.RunAborted as exc:
            report = exc
        return report, perf_counter() - t0

    @staticmethod
    def kind(entry) -> str:
        """The kind of one solve: problem name, p, q and oracle kind."""
        cfg, _, orders = entry[:3]
        return f"{cfg.problem['name']} p={orders.p} q={orders.q} {cfg.oracle.get('kind', 'exact')}"

    def exit_kind(self, report) -> str:
        """The status kind of one solve, or ``aborted`` for a ``RunAborted``."""
        return "aborted" if isinstance(report, self.driver.RunAborted) else report.status.kind.value

    @staticmethod
    def counts(report) -> dict[str, int]:
        """Complete iterations, evaluations per order and shrinks of one solve."""
        d = report.counters.deriv_evals
        return {
            "iterations": sum(1 for r in report.trace if r.rho is not None),
            "fun_evals": report.counters.fun_evals,
            "deriv_evals.1": d.get(1, 0),
            "deriv_evals.2": d.get(2, 0),
            "shrinks": sum(r.shrinks for r in report.trace),
        }

    def digest(self, report) -> str:
        """sha256 of the exit and every trace record of one solve."""
        h = hashlib.sha256()
        aborted = isinstance(report, self.driver.RunAborted)
        h.update((f"aborted: {report}" if aborted else report.status.kind.value).encode())
        for rec in report.trace:
            h.update((json.dumps(self.cli.record_to_json(rec), sort_keys=True) + "\n").encode("ascii"))
        return h.hexdigest()


def compare(args, first: str) -> tuple[str, tuple[float, float, float]]:
    """One interleaved comparison with side ``first`` imported first: its
    report and its change/base ratios (median per-solve, p50, sum of medians)."""
    raws = WORKLOADS[args.workload](args.seed)
    names = ["base", "change"]
    roots = {"base": args.base, "change": args.change}
    load_order = names if first == "base" else names[::-1]
    sides = {name: Side(roots[name], f"dynreg_{name}", raws) for name in load_order}
    times = {name: [[] for _ in raws] for name in names}
    differ = count_differ = 0
    totals = {name: {} for name in names}
    for rnd in range(args.rounds + 1):  # round 0 warms up and compares traces
        for i in range(len(raws)):
            order = names if (rnd + i) % 2 == 0 else names[::-1]
            out = {name: sides[name].solve(i) for name in order}
            if rnd == 0:
                base, change = (sides[n].digest(out[n][0]) for n in names)
                differ += base != change
                counts = {n: Side.counts(out[n][0]) for n in names}
                base, change = ((sides[n].exit_kind(out[n][0]), counts[n]) for n in names)
                count_differ += base != change
                for name in names:
                    for key, value in counts[name].items():
                        totals[name][key] = totals[name].get(key, 0) + value
            else:
                for name in names:
                    times[name][i].append(out[name][1])

    medians = {name: [statistics.median(ts) for ts in times[name]] for name in names}
    p50 = {name: statistics.median(medians[name]) for name in names}
    total = {name: sum(medians[name]) for name in names}
    ratios = [c / b for b, c in zip(medians["base"], medians["change"])]
    ratio = statistics.median(ratios)
    by_kind = {}
    for r, entry in zip(ratios, sides["base"].entries):
        by_kind.setdefault(Side.kind(entry), []).append(r)
    lines = [f"workload {args.workload}  seed {args.seed}  solves {len(raws)}  rounds {args.rounds}"]
    lines += [f"{name:>6}: p50 {1e3 * p50[name]:.3f} ms   sum of medians {total[name]:.4f} s" for name in names]
    lines.append(f"median per-solve ratio change/base: {ratio:.4f}")
    lines += [
        f"  {kind} ({len(rs)} solves): median per-solve ratio {statistics.median(rs):.4f}" for kind, rs in by_kind.items()
    ]
    lines.append(f"solves with differing traces: {differ} of {len(raws)}")
    lines.append(f"solves with differing counts: {count_differ} of {len(raws)}")
    lines += [f"{name:>6}: " + "  ".join(f"{key} {value}" for key, value in totals[name].items()) for name in names]
    report = "".join(line + "\n" for line in lines)
    return report, (ratio, p50["change"] / p50["base"], total["change"] / total["base"])


def repeats(args) -> int:
    """Run ``args.repeats`` comparisons, each in a spawned interpreter with
    the load order alternating, and summarize their ratios."""
    rows = []
    spawn = multiprocessing.get_context("spawn")
    for k in range(args.repeats):
        first = ("base", "change")[k % 2]
        with spawn.Pool(1) as pool:
            out, row = pool.apply(compare, (args, first))
        print(f"--- repeat {k} ({first} loaded first)\n{out}", end="", flush=True)
        rows.append(row)
    print("--- per repeat, change/base: median per-solve ratio, p50 ratio, sum-of-medians ratio")
    for k, row in enumerate(rows):
        print(f"repeat {k} ({('base', 'change')[k % 2]} first): " + "  ".join(f"{r:.4f}" for r in row))
    print("median over repeats: " + "  ".join(f"{statistics.median(col):.4f}" for col in zip(*rows)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", type=Path, required=True, help="root of the base checkout")
    parser.add_argument("--change", type=Path, default=ROOT, help="root of the changed checkout (default: this one)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="many-small")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--rounds", type=int, default=8, help="timed rounds after one warm-up round")
    parser.add_argument("--repeats", type=int, default=1, help="repeats, each in a fresh interpreter")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.repeats > 1:
        return repeats(args)
    print(compare(args, "base")[0], end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
