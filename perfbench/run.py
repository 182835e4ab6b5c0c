"""Solve-level benchmark for dynreg.

Run from the repository root:

    python3 perfbench/run.py --workload many-small --seed 0 --seconds 55 --trace 0

One process, one caller, solves back to back (a closed loop).  Each solve
takes the public path ``cli.RunConfig`` -> ``cli.build_problem`` /
``cli.build_oracle`` -> ``driver.run`` on a config generated from
``--seed`` (see ``workloads.py``).  A run sets up, makes one untimed
warm-up pass over the workload's solves, gating every solve, then repeats
timed passes for ``--seconds``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (see ``tracing.py``), reports the per-layer
metrics of the median traced pass and the fixed-input layer rows of
``fixed_rows.py``, and writes the last traced pass's spans to
``perfbench_out/spans-<workload>-seed<seed>.jsonl``.

Standard output ends with a report line (environment, per-solve trace
digests, failures) and, last, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The metric names and units are
those declared in ``BENCHMARK.json``.
"""

from time import perf_counter

_T_START = perf_counter()  # set-up is timed from here, before numpy loads

import os
import sys

# one BLAS thread: the benchmark is a single caller, and a second thread on
# a shared host adds more noise than speed at these sizes
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench_out"
MIN_PASSES = 3
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60

if not (SRC / "dynreg" / "__init__.py").is_file():
    sys.exit(f"perfbench: no dynreg package under {SRC}; run from a checkout of the repository")
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np

from dynreg import AlgoParams, Dataset, Orders, Problem, _kernels, checks, cli, driver, subsolvers
from dynreg.bounds import ComplexityBudget
from dynreg.driver import RunAborted, TerminationKind
from dynreg.taylor import DerivativeBundle, chi

from workloads import WORKLOADS


class Entry(NamedTuple):
    """One solve of the workload, built once at set-up."""

    cfg: cli.RunConfig
    params: AlgoParams
    orders: Orders
    problem: Problem
    dataset: Dataset | None
    x0: np.ndarray


def setup(workload: str, seed: int) -> list[Entry]:
    """Configs, problems and one oracle per solve, built as a user would."""
    entries = []
    for raw in WORKLOADS[workload](seed):
        cfg = cli.RunConfig.from_dict(raw)
        params, orders = cfg.build_params(), cfg.build_orders()
        problem, dataset, x0 = cli.build_problem(cfg)
        cli.build_oracle(cfg, problem, dataset, params, orders)
        entries.append(Entry(cfg, params, orders, problem, dataset, x0))
    return entries


def child_setup_seconds(args) -> float:
    """Set-up time of a fresh interpreter, imports included."""
    script = str(Path(__file__).resolve())
    cmd = [sys.executable, script, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def solve(entry: Entry, problem, tracer=None, solve_id=0):
    """One solve on a fresh oracle; returns the report and the run's seconds."""
    oracle = cli.build_oracle(entry.cfg, problem, entry.dataset, entry.params, entry.orders)
    with nullcontext() if tracer is None else tracer.solve(solve_id):
        t0 = perf_counter()
        report = driver.run(oracle, entry.x0, entry.params, entry.orders)
        return report, perf_counter() - t0


def trace_digest(report) -> str:
    """sha256 of the bytes ``dynreg solve`` writes to trace.jsonl."""
    h = hashlib.sha256()
    for rec in report.trace:
        h.update((json.dumps(cli.record_to_json(rec), sort_keys=True) + "\n").encode("ascii"))
    return h.hexdigest()


def gate(entry: Entry, report) -> tuple[list[str], float | None]:
    """Reasons the solve is wrong (empty if none), and for an
    ``optimal_measure`` exit the exact measure over its bound."""
    params, orders, problem = entry.params, entry.orders, entry.problem
    if report.status.kind is TerminationKind.BUDGET:
        return ["iteration budget exhausted"], None
    x = report.x_final
    if not np.all(np.isfinite(x)):
        return ["x_final is not finite"], None
    summary = cli.summarize(report, problem, entry.x0)
    budget = None if summary["budget"] is None else ComplexityBudget(eps=params.eps, **summary["budget"])
    reasons = checks.all_violations(report, budget)
    ratio = None
    if report.status.kind is TerminationKind.OPTIMAL_MEASURE:
        delta, q = report.status.delta_at_exit, orders.q
        exact = DerivativeBundle(origin=x, grad=problem.grad(x), hess=problem.hess(x) if q == 2 else None)
        ratio = subsolvers.optimality_measure(exact, delta, q).phi / (params.eps * chi(q, delta))
        if ratio > 1.0:
            reasons.append(f"exact optimality measure is {ratio:.3g} times eps*chi_q(delta)")
    return reasons, ratio


class Run:
    """Attempts, failures and the warm-up pass every later pass must repeat."""

    def __init__(self, entries):
        self.entries = entries
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[str | None] = []
        self.bad: list[bool] = []
        self.reports = []
        self.worst_ratio = 0.0

    def _fail(self, i, reasons):
        self.failed += 1
        self.failures += [f"solve {i}: {reason}" for reason in reasons]

    def warm_up(self):
        for i, entry in enumerate(self.entries):
            self.attempted += 1
            try:
                report, _ = solve(entry, entry.problem)
            except RunAborted as exc:
                self._fail(i, [f"aborted: {exc}"])
                self.reports.append(None)
                self.digests.append(None)
                self.bad.append(True)
                continue
            reasons, ratio = gate(entry, report)
            if reasons:
                self._fail(i, reasons)
            if ratio is not None:
                self.worst_ratio = max(self.worst_ratio, ratio)
            self.reports.append(report)
            self.digests.append(trace_digest(report))
            self.bad.append(bool(reasons))

    def timed_pass(self, problems, tracer=None) -> list[float | None]:
        """Per-solve seconds, None where the solve aborted.  A solve fails
        if it aborts, failed its gate in the warm-up, or its trace differs
        from the warm-up's."""
        times = []
        for i, entry in enumerate(self.entries):
            self.attempted += 1
            try:
                report, seconds = solve(entry, problems[i], tracer, i)
            except RunAborted as exc:
                self._fail(i, [f"aborted: {exc}"])
                times.append(None)
                continue
            times.append(seconds)
            if trace_digest(report) != self.digests[i]:
                self._fail(i, ["trace differs from the warm-up pass"])
            elif self.bad[i]:
                self._fail(i, ["failed its gate in the warm-up pass"])
        return times

    def totals(self) -> dict:
        reports = [r for r in self.reports if r is not None]
        d = {j: sum(r.counters.deriv_evals.get(j, 0) for r in reports) for j in (1, 2)}
        return {
            "iterations": sum(r.n_complete for r in reports),
            "shrinks": sum(r.total_shrinks for r in reports),
            "fun_evals": sum(r.counters.fun_evals for r in reports),
            "deriv_evals.1": d[1],
            "deriv_evals.2": d[2],
            "component_evals": sum(r.counters.component_evals for r in reports),
        }


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "kernel_backend": _kernels.backend(),
    }


def pass_seconds(times) -> float:
    return sum(t for t in times if t is not None)


def end_to_end(args, run, setup_s) -> tuple[dict, dict]:
    """Timed passes for ``args.seconds``; the metrics as (value, unit) and
    the figures that go to the report line."""
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < args.seconds:
        passes.append(run.timed_pass([e.problem for e in run.entries]))
    per_solve = [[t for t in solve if t is not None] for solve in zip(*passes)]
    samples = [t for solve in per_solve for t in solve]
    totals = run.totals()
    metrics = {
        "solve_s": (statistics.median(pass_seconds(p) for p in passes), "s"),
        # each solve's median over the passes first: the machine's slow
        # spells then move the figure less than a pooled median, which
        # sits between the clusters of a mixed workload's solve times
        "solve_ms_p50": (1e3 * statistics.median(statistics.median(ts) for ts in per_solve if ts), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "iterations": (totals["iterations"], "count"),
        "fun_evals": (totals["fun_evals"], "count"),
        "deriv_evals.1": (totals["deriv_evals.1"], "count"),
        "deriv_evals": (totals["deriv_evals.1"] + totals["deriv_evals.2"], "count"),
    }
    extra = {"pass_s": [pass_seconds(p) for p in passes], "solve_samples": len(samples), "counts": totals}
    # the highest percentile with at least ten samples beyond it
    if len(samples) >= 100:
        extra["solve_ms_p90"] = 1e3 * statistics.quantiles(samples, n=10)[-1]
    return metrics, extra


def per_layer(args, run) -> tuple[dict, dict, bool]:
    """Untraced and traced passes for ``args.seconds``, then the fixed-input
    rows; the metric values, the report figures, and whether the self times
    added up and the hard-case rows took the hard-case path."""
    from fixed_rows import kernel_rows, subsolver_rows
    from tracing import Tracer, layer_metrics, layer_split_ok

    tracer = Tracer()
    plain = [e.problem for e in run.entries]
    traced = [tracer.wrap_problem(p) for p in plain]
    totals = run.totals()
    untraced_s, traced_s, rows = [], [], []
    split_ok = True
    start = perf_counter()
    while len(traced_s) < MIN_PASSES or perf_counter() - start < args.seconds:
        untraced_s.append(pass_seconds(run.timed_pass(plain)))
        tracer.reset()
        tracer.install()
        try:
            traced_s.append(pass_seconds(run.timed_pass(traced, tracer)))
        finally:
            tracer.uninstall()
        row = layer_metrics(tracer, tracer.summarize(), totals["iterations"], totals["shrinks"])
        split_ok = split_ok and layer_split_ok(row)
        rows.append(row)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    # one whole pass, so that its layer self times still add up
    median_row = sorted(rows, key=lambda r: r["driver.run.busy_s"])[(len(rows) - 1) // 2]
    values = dict(median_row)
    values["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    values["oracles.deriv_evals.1"] = totals["deriv_evals.1"]
    values["oracles.deriv_evals.2"] = totals["deriv_evals.2"]
    values["oracles.component_evals"] = totals["component_evals"]
    values.update(kernel_rows())
    subsolver_values, hard_ok = subsolver_rows()
    values.update(subsolver_values)
    extra = {
        "traced_passes": len(traced_s),
        "untraced_passes": len(untraced_s),
        "layer_split_ok": split_ok,
        "hard_case_ok": hard_ok,
    }
    return values, extra, split_ok and hard_ok


def declared_units(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0, help="length of the timed part of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    entries = setup(args.workload, args.seed)
    setup_s = perf_counter() - _T_START
    if args.setup_only:
        print(repr(setup_s))
        return 0

    run = Run(entries)
    run.warm_up()
    units = declared_units(args.trace == 1)
    if args.trace:
        values, extra, layers_ok = per_layer(args, run)
        metrics = {name: (values[name], units[name]) for name in units}
    else:
        setup_samples = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
        metrics, extra = end_to_end(args, run, statistics.median(setup_samples))
        extra["setup_s_samples"] = setup_samples
        layers_ok = True
        if {name: unit for name, (_, unit) in metrics.items()} != units:
            raise SystemExit("perfbench: end-to-end metrics differ from those declared in BENCHMARK.json")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(),
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / run.attempted,
        "worst_exact_measure_over_bound": run.worst_ratio,
        "failures": run.failures[:20],
        "trace_sha256": run.digests,
        **extra,
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6g} {unit}")
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": run.failed == 0 and layers_ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
