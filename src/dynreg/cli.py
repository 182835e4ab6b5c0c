"""Command-line harness: single solves, accuracy-grid scaling studies and
sample-size validation.

Configs are JSON with four sections (problem, orders, oracle, algo) plus a
seed; unknown keys are rejected.  Outputs are line-delimited JSON traces,
a JSON summary and CSV tables, all byte-reproducible for a fixed config
and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import checks
from .bounds import ComplexityBudget, complexity_budget
from .driver import RunAborted, RunReport, TerminationKind, run
from .oracles import ExactOracle, NoisyOracle, StochasticConfig, SubsampledOracle, sampling_failures
from .params import AlgoParams, Schedule, finite
from .problems import (
    Dataset,
    Problem,
    load_dataset,
    make_quadratic,
    make_quartic,
    make_rosenbrock,
    make_sigmoid_problem,
    make_synthetic_dataset,
)
from .taylor import Orders

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_ABORTED = 4

_PROBLEM_KEYS = {
    "quadratic": {"name", "diag", "x0"},
    "quartic": {"name", "n", "box_radius", "x0"},
    "rosenbrock": {"name", "x0"},
    "sigmoid-synthetic": {"name", "N", "n", "data_seed", "x0"},
    "sigmoid-file": {"name", "path", "x0"},
}
_ORDERS_KEYS = {"p", "q", "beta"}
_ORACLE_KEYS = {"kind", "noise_fraction", "t_bar", "t"}
_ALGO_KEYS = {f for f in AlgoParams.__dataclass_fields__}
_TOP_KEYS = {"problem", "orders", "oracle", "algo", "seed"}
# JSON types of the scalar values, by key; a bool is not a number here,
# and a number must be finite
_SCALAR_TYPES = {
    **dict.fromkeys(_ALGO_KEYS - {"schedule"} | {"box_radius", "beta", "noise_fraction", "t_bar"}, (int, float)),
    **dict.fromkeys(("seed", "n", "N", "data_seed", "p", "q", "max_iter"), int),
    **dict.fromkeys(("kind", "schedule", "path"), str),
    "t": (int, float, type(None)),
}
_TYPE_NAMES = {int: "an integer", str: "a string"}


class ConfigError(ValueError):
    pass


def _finite_number(value) -> bool:
    """A JSON number (not a bool) that converts to a finite float."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and finite(value)


@dataclass
class RunConfig:
    """Validated run description; round-trips exactly through JSON."""

    problem: dict = field(default_factory=lambda: {"name": "quadratic"})
    orders: dict = field(default_factory=lambda: {"p": 1, "q": 1, "beta": 1.0})
    oracle: dict = field(default_factory=lambda: {"kind": "exact"})
    algo: dict = field(default_factory=dict)
    seed: int = 0

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"the config must be a JSON object, got {type(raw).__name__}")
        unknown = set(raw) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(seed=raw.get("seed", 0))
        for section in ("problem", "orders", "oracle", "algo"):
            value = raw.get(section, getattr(cfg, section))
            if not isinstance(value, dict):
                raise ConfigError(f"{section} must be a JSON object")
            setattr(cfg, section, dict(value))
        cfg.validate()
        return cfg

    def validate(self) -> None:
        name = self.problem.get("name")
        if not isinstance(name, str) or name not in _PROBLEM_KEYS:
            raise ConfigError(f"unknown problem {name!r}; choose from {sorted(_PROBLEM_KEYS)}")
        kind = self.oracle.get("kind", "exact")
        if kind not in ("exact", "noisy", "subsampled"):
            raise ConfigError(f"unknown oracle kind {kind!r}")
        allowed = {"problem": _PROBLEM_KEYS[name], "orders": _ORDERS_KEYS, "oracle": _ORACLE_KEYS, "algo": _ALGO_KEYS}
        items = [("seed", self.seed)]
        for section, keys in allowed.items():
            values = getattr(self, section)
            unknown = set(values) - keys
            if unknown:
                raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
            items += values.items()
        if name == "sigmoid-file" and "path" not in self.problem:
            raise ConfigError("the sigmoid-file problem needs a dataset path")
        for key, value in items:
            kinds = _SCALAR_TYPES.get(key)
            if kinds is None:
                continue
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ConfigError(f"{key} must be {_TYPE_NAMES.get(kinds, 'a number')}, got {value!r}")
            if kinds is not int and isinstance(value, (int, float)) and not finite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        for key in ("x0", "diag"):
            value = self.problem.get(key, [])
            if not isinstance(value, list) or not all(map(_finite_number, value)):
                raise ConfigError(f"{key} must be a list of finite numbers, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)

    def build_orders(self) -> Orders:
        return Orders(
            p=int(self.orders.get("p", 1)),
            q=int(self.orders.get("q", 1)),
            beta=float(self.orders.get("beta", 1.0)),
        )

    def build_params(self) -> AlgoParams:
        return AlgoParams(**self.algo)


def build_problem(cfg: RunConfig) -> tuple[Problem, Dataset | None, np.ndarray]:
    spec = cfg.problem
    name = spec["name"]
    dataset = None
    if name == "quadratic":
        diag = spec.get("diag", [1.0, 2.0])
        problem = make_quadratic(np.asarray(diag, dtype=float))
        x0 = np.ones(problem.n)
    elif name == "quartic":
        problem = make_quartic(int(spec.get("n", 2)), float(spec.get("box_radius", 3.0)))
        x0 = 0.9 * np.ones(problem.n)
    elif name == "rosenbrock":
        problem = make_rosenbrock()
        x0 = np.array([-1.2, 1.0])
    elif name == "sigmoid-synthetic":
        dataset = make_synthetic_dataset(
            int(spec.get("N", 10_000)), int(spec.get("n", 20)), int(spec.get("data_seed", 1234))
        )
        problem = make_sigmoid_problem(dataset)
        x0 = np.zeros(problem.n)
    elif name == "sigmoid-file":
        dataset = load_dataset(spec["path"])
        problem = make_sigmoid_problem(dataset)
        x0 = np.zeros(problem.n)
    else:  # pragma: no cover - validate() rejects this earlier
        raise ConfigError(f"unknown problem {name!r}")
    if "x0" in spec:
        x0 = np.asarray(spec["x0"], dtype=float)
        if x0.shape != (problem.n,):
            raise ConfigError(f"x0 must have dimension {problem.n}")
    return problem, dataset, x0


def stochastic_config(cfg: RunConfig) -> StochasticConfig:
    return StochasticConfig(t_bar=float(cfg.oracle.get("t_bar", 0.1)), t=cfg.oracle.get("t"))


def build_oracle(cfg: RunConfig, problem: Problem, dataset: Dataset | None, params: AlgoParams, orders: Orders):
    kind = cfg.oracle.get("kind", "exact")
    if kind == "exact":
        return ExactOracle(problem)
    if kind == "noisy":
        return NoisyOracle(problem, float(cfg.oracle.get("noise_fraction", 0.9)), seed=cfg.seed)
    if dataset is None:
        raise ConfigError("subsampled oracle requires a sigmoid dataset problem")
    return SubsampledOracle(dataset, stochastic_config(cfg).resolve_t(params.eps, orders), cfg.seed)


def execute(cfg: RunConfig) -> tuple[RunReport, Problem, Dataset | None, np.ndarray]:
    orders = cfg.build_orders()
    params = cfg.build_params()
    problem, dataset, x0 = build_problem(cfg)
    oracle = build_oracle(cfg, problem, dataset, params, orders)
    report = run(oracle, x0, params, orders)
    return report, problem, dataset, x0


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def record_to_json(rec) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "k": rec.k,
        "sigma": rec.sigma,
        "omega": rec.omega,
        "rho": rec.rho,
        "step_norm": rec.step_norm,
        "success": rec.success,
        "eps": rec.eps,
        "shrinks": rec.shrinks,
        "flags": [[stage, flag] for stage, flag in rec.flags],
        "fun_evals": rec.fun_evals,
        "deriv_evals": {str(j): c for j, c in rec.deriv_evals},
        "component_evals": rec.component_evals,
        "extras": rec.extras,
        "x_inf": rec.x_inf,
    }


def write_trace(path: Path, trace) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for rec in trace:
            fh.write(json.dumps(record_to_json(rec), sort_keys=True) + "\n")


def write_summary(path: Path, summary: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


def run_budget(report: RunReport, problem: Problem, x0: np.ndarray) -> ComplexityBudget | None:
    """Worst-case budget of the run, or None when the problem has no order-p
    Hölder constant or no lower bound, or when the budget is beyond the
    float range (then it bounds nothing)."""
    L = problem.lipschitz.get(report.orders.p)
    if L is None or problem.f_low is None:
        return None
    try:
        return complexity_budget(L, float(problem.value(x0)), problem.f_low, report.params, report.orders)
    except ArithmeticError:
        return None


def summarize(report: RunReport, problem: Problem, x0: np.ndarray) -> dict:
    budget = bounds_ok = None
    b = run_budget(report, problem, x0)
    if b is not None:
        budget = {key: value for key, value in asdict(b).items() if key != "eps"}
        bounds_ok = not checks.all_violations(report, b)
    return {
        "schema_version": SCHEMA_VERSION,
        "status": report.status.kind.value,
        "k_final": report.status.k_final,
        "delta_at_exit": report.status.delta_at_exit,
        "phi_at_exit": report.status.phi,
        "x_final": [float(v) for v in report.x_final],
        "totals": {
            "iterations": report.n_complete,
            "successful": report.n_successful,
            "shrinks": report.total_shrinks,
            "fun_evals": report.counters.fun_evals,
            "deriv_evals": {str(j): c for j, c in sorted(report.counters.deriv_evals.items())},
            "component_evals": report.counters.component_evals,
            "sigma_max_observed": report.sigma_max_observed,
        },
        "budget": budget,
        "bounds_ok": bounds_ok,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def aborted_summary(exc: RunAborted) -> dict:
    """Summary of a run that raised: the reason and the counts so far."""
    counters = exc.counters
    return {
        "schema_version": SCHEMA_VERSION,
        "status": "aborted",
        "reason": str(exc),
        "totals": {
            "iterations": sum(1 for r in exc.trace if r.rho is not None),
            "fun_evals": counters.fun_evals,
            "deriv_evals": {str(j): c for j, c in sorted(counters.deriv_evals.items())},
            "component_evals": counters.component_evals,
        },
    }


def cmd_solve(cfg: RunConfig, out_dir: Path) -> int:
    try:
        report, problem, _, x0 = execute(cfg)
    except RunAborted as exc:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_trace(out_dir / "trace.jsonl", exc.trace)
        write_summary(out_dir / "summary.json", aborted_summary(exc))
        print(f"{cfg.problem['name']}: status=aborted: {exc}", file=sys.stderr)
        return EXIT_ABORTED
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace(out_dir / "trace.jsonl", report.trace)
    summary = summarize(report, problem, x0)
    write_summary(out_dir / "summary.json", summary)
    print(
        f"{problem.name}: status={summary['status']} iterations={summary['totals']['iterations']} "
        f"successful={summary['totals']['successful']} fun_evals={summary['totals']['fun_evals']}"
    )
    if report.status.kind is TerminationKind.BUDGET:
        return EXIT_BUDGET
    return EXIT_OK


def parse_eps_grid(text: str) -> list[float]:
    """LO:HI:POINTS, log-spaced and emitted from LO to HI."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("eps grid must be LO:HI:POINTS")
    lo, hi, points = float(parts[0]), float(parts[1]), int(parts[2])
    if points < 1 or lo <= 0.0 or hi <= 0.0:
        raise ConfigError("eps grid needs positive endpoints and at least one point")
    if points == 1:
        return [lo]
    return [float(v) for v in np.geomspace(lo, hi, points)]


def cmd_scaling(cfg: RunConfig, eps_grid: list[float], out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    violations = []
    for i, eps in enumerate(eps_grid):
        sub = RunConfig.from_dict(cfg.to_dict())
        sub.algo["eps"] = eps
        sub.seed = cfg.seed + 1_000_003 * i
        try:
            report, problem, _, x0 = execute(sub)
        except RunAborted as exc:
            print(f"eps={eps:g}: status=aborted: {exc}", file=sys.stderr)
            return EXIT_ABORTED
        budget = run_budget(report, problem, x0)
        violations += [f"eps={eps:g}: {v}" for v in checks.all_violations(report, budget)]
        rows.append(
            {
                "eps": eps,
                "successful_iters": report.n_successful,
                "total_iters": report.n_complete,
                "fun_evals": report.counters.fun_evals,
                "deriv_evals": sum(report.counters.deriv_evals.values()),
                "component_evals": report.counters.component_evals,
                "theorem_bound_succ": budget.max_successful if budget else "",
                "theorem_bound_total": budget.max_total if budget else "",
            }
        )
    path = out_dir / "scaling.csv"
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    pts = [(math.log(r["eps"]), math.log(max(1, r["successful_iters"]))) for r in rows]
    if len(pts) >= 2:
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        slope = float(np.polyfit(xs, ys, 1)[0])
        print(f"log-log slope of successful iterations vs eps: {slope:.3f} (informational)")
    for v in violations:
        print(f"BOUND VIOLATION: {v}", file=sys.stderr)
    print(f"wrote {path}")
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_sample_check(cfg: RunConfig, trials: int, eps_fracs: list[float], out_dir: Path) -> int:
    if trials < 1:
        raise ConfigError("--trials must be at least 1")
    if not eps_fracs or not all(0.0 < frac < math.inf for frac in eps_fracs):
        raise ConfigError("--eps-frac needs positive finite fractions")
    _, dataset, x0 = build_problem(cfg)
    if dataset is None:
        raise ConfigError("sample-check requires a sigmoid dataset problem")
    t = stochastic_config(cfg).resolve_t(cfg.build_params().eps, cfg.build_orders())

    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    violations = []
    for j in (0, 1, 2):
        for frac in eps_fracs:
            eps_j = frac * dataset.kappa_bounds[j]
            if eps_j <= 0.0:
                continue
            rng = np.random.default_rng([cfg.seed, j, int(1e9 * frac)])
            m, failures = sampling_failures(dataset, x0, j, eps_j, t, trials, rng)
            rate = failures / trials
            threshold = t + 3.0 * math.sqrt(t * (1.0 - t) / trials)
            ok = rate <= threshold
            if not ok:
                violations.append(f"order {j}, eps={eps_j:g}: rate {rate:.4f} > {threshold:.4f}")
            rows.append(
                {
                    "order": j,
                    "eps_j": eps_j,
                    "sample_size": m,
                    "trials": trials,
                    "failures": failures,
                    "rate": rate,
                    "threshold": threshold,
                    "ok": ok,
                }
            )
    path = out_dir / "sample_check.csv"
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    for v in violations:
        print(f"SAMPLE-SIZE VIOLATION: {v}", file=sys.stderr)
    print(f"wrote {path}")
    return EXIT_VIOLATION if violations else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--config", type=Path, help="JSON config file")
    sub.add_argument("--eps", type=float, help="target accuracy override")
    sub.add_argument("--seed", type=int, help="seed override")
    sub.add_argument("--out", type=Path, default=Path("."), help="output directory")
    sub.add_argument("--schedule", choices=[s.value for s in Schedule], help="accuracy schedule")
    sub.add_argument("--oracle", choices=["exact", "noisy", "subsampled"], help="oracle kind")
    sub.add_argument("--noise-fraction", type=float, help="noisy-oracle error fraction")
    sub.add_argument("--p", type=int, help="model degree")
    sub.add_argument("--q", type=int, help="optimality order")
    sub.add_argument("--problem", help="problem name override")


def _load_config(args) -> RunConfig:
    raw = {}
    if args.config is not None:
        with open(args.config, "r", encoding="ascii") as fh:
            raw = json.load(fh)
    cfg = RunConfig.from_dict(raw)
    if args.problem is not None and args.problem != cfg.problem["name"]:
        cfg.problem = {"name": args.problem}  # another problem: the config's section does not apply
    if args.eps is not None:
        cfg.algo["eps"] = args.eps
    if args.seed is not None:
        cfg.seed = args.seed
    if args.schedule is not None:
        cfg.algo["schedule"] = args.schedule
    if args.oracle is not None:
        cfg.oracle["kind"] = args.oracle
    if getattr(args, "noise_fraction", None) is not None:
        cfg.oracle["noise_fraction"] = args.noise_fraction
    if args.p is not None:
        cfg.orders["p"] = args.p
    if args.q is not None:
        cfg.orders["q"] = args.q
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dynreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the solver once and write the trace")
    _add_common(p_solve)

    p_scaling = sub.add_parser("scaling", help="run over an accuracy grid and check bounds")
    _add_common(p_scaling)
    p_scaling.add_argument("--eps-grid", default="1e-1:1e-5:5", help="LO:HI:POINTS, log spaced")

    p_check = sub.add_parser("sample-check", help="validate subsample sizes empirically")
    _add_common(p_check)
    p_check.add_argument("--trials", type=int, default=2000)
    p_check.add_argument("--eps-frac", default="0.1", help="comma-separated fractions of kappa_j")

    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "solve":
            return cmd_solve(cfg, args.out)
        if args.command == "scaling":
            return cmd_scaling(cfg, parse_eps_grid(args.eps_grid), args.out)
        fracs = [float(v) for v in args.eps_frac.split(",") if v]
        return cmd_sample_check(cfg, args.trials, fracs, args.out)
    except (ConfigError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
