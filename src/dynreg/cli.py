"""Command-line harness: single solves, accuracy-grid scaling studies and
sample-size validation.

Configs are JSON with four sections (problem, orders, oracle, algo) plus a
seed; ``CONFIG_SCHEMA`` gives each key's default and type, and unknown keys
are rejected.  Outputs are line-delimited JSON traces,
a JSON summary and CSV tables, all byte-reproducible for a fixed config
and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import struct
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import checks
from .bounds import ComplexityBudget, complexity_budget
from .driver import RunAborted, RunReport, TerminationKind, run
from .oracles import ExactOracle, NoisyOracle, SubsampledOracle, failure_probability, sampling_failures
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


class ConfigError(ValueError):
    pass


def _finite_number(value) -> bool:
    """A JSON number (not a bool) that converts to a finite float."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and finite(value)


# The config schema: each section's keys with their defaults, the problem
# section's by problem name (every problem also takes a name and an x0).
# A key's JSON type is its default's; a None default admits a number or
# null, and a bare type is that type with no default.
CONFIG_SCHEMA = {
    "problem": {
        "quadratic": {"diag": [1.0, 2.0]},
        "quartic": {"n": 2, "box_radius": 3.0},
        "rosenbrock": {},
        "sigmoid-synthetic": {"N": 10_000, "n": 20, "data_seed": 1234},
        "sigmoid-file": {"path": str},
    },
    "orders": {"p": 1, "q": 1, "beta": 1.0},
    "oracle": {"kind": "exact", "noise_fraction": 0.9, "t_bar": 0.1, "t": None},
    "algo": {f.name: f.default for f in fields(AlgoParams)},
}
# each JSON type's test and name; numbers are finite, and a bool is none
_JSON_TYPES = {
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (_finite_number, "a finite number"),
    type(None): (lambda v: v is None or _finite_number(v), "a finite number or null"),
    str: (lambda v: isinstance(v, str), "a string"),
    list: (lambda v: isinstance(v, list) and all(map(_finite_number, v)), "a list of finite numbers"),
}
# oracle kind -> its builder, called as build_oracle is
_ORACLES = {
    "exact": lambda cfg, problem, *_: ExactOracle(problem),
    "noisy": lambda cfg, problem, *_: NoisyOracle(problem, cfg.get("oracle", "noise_fraction"), seed=cfg.seed),
    "subsampled": lambda cfg, _, dataset, params, orders: SubsampledOracle(
        dataset, _sampling_t(cfg, dataset, params.eps, orders), cfg.seed
    ),
}
# the strings that must name one of a few things
_CHOICES = {"name": list(CONFIG_SCHEMA["problem"]), "kind": list(_ORACLES), "schedule": [s.value for s in Schedule]}
# override flag -> (section, None for the seed; key; help); it takes its key's type
_FLAGS = {
    "--eps": ("algo", "eps", "target accuracy override"),
    "--seed": (None, "seed", "seed override"),
    "--schedule": ("algo", "schedule", "accuracy schedule"),
    "--oracle": ("oracle", "kind", "oracle kind"),
    "--noise-fraction": ("oracle", "noise_fraction", "noisy-oracle error fraction"),
    "--p": ("orders", "p", "model degree"),
    "--q": ("orders", "q", "optimality order"),
}


@dataclass
class RunConfig:
    """Validated run description; round-trips exactly through JSON.  A
    section holds the keys given, and ``get`` supplies the defaults."""

    problem: dict = field(default_factory=lambda: {"name": "quadratic"})
    orders: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)
    algo: dict = field(default_factory=dict)
    seed: int = 0

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"the config must be a JSON object, got {type(raw).__name__}")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**raw)
        for section in CONFIG_SCHEMA:
            if not isinstance(getattr(cfg, section), dict):
                raise ConfigError(f"{section} must be a JSON object")
            setattr(cfg, section, dict(getattr(cfg, section)))
        cfg.validate()
        return cfg

    def schema(self, section: str) -> dict:
        """The section's keys with their schema entries."""
        if section == "problem":
            return {"name": str, "x0": list, **CONFIG_SCHEMA["problem"][self.problem["name"]]}
        return CONFIG_SCHEMA[section]

    def get(self, section: str, key: str):
        """A key's value, else its default, as the default's type; a key
        with a None default keeps its value's."""
        default = self.schema(section)[key]
        value = getattr(self, section).get(key, default)
        return value if default is None else type(default)(value)

    def validate(self) -> None:
        name = self.problem.get("name")
        if name not in _CHOICES["name"]:
            raise ConfigError(f"unknown problem {name!r}; choose from {_CHOICES['name']}")
        items = [("seed", self.seed, RunConfig.seed)]
        for section in CONFIG_SCHEMA:
            values, schema = getattr(self, section), self.schema(section)
            unknown = set(values) - set(schema)
            if unknown:
                raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
            items += [(key, value, schema[key]) for key, value in values.items()]
        for key, value, spec in items:
            json_type = spec if isinstance(spec, type) else type(spec)
            test, type_name = next(entry for base, entry in _JSON_TYPES.items() if issubclass(json_type, base))
            if not test(value):
                raise ConfigError(f"{key} must be {type_name}, got {value!r}")
            if key in _CHOICES and value not in _CHOICES[key]:
                raise ConfigError(f"unknown {key} {value!r}; choose from {_CHOICES[key]}")
        if name == "sigmoid-file" and "path" not in self.problem:
            raise ConfigError("the sigmoid-file problem needs a dataset path")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        t_bar, t = self.get("oracle", "t_bar"), self.get("oracle", "t")
        if not 0.0 < t_bar < 1.0:
            raise ConfigError(f"t_bar must lie in (0, 1), got {t_bar!r}")
        if t is not None and not 0.0 < t <= t_bar:
            raise ConfigError(f"t must lie in (0, t_bar], got {t!r}")
        if not 0.0 <= self.get("oracle", "noise_fraction") <= 1.0:
            raise ConfigError("noise_fraction must lie in [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)

    def build_orders(self) -> Orders:
        return Orders(**{key: self.get("orders", key) for key in CONFIG_SCHEMA["orders"]})

    def build_params(self) -> AlgoParams:
        return AlgoParams(**self.algo)


def build_problem(cfg: RunConfig) -> tuple[Problem, Dataset | None, np.ndarray]:
    spec = cfg.problem
    name = spec["name"]
    dataset = None
    if name == "quadratic":
        problem = make_quadratic(np.asarray(cfg.get("problem", "diag"), dtype=float))
        x0 = np.ones(problem.n)
    elif name == "quartic":
        problem = make_quartic(cfg.get("problem", "n"), cfg.get("problem", "box_radius"))
        x0 = 0.9 * np.ones(problem.n)
    elif name == "rosenbrock":
        problem = make_rosenbrock()
        x0 = np.array([-1.2, 1.0])
    elif name == "sigmoid-synthetic":
        n = cfg.get("problem", "n")
        if "x0" in spec and len(spec["x0"]) != n:  # before the dataset is built
            raise ConfigError(f"x0 must have dimension {n}")
        dataset = make_synthetic_dataset(cfg.get("problem", "N"), n, cfg.get("problem", "data_seed"))
        problem = make_sigmoid_problem(dataset)
        x0 = np.zeros(problem.n)
    else:  # sigmoid-file
        dataset = load_dataset(spec["path"])
        problem = make_sigmoid_problem(dataset)
        x0 = np.zeros(problem.n)
    if "x0" in spec:
        x0 = np.asarray(spec["x0"], dtype=float)
        if x0.shape != (problem.n,):
            raise ConfigError(f"x0 must have dimension {problem.n}")
    return problem, dataset, x0


def _sampling_t(cfg: RunConfig, dataset: Dataset | None, eps: float, orders: Orders) -> float:
    """The per-inequality failure probability of subsampling the dataset:
    the config's ``t``, else ``failure_probability`` of its ``t_bar``."""
    if dataset is None:
        raise ConfigError("subsampling requires a sigmoid dataset problem")
    t = cfg.get("oracle", "t")
    return failure_probability(eps, orders, cfg.get("oracle", "t_bar")) if t is None else t


def build_oracle(cfg: RunConfig, problem: Problem, dataset: Dataset | None, params: AlgoParams, orders: Orders):
    return _ORACLES[cfg.get("oracle", "kind")](cfg, problem, dataset, params, orders)


def execute(cfg: RunConfig) -> tuple[RunReport, Problem, np.ndarray]:
    orders = cfg.build_orders()
    params = cfg.build_params()
    problem, dataset, x0 = build_problem(cfg)
    oracle = build_oracle(cfg, problem, dataset, params, orders)
    return run(oracle, x0, params, orders), problem, x0


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def record_to_json(rec) -> dict:
    """One trace line: every ``IterRecord`` field, with ``deriv_evals``
    keyed by order digits, and the schema version."""
    line = {f.name: getattr(rec, f.name) for f in fields(rec)}
    line["deriv_evals"] = {str(j): c for j, c in rec.deriv_evals}
    line["schema_version"] = SCHEMA_VERSION
    return line


def write_trace(path: Path, trace) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for rec in trace:
            fh.write(json.dumps(record_to_json(rec), sort_keys=True) + "\n")


def write_summary(path: Path, summary: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_table(path: Path, rows: list[dict], violations: list[str], kind: str) -> int:
    """Write ``rows`` as CSV, print each violation as ``<KIND> VIOLATION``
    and the path written; the exit code."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    for v in violations:
        print(f"{kind} VIOLATION: {v}", file=sys.stderr)
    print(f"wrote {path}")
    return EXIT_VIOLATION if violations else EXIT_OK


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


def run_violations(report: RunReport, problem: Problem, budget: ComplexityBudget | None) -> list[str]:
    """Every failed check of a finished run: the trace checks against its
    budget, then the exit audit."""
    return checks.all_violations(report, budget) + checks.exit_violations(report, problem)


def _totals(trace, counters) -> dict:
    """The counts of a finished or aborted run: complete iterations and evaluations."""
    return {
        "iterations": sum(1 for r in trace if r.rho is not None),
        "fun_evals": counters.fun_evals,
        "deriv_evals": {str(j): c for j, c in sorted(counters.deriv_evals.items())},
        "component_evals": counters.component_evals,
    }


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
            **_totals(report.trace, report.counters),
            "successful": report.n_successful,
            "shrinks": report.total_shrinks,
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
    return {
        "schema_version": SCHEMA_VERSION,
        "status": "aborted",
        "reason": str(exc),
        "totals": _totals(exc.trace, exc.counters),
    }


def cmd_solve(cfg: RunConfig, out_dir: Path) -> int:
    """Run once; write the trace and the summary of either outcome, then
    report it and each violation of a finished run."""
    violations = []
    try:
        report, problem, x0 = execute(cfg)
    except RunAborted as exc:
        trace, summary, code = exc.trace, aborted_summary(exc), EXIT_ABORTED
        line, stream = f"{cfg.problem['name']}: status=aborted: {exc}", sys.stderr
    else:
        trace, summary = report.trace, summarize(report, problem, x0)
        violations = run_violations(report, problem, run_budget(report, problem, x0))
        if report.status.kind is TerminationKind.BUDGET:
            code = EXIT_BUDGET
        else:
            code = EXIT_VIOLATION if violations else EXIT_OK
        totals = summary["totals"]
        line = (
            f"{problem.name}: status={summary['status']} iterations={totals['iterations']} "
            f"successful={totals['successful']} fun_evals={totals['fun_evals']}"
        )
        stream = sys.stdout
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace(out_dir / "trace.jsonl", trace)
    write_summary(out_dir / "summary.json", summary)
    print(line, file=stream)
    for v in violations:
        print(f"BOUND VIOLATION: {v}", file=sys.stderr)
    return code


def parse_eps_grid(text: str) -> list[float]:
    """LO:HI:POINTS, log-spaced and emitted from LO to HI; both endpoints lie in (0, 1) like eps."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("eps grid must be LO:HI:POINTS")
    lo, hi, points = float(parts[0]), float(parts[1]), int(parts[2])
    if points < 1 or not (0.0 < lo < 1.0 and 0.0 < hi < 1.0):
        raise ConfigError("eps grid needs endpoints in (0, 1) and at least one point")
    if points == 1:
        return [lo]
    return [float(v) for v in np.geomspace(lo, hi, points)]


def cmd_scaling(cfg: RunConfig, eps_grid: list[float], out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    violations = []
    budget_exit = False
    for i, eps in enumerate(eps_grid):
        sub = RunConfig.from_dict(cfg.to_dict())
        sub.algo["eps"] = eps
        sub.seed = cfg.seed + 1_000_003 * i
        try:
            report, problem, x0 = execute(sub)
        except RunAborted as exc:
            print(f"eps={eps:g}: status=aborted: {exc}", file=sys.stderr)
            return EXIT_ABORTED
        if report.status.kind is TerminationKind.BUDGET:
            print(f"eps={eps:g}: status=budget", file=sys.stderr)
            budget_exit = True
        budget = run_budget(report, problem, x0)
        violations += [f"eps={eps:g}: {v}" for v in run_violations(report, problem, budget)]
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
    pts = [(math.log(r["eps"]), math.log(max(1, r["successful_iters"]))) for r in rows]
    if len(pts) >= 2:
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        slope = float(np.polyfit(xs, ys, 1)[0])
        print(f"log-log slope of successful iterations vs eps: {slope:.3f} (informational)")
    code = write_table(out_dir / "scaling.csv", rows, violations, "BOUND")
    return EXIT_BUDGET if budget_exit else code


def cmd_sample_check(cfg: RunConfig, trials: int, eps_fracs: list[float], out_dir: Path) -> int:
    if trials < 1:
        raise ConfigError("--trials must be at least 1")
    if not eps_fracs or not all(0.0 < frac < math.inf for frac in eps_fracs):
        raise ConfigError("--eps-frac needs positive finite fractions")
    params, orders = cfg.build_params(), cfg.build_orders()  # before the dataset is built
    _, dataset, x0 = build_problem(cfg)
    t = _sampling_t(cfg, dataset, params.eps, orders)

    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    violations = []
    for j in (0, 1, 2):
        for frac in eps_fracs:
            eps_j = frac * dataset.kappa_bounds[j]
            if eps_j <= 0.0:
                continue
            # the fraction's IEEE bits key its rng: distinct fractions, distinct draws
            rng = np.random.default_rng([cfg.seed, j, int.from_bytes(struct.pack("<d", frac), "little")])
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
    return write_table(out_dir / "sample_check.csv", rows, violations, "SAMPLE-SIZE")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--config", type=Path, help="JSON config file")
    sub.add_argument("--out", type=Path, default=Path("."), help="output directory")
    for flag, (section, key, text) in _FLAGS.items():
        default = RunConfig.seed if section is None else CONFIG_SCHEMA[section][key]
        accepts = {"choices": _CHOICES[key]} if key in _CHOICES else {"type": type(default)}
        sub.add_argument(flag, help=text, **accepts)
    sub.add_argument("--problem", help="problem name override")


def _load_config(args) -> RunConfig:
    raw = {}
    if args.config is not None:
        with open(args.config, "r", encoding="ascii") as fh:
            raw = json.load(fh)
    cfg = RunConfig.from_dict(raw)
    if args.problem is not None and args.problem != cfg.problem["name"]:
        cfg.problem = {"name": args.problem}  # another problem: the config's section does not apply
    for flag, (section, key, _) in _FLAGS.items():
        value = vars(args)[flag[2:].replace("-", "_")]  # argparse's name for it
        if value is not None:
            (vars(cfg) if section is None else getattr(cfg, section))[key] = value
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
