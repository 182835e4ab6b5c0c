"""The exit audit, ``checks.exit_violations``: each termination kind's
certificate rechecked from exact derivatives, and ``dynreg solve`` and
``dynreg scaling`` failing through it."""

import json

import numpy as np
import pytest

from dynreg import (
    AlgoParams,
    EvalCounters,
    ExactOracle,
    IterRecord,
    Orders,
    Problem,
    RunReport,
    Termination,
    TerminationKind,
    cli,
    make_quadratic,
    make_rosenbrock,
    run,
)
from dynreg.checks import exit_violations


class UnderReporting(ExactOracle):
    """Exact values and Hessians, and a tenth of the exact gradient that
    promises to be exact."""

    def _compute(self, x, j, eps):
        result, promise = super()._compute(x, j, eps)
        return (0.1 * result if j == 1 else result), promise


def hand_report(kind, x, delta, orders, omega=0.5, eps=1e-3) -> RunReport:
    """A one-record report that stopped at ``x`` with ``kind``."""
    x = np.asarray(x, dtype=float)
    record = IterRecord(
        k=0,
        sigma=1.0 / omega,
        omega=omega,
        rho=None,
        step_norm=None,
        success=False,
        eps=eps,
        shrinks=0,
        flags=(),
        fun_evals=0,
        deriv_evals=((1, 1), (2, 1)),
        component_evals=0,
        extras={},
        x_inf=float(np.abs(x).max()),
    )
    return RunReport(Termination(kind, delta, 0), [record], EvalCounters(), x, AlgoParams(eps=eps), orders)


def test_under_reported_gradient_fails_its_measure_exit():
    problem = make_quadratic(np.array([1.0, 2.0]))
    eps = 1e-3
    report = run(UnderReporting(problem), np.ones(2), AlgoParams(eps=eps), Orders(1, 1))
    kind = report.status.kind
    assert kind in (TerminationKind.OPTIMAL_MEASURE, TerminationKind.NEGLIGIBLE_INCREMENT)
    ratio = np.linalg.norm(problem.grad(report.x_final)) / eps
    assert ratio > 1.0
    assert exit_violations(report, problem) == [
        f"{kind.value}: exact order-1 measure at radius 1 is {ratio:.6g} times its bound"
    ]


def test_strong_model_exit_checks_the_order_p_measure_at_its_radius():
    # at (1, 1) the quadratic's model minimizer is (-1, -1), inside r = 2,
    # so phi_{f,2}(2) = g.H^-1 g / 2 = 1.5; the bound is
    # (1 + omega) eps chi_2(2) / 2 = 1.5 * 1e-3 * 4 / 2 = 3e-3
    problem = make_quadratic(np.array([1.0, 2.0]))
    report = hand_report(TerminationKind.STRONG_MODEL_OPTIMALITY, [1.0, 1.0], 2.0, Orders(2, 1))
    assert exit_violations(report, problem) == [
        "strong_model_optimality: exact order-2 measure at radius 2 is 500 times its bound"
    ]
    at_minimizer = hand_report(TerminationKind.STRONG_MODEL_OPTIMALITY, [0.0, 0.0], 2.0, Orders(2, 1))
    assert exit_violations(at_minimizer, problem) == []


@pytest.mark.parametrize("kind", [TerminationKind.ZERO_STEP, TerminationKind.BUDGET])
def test_exits_that_certify_nothing_pass(kind):
    report = hand_report(kind, [-1.2, 1.0], 1.0, Orders(2, 2))
    assert exit_violations(report, make_rosenbrock()) == []


@pytest.mark.parametrize("orders", [Orders(1, 1), Orders(2, 2)], ids=["p1q1", "p2q2"])
def test_non_finite_exact_measure_is_a_violation(orders):
    nan = np.full(2, np.nan)
    problem = Problem(name="nan", n=2, value=lambda x: 0.0, grad=lambda x: nan, hess=lambda x: np.diag(nan))
    report = hand_report(TerminationKind.OPTIMAL_MEASURE, [0.0, 0.0], 1.0, orders)
    assert exit_violations(report, problem) == [
        f"optimal_measure: exact order-{orders.q} measure at radius 1 is nan times its bound"
    ]


def test_solve_exits_1_through_the_audit(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(cli._ORACLES, "exact", lambda cfg, problem, *_: UnderReporting(problem))
    out = tmp_path / "o"
    assert cli.main(["solve", "--problem", "quadratic", "--eps", "1e-3", "--out", str(out)]) == cli.EXIT_VIOLATION
    err = capsys.readouterr().err
    assert "BOUND VIOLATION: " in err and "exact order-1 measure at radius 1" in err
    # the summary keeps its meaning: the trace checks alone
    assert json.loads((out / "summary.json").read_text())["bounds_ok"] is True


def test_scaling_reports_a_failed_audit(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(cli._ORACLES, "exact", lambda cfg, problem, *_: UnderReporting(problem))
    args = ["scaling", "--problem", "quadratic", "--eps-grid", "1e-2:1e-3:2", "--out", str(tmp_path)]
    assert cli.main(args) == cli.EXIT_VIOLATION
    assert "BOUND VIOLATION: eps=0.01: optimal_measure: exact order-1" in capsys.readouterr().err
