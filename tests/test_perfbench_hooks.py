"""Smoke test of the benchmark's tracing hooks.

``perfbench/tracing.py`` replaces module attributes that the solver looks
up at call time.  If the solver stops looking them up there, the hooks see
no calls and the per-layer metrics silently read zero; this test fails
instead.
"""

import importlib
from pathlib import Path

import pytest

from dynreg import cli, driver, subsolvers
from dynreg.bounds import ComplexityBudget
from dynreg.certify import CertifyFlag

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_hooks_see_a_shrinking_solve(tracing, monkeypatch):
    raw = {"problem": {"name": "quartic"}, "orders": {"p": 2, "q": 1}, "oracle": {"kind": "noisy"}}
    cfg = cli.RunConfig.from_dict(raw)
    params, orders = cfg.build_params(), cfg.build_orders()
    problem, dataset, x0 = cli.build_problem(cfg)
    monkeypatch.setattr(subsolvers, "_last_spectrum", None)
    tracer = tracing.Tracer()
    oracle = cli.build_oracle(cfg, tracer.wrap_problem(problem), dataset, params, orders)
    tracer.install()
    try:
        with tracer.solve(0):
            report = driver.run(oracle, x0, params, orders)
    finally:
        tracer.uninstall()
    assert report.total_shrinks > 0

    metrics = tracing.layer_metrics(tracer, tracer.summarize(), report.n_complete, report.total_shrinks)
    for name in ("certify.certify_increment", "subsolvers.model_descent_step", "subsolvers.optimality_measure"):
        assert metrics[f"{name}.calls"] > 0, name
    calls = metrics["certify.certify_increment.calls"]
    assert sum(metrics[f"certify.flag.{flag.name}"] for flag in CertifyFlag) == calls
    assert metrics["certify.flag.NOT_CERTIFIED"] == report.total_shrinks
    assert tracing.layer_split_ok(metrics)
    # one decomposition per Hessian, all inside the subsolver spans
    assert metrics["subsolvers.eigh.calls"] == report.counters.deriv_evals[2]
    assert {span[0] for span in tracer.spans if span[0].endswith(".eigh")} == {"subsolvers.eigh"}

    budget = cli.summarize(report, problem, x0)["budget"]
    assert budget is not None
    ComplexityBudget(eps=params.eps, **budget)
