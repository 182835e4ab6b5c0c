"""Span tracing for the per-layer run, hooked in from outside the package.

Every hook replaces a module attribute that the solver looks up at call
time, so the package itself is unchanged:

- ``_kernels.value_sum/grad_sum/hess_sum`` (called through the module by
  the oracles and by the sigmoid problem);
- ``Oracle.request_function`` and ``Oracle.request_derivatives``;
- the ``subsolvers`` globals ``cubic_min``, ``trust_region_min``,
  ``optimality_measure`` and ``model_taylor_derivs``;
- the names ``driver`` imports directly: ``optimality_measure``,
  ``model_descent_step`` and ``certify_increment``;
- ``numpy.linalg.eigh`` and ``eigvalsh``, named after the layer of the
  span that encloses each call (``subsolvers.eigh``, ``oracles.eigvalsh``);
- the ``Problem`` callables, replaced per problem by ``wrap_problem``.

A span is (name, start, end, parent, solve id).  Spans are recorded only
while a solve is open, kept in memory, and reduced to per-layer figures by
``summarize``.  Self time is a span's duration minus the durations of its
direct children; the calls are single-threaded and nested, so the children
never overlap and the self times of all spans of a solve add up to its
``driver.run`` span.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from dynreg import _kernels, driver, oracles, subsolvers
from dynreg.certify import CertifyFlag

# layer of each span name prefix; numpy.linalg calls get their own layer
LAYERS = ("driver", "oracles", "problems", "kernels", "subsolvers", "taylor", "certify", "linalg")
_LINALG = ("eigh", "eigvalsh")


def kernel_cost(kernel: str, m: int, n: int) -> tuple[float, float]:
    """Computed (flops, bytes) of one kernel call over m rows of width n.

    Flops: 2mn per matrix-vector product over the gathered rows (one for
    ``value_sum``, two for ``grad_sum``, one plus 3mn^2 for the weighted
    outer-product sum of ``hess_sum``) and 10m for the elementwise sigmoid
    terms.  Bytes: compulsory traffic only, the m gathered rows, their
    indices and labels, and the output; cache misses are not counted.
    """
    dense = {"value_sum": 2.0 * m * n, "grad_sum": 4.0 * m * n, "hess_sum": 2.0 * m * n + 3.0 * m * n * n}
    out = {"value_sum": 1, "grad_sum": n, "hess_sum": n * n}
    return dense[kernel] + 10.0 * m, 8.0 * (m * n + 2 * m + out[kernel])


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.solve_id: int | None = None
        self.counts: Counter = Counter()
        self.kkt_max = 0.0
        self._restore: list = []

    # -- span recording -----------------------------------------------------
    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.solve_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def solve(self, solve_id: int):
        """Open the ``driver.run`` span of one solve."""
        self.solve_id = solve_id
        idx = self._open("driver.run")
        try:
            yield
        finally:
            self._close(idx)
            self.solve_id = None

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(result, *args)`` updates counts."""

        def traced(*args, **kwargs):
            if self.solve_id is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def _wrap_linalg(self, fname, fn):
        def traced(*args, **kwargs):
            if self.solve_id is None:
                return fn(*args, **kwargs)
            parent = self.spans[self._stack[-1]][0].split(".")[0]
            idx = self._open(f"{parent}.{fname}")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # -- count hooks ----------------------------------------------------------
    def _kernel_after(self, kernel):
        def after(result, feats, labels, x, idx):
            m, n = idx.shape[0], feats.shape[1]
            flops, nbytes = kernel_cost(kernel, m, n)
            self.counts[f"kernels.{kernel}.rows"] += m
            self.counts["kernels.rows"] += m
            if m == feats.shape[0]:
                self.counts["kernels.full_rows"] += m
            self.counts["kernels.flops"] += flops
            self.counts["kernels.bytes"] += nbytes

        return after

    def _subsolver_after(self, result, *args, **kwargs):
        self.counts["subsolvers.secular_iters"] += result.iterations
        self.counts["subsolvers.hard_cases"] += int(result.hard_case)
        self.kkt_max = max(self.kkt_max, result.kkt_residual)

    def _certify_after(self, flag, *args, **kwargs):
        self.counts[f"certify.flag.{CertifyFlag(flag).name}"] += 1

    def _request_derivatives(self, fn):
        def hooked(oracle, x, eps, upto):
            before = sum(oracle.counters.deriv_evals.values())
            bundle = fn(oracle, x, eps, upto)
            computed = sum(oracle.counters.deriv_evals.values()) - before
            self.counts["oracles.deriv_requests"] += upto
            self.counts["oracles.deriv_hits"] += upto - computed
            return bundle

        return hooked

    def _request_function(self, fn):
        def hooked(oracle, x, eps0):
            before = oracle.counters.fun_evals
            value = fn(oracle, x, eps0)
            self.counts["oracles.fun_requests"] += 1
            self.counts["oracles.fun_hits"] += int(oracle.counters.fun_evals == before)
            return value

        return hooked

    # -- installing the hooks -------------------------------------------------
    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for kernel in ("value_sum", "grad_sum", "hess_sum"):
            fn = getattr(_kernels, kernel)
            self._patch(_kernels, kernel, self.wrap(f"kernels.{kernel}", fn, self._kernel_after(kernel)))
        Oracle = oracles.Oracle
        self._patch(
            Oracle,
            "request_derivatives",
            self.wrap("oracles.request_derivatives", self._request_derivatives(Oracle.request_derivatives)),
        )
        self._patch(
            Oracle,
            "request_function",
            self.wrap("oracles.request_function", self._request_function(Oracle.request_function)),
        )
        measure = self.wrap("subsolvers.optimality_measure", subsolvers.optimality_measure)
        self._patch(subsolvers, "optimality_measure", measure)
        self._patch(driver, "optimality_measure", measure)
        for name in ("cubic_min", "trust_region_min"):
            fn = getattr(subsolvers, name)
            self._patch(subsolvers, name, self.wrap(f"subsolvers.{name}", fn, self._subsolver_after))
        self._patch(
            subsolvers, "model_taylor_derivs", self.wrap("taylor.model_taylor_derivs", subsolvers.model_taylor_derivs)
        )
        step = self.wrap("subsolvers.model_descent_step", driver.model_descent_step)
        self._patch(driver, "model_descent_step", step)
        cascade = self.wrap("certify.certify_increment", driver.certify_increment, self._certify_after)
        self._patch(driver, "certify_increment", cascade)
        for fname in _LINALG:
            self._patch(np.linalg, fname, self._wrap_linalg(fname, getattr(np.linalg, fname)))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def wrap_problem(self, problem):
        """The problem with its value/grad/hess callables recorded as spans."""
        return dataclasses.replace(
            problem,
            value=self.wrap("problems.value", problem.value),
            grad=self.wrap("problems.grad", problem.grad),
            hess=self.wrap("problems.hess", problem.hess),
        )

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self.kkt_max = 0.0

    # -- reduction --------------------------------------------------------------
    def summarize(self) -> dict:
        """Per-name calls, busy and self seconds, and per-layer self seconds."""
        busy = [end - start for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                child[span[3]] += busy[i]
        calls: Counter = Counter()
        busy_s: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i, span in enumerate(self.spans):
            name = span[0]
            calls[name] += 1
            busy_s[name] += busy[i]
            self_s[name] += busy[i] - child[i]
            fname = name.split(".")[-1]
            layer = "linalg" if fname in _LINALG else name.split(".")[0]
            layer_self[layer] += busy[i] - child[i]
        return {"calls": calls, "busy_s": busy_s, "self_s": self_s, "layer_self_s": layer_self}

    def write(self, path):
        """One JSON array per span: name, start, end, parent index, solve id."""
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, summary: dict, iterations: int, shrinks: int) -> dict:
    """Per-layer metric values of one traced pass."""
    calls, busy, own = summary["calls"], summary["busy_s"], summary["self_s"]
    c = tracer.counts
    out = {}
    for kernel in ("value_sum", "grad_sum", "hess_sum"):
        name = f"kernels.{kernel}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.rows"] = c[f"{name}.rows"]
    out["kernels.full_batch_row_frac"] = c["kernels.full_rows"] / c["kernels.rows"] if c["kernels.rows"] else 0.0
    out["kernels.flops"] = c["kernels.flops"]
    out["kernels.bytes"] = c["kernels.bytes"]
    for fn in ("value", "grad", "hess"):
        out[f"problems.{fn}.calls"] = calls[f"problems.{fn}"]
        out[f"problems.{fn}.busy_s"] = busy[f"problems.{fn}"]
    for fn in ("request_derivatives", "request_function"):
        name = f"oracles.{fn}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.self_s"] = own[name]
    out["oracles.deriv_cache_hit_frac"] = _frac(c["oracles.deriv_hits"], c["oracles.deriv_requests"])
    out["oracles.fun_cache_hit_frac"] = _frac(c["oracles.fun_hits"], c["oracles.fun_requests"])
    out["oracles.eigvalsh.calls"] = calls["oracles.eigvalsh"]
    out["oracles.eigvalsh.busy_s"] = busy["oracles.eigvalsh"]
    for fn in ("model_descent_step", "optimality_measure", "cubic_min", "trust_region_min"):
        name = f"subsolvers.{fn}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.self_s"] = own[name]
    out["subsolvers.eigh.calls"] = calls["subsolvers.eigh"]
    out["subsolvers.eigh.busy_s"] = busy["subsolvers.eigh"]
    out["subsolvers.secular_iters"] = c["subsolvers.secular_iters"]
    out["subsolvers.hard_cases"] = c["subsolvers.hard_cases"]
    out["subsolvers.kkt_residual_max"] = tracer.kkt_max
    out["taylor.model_taylor_derivs.calls"] = calls["taylor.model_taylor_derivs"]
    out["taylor.model_taylor_derivs.busy_s"] = busy["taylor.model_taylor_derivs"]
    attempts = calls["certify.certify_increment"]
    out["certify.certify_increment.calls"] = attempts
    out["certify.certify_increment.busy_s"] = busy["certify.certify_increment"]
    for flag in CertifyFlag:
        out[f"certify.flag.{flag.name}"] = c[f"certify.flag.{flag.name}"]
    out["certify.certified_frac"] = _frac(attempts - c["certify.flag.NOT_CERTIFIED"], attempts)
    out["driver.run.busy_s"] = busy["driver.run"]
    out["driver.run.self_s"] = own["driver.run"]
    out["driver.self_us_per_iter"] = 1e6 * own["driver.run"] / iterations if iterations else 0.0
    out["driver.shrinks"] = shrinks
    for layer, seconds in summary["layer_self_s"].items():
        out[f"layers.{layer}.self_s"] = seconds
    return out


def _frac(num, den) -> float:
    return num / den if den else 0.0


def layer_split_ok(metrics: dict) -> bool:
    """The per-layer self times add up to the traced ``driver.run`` time."""
    total = sum(metrics[f"layers.{layer}.self_s"] for layer in LAYERS)
    return math.isclose(total, metrics["driver.run.busy_s"], rel_tol=1e-9, abs_tol=1e-9)
