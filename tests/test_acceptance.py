"""Acceptance suite: executable checks of the certification cascade, the
subsolver certificates, derivative correctness, the worst-case iteration
and evaluation budgets, the sampling rule, and reproducibility.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them on success).
"""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest

from dynreg import (
    AlgoParams,
    DerivativeBundle,
    ExactOracle,
    NoisyOracle,
    Orders,
    Schedule,
    SubsampledOracle,
    TerminationKind,
    certify_increment,
    chi,
    complexity_budget,
    cubic_min,
    failure_probability,
    make_quadratic,
    make_quartic,
    make_rosenbrock,
    make_sigmoid_problem,
    make_synthetic_dataset,
    model_taylor_derivs,
    model_value,
    run,
    sampling_failures,
    sigmoid_ls_derivs,
    trust_region_min,
)
from dynreg.checks import budget_violations, counting_violations, shrink_violations
from dynreg.cli import main as cli_main


def report_line(cid: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{cid} failed: {detail}"


def unit_ball_sample(rng, count, n, radius):
    v = rng.standard_normal((count, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = radius * rng.random(count) ** (1.0 / n)
    return v * r[:, None]


# ---------------------------------------------------------------------------
# criterion 1: certification soundness
# ---------------------------------------------------------------------------


def test_c1_certification_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    flags_seen = Counter()
    violations = 0
    for i in range(1000):
        r = 1 + (i % 2)
        n = int(rng.integers(2, 6))
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        zetas = [float(10.0 ** rng.uniform(-6.0, 0.0)) for _ in range(r)]

        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        e1 = zetas[0] * u
        e2 = None
        if r == 2:
            m = rng.standard_normal((n, n))
            m = 0.5 * (m + m.T)
            m /= np.max(np.abs(np.linalg.eigvalsh(m)))
            e2 = zetas[1] * m

        if i % 10 == 0:
            # exact zero increment: the inexact tensors vanish identically
            gbar = np.zeros(n)
            hbar = np.zeros((n, n)) if r == 2 else None
        else:
            gbar = rng.standard_normal(n) * scale
            hbar = None
            if r == 2:
                hbar = rng.standard_normal((n, n)) * scale
                hbar = 0.5 * (hbar + hbar.T)
        g = gbar - e1
        h = (hbar - e2) if r == 2 else None

        delta = float(rng.uniform(0.05, 1.0))
        omega = float(rng.uniform(0.05, 0.95))
        xi = float(max(zetas) * 10.0 ** rng.uniform(-2.0, 2.0))

        def incr(points, gv, hv):
            out = -points @ gv
            if r == 2:
                out = out - 0.5 * np.einsum("ij,jk,ik->i", points, hv, points)
            return out

        v_omega = unit_ball_sample(rng, 1, n, delta)
        inc = float(incr(v_omega, gbar, hbar)[0])
        if inc < 0.0:
            gbar, g, e1 = -gbar, -g, -e1
            if r == 2:
                hbar, h, e2 = -hbar, -h, -e2
            inc = -inc
        flag = certify_increment(delta, inc, zetas, omega, xi)
        flags_seen[int(flag)] += 1

        if max(zetas) <= xi and int(flag) == 0:
            violations += 1
            continue
        if int(flag) == 0:
            continue

        vs = unit_ball_sample(rng, 1000, n, delta if int(flag) != 1 else 2.0)
        errs = np.abs(incr(vs, gbar, hbar) - incr(vs, g, h))
        norms = np.linalg.norm(vs, axis=1)
        slack = 1e-9
        if int(flag) == 1:
            bounds = xi * np.array([chi(r, t) for t in norms])
            ok = np.all(errs <= bounds * (1 + slack) + 1e-15)
        elif int(flag) == 2:
            ok = np.all(errs <= omega * inc * (1 + slack) + 1e-15)
        else:
            cap = xi / omega * chi(r, delta)
            ok = inc <= cap * (1 + slack) and np.all(errs <= cap * (1 + slack) + 1e-15)
        if not ok:
            violations += 1
    elapsed = time.perf_counter() - t0
    coverage = all(flags_seen[f] >= 20 for f in (0, 1, 2, 3))
    report_line(
        "C1",
        violations == 0 and coverage and elapsed < 30.0,
        f"violations={violations} flags={dict(sorted(flags_seen.items()))} time={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: subsolver certificates
# ---------------------------------------------------------------------------


def test_c2_subsolver_certificates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    bad = []

    for i in range(500):
        n = int(rng.integers(2, 11))
        H = rng.standard_normal((n, n)) * float(rng.uniform(0.2, 4.0))
        H = 0.5 * (H + H.T)
        g = rng.standard_normal(n) * float(rng.uniform(0.0, 3.0))
        if i % 4 == 0:
            w, Q = np.linalg.eigh(H)
            g = g - Q[:, 0] * float(Q[:, 0] @ g)
        delta = float(rng.uniform(0.1, 2.0))
        sol = trust_region_min(g, H, delta)
        nd = float(np.linalg.norm(sol.d))
        if not (
            nd <= delta + 1e-10
            and sol.kkt_residual <= 1e-8
            and sol.lam * (delta - nd) <= 1e-8
            and np.linalg.eigvalsh(H + sol.lam * np.eye(n))[0] >= -1e-10
        ):
            bad.append(f"tr {i}")

    for i in range(500):
        n = int(rng.integers(2, 11))
        H = rng.standard_normal((n, n)) * float(rng.uniform(0.2, 4.0))
        H = 0.5 * (H + H.T)
        g = rng.standard_normal(n) * float(rng.uniform(0.0, 3.0))
        if i % 4 == 0:
            w, Q = np.linalg.eigh(H)
            g = g - Q[:, 0] * float(Q[:, 0] @ g)
        sigma = float(rng.uniform(0.2, 8.0))
        sol = cubic_min(g, H, sigma)
        ns = float(np.linalg.norm(sol.d))
        if not (
            sol.kkt_residual <= 1e-8
            and abs(sol.lam - 0.5 * sigma * ns) <= 1e-8 * max(1.0, sol.lam)
            and np.linalg.eigvalsh(H + sol.lam * np.eye(n))[0] >= -1e-10
        ):
            bad.append(f"cubic {i}")

    # 100 two-dimensional instances against a 400 x 400 grid oracle
    lin = np.linspace(-1.0, 1.0, 400)
    X, Y = np.meshgrid(lin, lin, indexing="ij")
    P_unit = np.stack([X.ravel(), Y.ravel()], axis=1)
    for i in range(100):
        H = rng.standard_normal((2, 2)) * 2.0
        H = 0.5 * (H + H.T)
        g = rng.standard_normal(2)
        if i < 50:
            delta = float(rng.uniform(0.2, 1.5))
            sol = trust_region_min(g, H, delta)
            P = P_unit * delta
            mask = np.sum(P * P, axis=1) <= delta * delta
            vals = P[mask] @ g + 0.5 * np.einsum("ij,jk,ik->i", P[mask], H, P[mask])
            if sol.value > float(np.min(vals)) + 1e-6:
                bad.append(f"tr-grid {i}")
        else:
            sigma = float(rng.uniform(0.5, 5.0))
            sol = cubic_min(g, H, sigma)
            radius = max(1.0, 2.0 * float(np.linalg.norm(sol.d)))
            P = P_unit * radius
            norms = np.sqrt(np.sum(P * P, axis=1))
            vals = P @ g + 0.5 * np.einsum("ij,jk,ik->i", P, H, P) + sigma / 6.0 * norms**3
            if sol.value > float(np.min(vals)) + 1e-6:
                bad.append(f"cubic-grid {i}")

    elapsed = time.perf_counter() - t0
    report_line("C2", not bad and elapsed < 60.0, f"violations={bad[:3]} time={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: derivative correctness
# ---------------------------------------------------------------------------


def _fd_gradient(f, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h * (1.0 + abs(x[i]))
        g[i] = (f(x + e) - f(x - e)) / (2 * e[i])
    return g


def _fd_jacobian(grad, x, h=1e-5):
    n = x.size
    J = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h * (1.0 + abs(x[i]))
        J[:, i] = (grad(x + e) - grad(x - e)) / (2 * e[i])
    return 0.5 * (J + J.T)


def test_c3_derivative_correctness():
    rng = np.random.default_rng(31)
    worst = 0.0

    problems = [
        make_quadratic(np.array([1.0, 2.0, 0.5])),
        make_rosenbrock(),
        make_quartic(3),
        make_sigmoid_problem(make_synthetic_dataset(300, 5, seed=6)),
    ]
    for prob in problems:
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5, prob.n)
            worst = max(worst, float(np.max(np.abs(prob.grad(x) - _fd_gradient(prob.value, x)))))
            worst = max(worst, float(np.max(np.abs(prob.hess(x) - _fd_jacobian(prob.grad, x)))))

    ds = make_synthetic_dataset(120, 4, seed=9)
    for _ in range(100):
        i = int(rng.integers(0, ds.size))
        x = rng.uniform(-1.5, 1.5, 4)
        a, b = ds.features[i], ds.labels[i]
        _, g, h = sigmoid_ls_derivs(a, b, x)
        worst = max(
            worst,
            float(np.max(np.abs(g - _fd_gradient(lambda z: sigmoid_ls_derivs(a, b, z)[0], x)))),
        )
        worst = max(
            worst,
            float(np.max(np.abs(h - _fd_jacobian(lambda z: sigmoid_ls_derivs(a, b, z)[1], x)))),
        )

    orders = Orders(p=2, q=1)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        g = rng.standard_normal(n)
        h = rng.standard_normal((n, n))
        h = 0.5 * (h + h.T)
        bun = DerivativeBundle(origin=np.zeros(n), value=float(rng.standard_normal()), grad=g, hess=h)
        s = rng.standard_normal(n)
        s *= rng.uniform(0.3, 1.5) / np.linalg.norm(s)
        sigma = float(rng.uniform(0.2, 5.0))
        out = model_taylor_derivs(bun, s, sigma)
        grad_fd = _fd_gradient(lambda z: model_value(bun, z, sigma, orders), s)
        jac_fd = _fd_jacobian(lambda z: model_taylor_derivs(bun, z, sigma).grad, s)
        worst = max(worst, float(np.max(np.abs(out.grad - grad_fd))))
        worst = max(worst, float(np.max(np.abs(out.hess - jac_fd))))

    report_line("C3", worst <= 1e-6, f"worst deviation={worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: exact-oracle solves
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def exact_solves():
    t0 = time.perf_counter()
    ros = make_rosenbrock()
    x0 = np.array([-1.2, 1.0])
    first = run(ExactOracle(ros), x0, AlgoParams(eps=1e-5), Orders(p=1, q=1))
    second = run(ExactOracle(ros), x0, AlgoParams(eps=1e-5), Orders(p=2, q=1))
    quad = make_quadratic(np.array([1.0]))
    hand = run(ExactOracle(quad), np.array([1.0]), AlgoParams(eps=1e-3), Orders(p=1, q=1))
    elapsed = time.perf_counter() - t0
    return ros, first, second, hand, elapsed


def test_c4_exact_oracle_solves(exact_solves):
    ros, first, second, hand, elapsed = exact_solves
    g1 = float(np.linalg.norm(ros.grad(first.x_final)))
    g2 = float(np.linalg.norm(ros.grad(second.x_final)))
    ok = (
        first.status.kind is not TerminationKind.BUDGET
        and second.status.kind is not TerminationKind.BUDGET
        and g1 <= 1e-5
        and g2 <= 1e-5
        and hand.n_successful == 1
        and hand.trace[0].rho == 0.5
        and elapsed < 5.0
    )
    report_line(
        "C4",
        ok,
        f"deg1 grad={g1:.2e} ({first.n_complete} iters), deg2 grad={g2:.2e} "
        f"({second.n_complete} iters), hand rho={hand.trace[0].rho}, time={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criteria 5 and 6: theorem bounds and counting over a run battery
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bound_battery():
    quadratic = make_quadratic(np.array([1.0, 2.0]))
    quartic = make_quartic(2, box_radius=3.0)
    starts = {"quadratic": np.ones(2), "quartic": np.array([0.9, -0.8])}
    runs = []
    for prob in (quadratic, quartic):
        for orders in (Orders(p=1, q=1), Orders(p=2, q=1)):
            for schedule in (Schedule.FLEXIBLE, Schedule.MONOTONIC):
                for oracle_kind in ("exact", "noisy"):
                    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
                        params = AlgoParams(eps=eps, schedule=schedule)
                        if oracle_kind == "exact":
                            oracle = ExactOracle(prob)
                        else:
                            oracle = NoisyOracle(prob, 0.9, seed=51)
                        x0 = starts[prob.name]
                        rep = run(oracle, x0, params, orders)
                        budget = complexity_budget(
                            prob.lipschitz[orders.p], float(prob.value(x0)), prob.f_low, params, orders
                        )
                        label = f"{prob.name}/p{orders.p}/{schedule.value}/{oracle_kind}/eps={eps:g}"
                        runs.append((label, prob, rep, budget))
    return runs


def test_c5_theorem_bounds(bound_battery):
    failures = []
    for label, prob, rep, budget in bound_battery:
        if rep.status.kind is TerminationKind.BUDGET:
            failures.append(f"{label}: budget exhausted")
            continue
        for v in budget_violations(rep, budget):
            failures.append(f"{label}: {v}")
        # step-norm lower bound on every iteration whose successor ran
        floor = budget.kappa_s * rep.params.eps ** (1.0 / rep.orders.gap)
        complete = [r for r in rep.trace if r.rho is not None]
        for rec in complete[:-1]:
            if rec.step_norm < floor:
                failures.append(f"{label}: step {rec.step_norm:.3e} below kappa_s floor {floor:.3e}")
        if prob.name == "quartic":
            # the recorded Hölder constants are box constants; the iterates
            # must stay inside the box for the bound check to be honest
            worst = max(r.x_inf for r in rep.trace)
            if worst > 3.0:
                failures.append(f"{label}: left the quartic box ({worst:.2f})")
    report_line("C5", not failures, f"runs={len(bound_battery)} violations={failures[:3]}")


def test_c6_counting_inequalities(bound_battery, exact_solves):
    failures = []
    reports = [(label, rep, budget) for label, _, rep, budget in bound_battery]
    _, first, second, hand, _ = exact_solves
    reports += [("rosenbrock/p1", first, None), ("rosenbrock/p2", second, None), ("hand", hand, None)]
    for label, rep, budget in reports:
        for v in counting_violations(rep):
            failures.append(f"{label}: {v}")
        if budget is not None:
            for v in shrink_violations(rep, budget.omega_min):
                failures.append(f"{label}: {v}")
        for rec in rep.trace:
            assert rec.shrinks == sum(flag == 0 for _, flag in rec.flags)
            per_order = dict(rec.deriv_evals)
            if any(c > 1 + rec.shrinks for c in per_order.values()):
                failures.append(f"{label}: iteration {rec.k} recomputed beyond 1+shrinks")
    report_line("C6", not failures, f"reports={len(reports)} violations={failures[:3]}")


# ---------------------------------------------------------------------------
# criterion 7: sampling validation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def big_dataset():
    return make_synthetic_dataset(10_000, 20, seed=2024)


def test_c7_sampling_validation(big_dataset):
    t0 = time.perf_counter()
    ds = big_dataset
    t = 0.05
    trials = 2000
    threshold = t + 3.0 * math.sqrt(t * (1.0 - t) / trials)
    x = np.zeros(ds.dim)
    rates = {}
    ok = True
    for j in (0, 1, 2):
        eps_j = 0.1 * ds.kappa_bounds[j]
        _, failures = sampling_failures(ds, x, j, eps_j, t, trials, np.random.default_rng([99, j]))
        rates[j] = failures / trials
        ok = ok and rates[j] <= threshold
    elapsed = time.perf_counter() - t0
    report_line(
        "C7",
        ok and elapsed < 120.0,
        f"rates={rates} threshold={threshold:.4f} time={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 8: stochastic end-to-end
# ---------------------------------------------------------------------------


def test_c8_stochastic_end_to_end(big_dataset):
    t0 = time.perf_counter()
    ds = big_dataset
    prob = make_sigmoid_problem(ds)
    orders = Orders(p=2, q=1)
    eps = 1e-2
    t = failure_probability(eps, orders, t_bar=0.1)
    hits = 0
    for seed in range(20):
        oracle = SubsampledOracle(ds, t=t, seed=seed)
        rep = run(oracle, np.zeros(ds.dim), AlgoParams(eps=eps), orders)
        if rep.status.kind is TerminationKind.BUDGET:
            continue
        if float(np.linalg.norm(prob.grad(rep.x_final))) <= eps:
            hits += 1
    elapsed = time.perf_counter() - t0
    report_line(
        "C8",
        hits >= 18 and elapsed < 600.0,
        f"hits={hits}/20 t={t:.2e} time={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 9: determinism
# ---------------------------------------------------------------------------


def test_c9_determinism(tmp_path, big_dataset):
    configs = {
        "noisy": {
            "problem": {"name": "quadratic", "diag": [1.0, 2.0]},
            "oracle": {"kind": "noisy", "noise_fraction": 0.9},
            "algo": {"eps": 1e-4},
            "seed": 3,
        },
        "subsampled": {
            "problem": {"name": "sigmoid-synthetic", "N": 2000, "n": 8, "data_seed": 5},
            "orders": {"p": 2, "q": 1, "beta": 1.0},
            "oracle": {"kind": "subsampled", "t": 1e-3},
            "algo": {"eps": 2e-2},
            "seed": 4,
        },
    }
    ok = True
    details = []
    for name, payload in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(payload))
        blobs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            code = cli_main(["solve", "--config", str(cfg_path), "--out", str(out)])
            blobs.append(
                (out / "trace.jsonl").read_bytes() + (out / "summary.json").read_bytes()
            )
            if code != 0:
                ok = False
                details.append(f"{name}: exit {code}")
        if blobs[0] != blobs[1]:
            ok = False
            details.append(f"{name}: outputs differ")
    report_line("C9", ok, "; ".join(details) if details else "byte-identical reruns")
