import csv
import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynreg import AlgoParams, Orders, cli, failure_probability
from dynreg.cli import (
    EXIT_ABORTED,
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VIOLATION,
    ConfigError,
    RunConfig,
    main,
    parse_eps_grid,
)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


HAND_TRACE = {
    "problem": {"name": "quadratic", "diag": [1.0], "x0": [1.0]},
    "orders": {"p": 1, "q": 1, "beta": 1.0},
    "oracle": {"kind": "exact"},
    "algo": {"eps": 1e-3},
    "seed": 0,
}


REALS = st.floats(-1e6, 1e6, allow_nan=False)
POSITIVE = st.floats(1e-6, 1e6)
UNIT = st.floats(1e-6, 0.999)
VECTOR = st.lists(REALS, min_size=1, max_size=4)


def _section(required, optional):
    return st.fixed_dictionaries(required, optional=optional)


@st.composite
def _oracle_section(draw):
    # t lies in (0, t_bar], and t_bar is 0.1 when absent
    kinds = {"kind": st.sampled_from(["exact", "noisy", "subsampled"])}
    section = draw(_section(kinds, {"noise_fraction": st.floats(0.0, 1.0), "t_bar": UNIT}))
    if draw(st.booleans()):
        section["t"] = draw(st.floats(1e-6, 1.0)) * section.get("t_bar", 0.1)
    return section


VALID_CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        "problem": st.one_of(
            _section({"name": st.just("quadratic")}, {"diag": st.lists(POSITIVE, min_size=1, max_size=4), "x0": VECTOR}),
            _section({"name": st.just("quartic")}, {"n": st.integers(1, 50), "box_radius": POSITIVE, "x0": VECTOR}),
            _section({"name": st.just("rosenbrock")}, {"x0": VECTOR}),
            _section(
                {"name": st.just("sigmoid-synthetic")},
                {"N": st.integers(1, 10**6), "n": st.integers(1, 100), "data_seed": st.integers(0, 2**32), "x0": VECTOR},
            ),
            _section({"name": st.just("sigmoid-file"), "path": st.text(min_size=1, max_size=20)}, {"x0": VECTOR}),
        ),
        "orders": st.sampled_from([(1, 1), (2, 1), (2, 2)]).flatmap(
            lambda pq: _section({"p": st.just(pq[0]), "q": st.just(pq[1])}, {"beta": st.just(1.0)})
        ),
        "oracle": _oracle_section(),
        "algo": _section(
            {},
            {
                "eps": UNIT,
                "gamma_eps": UNIT,
                "kappa_eps": POSITIVE,
                "theta": POSITIVE,
                "max_iter": st.integers(1, 10**6),
                "schedule": st.sampled_from(["flexible", "monotonic"]),
            },
        ),
        "seed": st.integers(0, 2**63),
    },
)


class TestConfig:
    def test_round_trip(self):
        cfg = RunConfig.from_dict(HAND_TRACE)
        again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(raw=VALID_CONFIGS)
    def test_round_trip_generated(self, raw):
        cfg = RunConfig.from_dict(raw)
        again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg
        assert again.build_orders() == cfg.build_orders()
        assert again.build_params() == cfg.build_params()

    @pytest.mark.parametrize(
        "payload",
        [
            {"unknown": 1},
            {"problem": {"name": "quadratic", "bogus": 1}},
            {"problem": {"name": "nope"}},
            {"oracle": {"kind": "exact", "bogus": 1}},
            {"oracle": {"kind": "psychic"}},
            {"algo": {"bogus": 1}},
            {"orders": {"p": 1, "bogus": 2}},
        ],
    )
    def test_unknown_keys_rejected(self, payload):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(payload)

    @pytest.mark.parametrize(
        "oracle",
        [
            {"kind": "subsampled", "t_bar": 0.0},
            {"kind": "subsampled", "t_bar": 0.1, "t": 0.2},
            {"kind": "subsampled", "t_bar": 1.5},
        ],
        ids=["t_bar_zero", "t_above_t_bar", "t_bar_above_one"],
    )
    def test_failure_probability_ranges(self, oracle):
        # 0 < t_bar < 1 and 0 < t <= t_bar are checked at config load,
        # before the problem is built
        with pytest.raises(ConfigError, match="must lie in"):
            RunConfig.from_dict({"oracle": oracle})

    @pytest.mark.parametrize("kind", ["exact", "noisy", "subsampled"])
    @pytest.mark.parametrize("noise_fraction", [-0.1, 1.5])
    def test_noise_fraction_range(self, kind, noise_fraction):
        # 0 <= noise_fraction <= 1 is checked at config load for every
        # oracle kind, before the problem is built
        with pytest.raises(ConfigError, match=r"noise_fraction must lie in \[0, 1\]"):
            RunConfig.from_dict({"oracle": {"kind": kind, "noise_fraction": noise_fraction}})

    def test_eps_grid_parsing(self):
        grid = parse_eps_grid("1e-1:1e-3:3")
        assert grid == pytest.approx([1e-1, 1e-2, 1e-3])
        # eps must lie in (0, 1), so the grid's endpoints must too
        for text in ("1e-1:1e-3", "1e-3:2:3", "1:1e-3:3"):
            with pytest.raises(ConfigError):
                parse_eps_grid(text)


class TestSolve:
    def test_hand_trace_summary(self, tmp_path):
        cfg = write_config(tmp_path, HAND_TRACE)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["totals"]["successful"] == 1
        assert summary["totals"]["iterations"] == 1
        assert summary["status"] == "negligible_increment"
        assert summary["bounds_ok"] is True
        lines = (out / "trace.jsonl").read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["schema_version"] == 2
        assert first["rho"] == 0.5

    def test_trace_schema_fields(self, tmp_path):
        cfg = write_config(tmp_path, HAND_TRACE)
        out = tmp_path / "out"
        main(["solve", "--config", str(cfg), "--out", str(out)])
        record = json.loads((out / "trace.jsonl").read_text().splitlines()[0])
        assert set(record) == {
            "schema_version",
            "k",
            "sigma",
            "omega",
            "rho",
            "step_norm",
            "success",
            "eps",
            "shrinks",
            "flags",
            "fun_evals",
            "deriv_evals",
            "component_evals",
            "extras",
            "x_inf",
        }

    def test_summary_schema_fields(self, tmp_path):
        cfg = write_config(tmp_path, HAND_TRACE)
        out = tmp_path / "out"
        main(["solve", "--config", str(cfg), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {
            "schema_version",
            "status",
            "k_final",
            "delta_at_exit",
            "phi_at_exit",
            "x_final",
            "totals",
            "budget",
            "bounds_ok",
        }
        assert set(summary["totals"]) == {
            "iterations",
            "successful",
            "shrinks",
            "fun_evals",
            "deriv_evals",
            "component_evals",
            "sigma_max_observed",
        }

    def test_byte_identical_reruns(self, tmp_path):
        cfg_payload = {
            "problem": {"name": "quadratic", "diag": [1.0, 2.0]},
            "oracle": {"kind": "noisy", "noise_fraction": 0.9},
            "algo": {"eps": 1e-3},
            "seed": 42,
        }
        cfg = write_config(tmp_path, cfg_payload)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            outs.append(out)
        assert (outs[0] / "trace.jsonl").read_bytes() == (outs[1] / "trace.jsonl").read_bytes()
        assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()

    def test_budget_exit_code(self, tmp_path):
        payload = {
            "problem": {"name": "rosenbrock"},
            "algo": {"eps": 1e-8, "max_iter": 2},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_BUDGET

    def test_bound_violation_exit_code(self, tmp_path, monkeypatch, capsys):
        # a failed trace check fails the solve, not only its summary
        monkeypatch.setattr(cli.checks, "all_violations", lambda report, budget=None: ["forced"])
        out = tmp_path / "o"
        assert main(["solve", "--problem", "quartic", "--p", "2", "--out", str(out)]) == EXIT_VIOLATION
        assert "BOUND VIOLATION: forced" in capsys.readouterr().err.splitlines()
        assert json.loads((out / "summary.json").read_text())["bounds_ok"] is False

    def test_budget_beyond_float_range_is_null(self, tmp_path):
        # the Hessian constant 6 * 1e308 overflows: the run stands, its
        # budget bounds nothing
        payload = {"problem": {"name": "quartic", "box_radius": 1e308}, "orders": {"p": 2, "q": 2}}
        cfg = write_config(tmp_path, payload)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["budget"] is None and summary["bounds_ok"] is None

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_aborted_run_exit_code(self, tmp_path):
        # the gradient overflows at the start point: the run aborts, and the
        # partial trace and a summary with the reason are still written
        payload = {"problem": {"name": "rosenbrock", "x0": [1e200, 1.0]}, "orders": {"p": 2, "q": 1}}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_ABORTED
        assert EXIT_ABORTED not in (EXIT_OK, EXIT_VIOLATION, EXIT_CONFIG, EXIT_BUDGET)
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"schema_version", "status", "reason", "totals"}
        assert set(summary["totals"]) == {"iterations", "fun_evals", "deriv_evals", "component_evals"}
        assert summary["status"] == "aborted"
        assert "non-finite" in summary["reason"]
        assert summary["totals"]["deriv_evals"] == {"1": 1}
        assert (out / "trace.jsonl").read_text() == ""

    def test_overflowed_step_exit_code(self, tmp_path):
        # the p = 1 step length (||g|| / sigma)^(1/beta) overflows a Python
        # float: the run aborts with exit 4, not a traceback and exit 1
        payload = {
            "problem": {"name": "quadratic", "diag": [1.0], "x0": [1e31]},
            "orders": {"p": 1, "q": 1, "beta": 0.1},
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_ABORTED
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "aborted"
        assert "OverflowError" in summary["reason"]
        assert summary["totals"]["deriv_evals"] == {"1": 1}
        assert (out / "trace.jsonl").read_text() == ""

    def test_aborted_run_keeps_partial_trace(self, tmp_path, monkeypatch):
        import numpy as np

        from dynreg import cli

        class LateNaN(cli.ExactOracle):
            # a gradient that turns NaN on the fifth computation
            def _compute(self, x, j, eps):
                grad, promise = super()._compute(x, j, eps)
                if j == 1 and self.counters.deriv_evals.get(1, 0) >= 4:
                    grad = np.full_like(grad, np.nan)
                return grad, promise

        monkeypatch.setattr(cli, "ExactOracle", LateNaN)
        out = tmp_path / "o"
        assert main(["solve", "--problem", "rosenbrock", "--p", "2", "--q", "1", "--out", str(out)]) == EXIT_ABORTED
        summary = json.loads((out / "summary.json").read_text())
        records = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        assert summary["status"] == "aborted"
        assert summary["totals"]["deriv_evals"]["1"] == 5
        assert len(records) == summary["totals"]["iterations"] >= 1

    def test_flag_overrides(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            [
                "solve",
                "--problem",
                "quadratic",
                "--eps",
                "1e-3",
                "--oracle",
                "noisy",
                "--noise-fraction",
                "0.5",
                "--p",
                "2",
                "--q",
                "1",
                "--schedule",
                "monotonic",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert (out / "summary.json").exists()

    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_unknown_key_exit(self, tmp_path):
        cfg = write_config(tmp_path, {"bogus": True})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG


    @pytest.mark.parametrize(
        "payload",
        [
            {"seed": None},
            {"algo": {"eps": "0.1"}},
            {"algo": {"max_iter": 1.5}},
            {"oracle": {"kind": "noisy", "noise_fraction": None}},
            {"algo": None},
            {"orders": {"p": True, "q": 1}},
            {"problem": {"name": "quartic", "n": 0}},
            {"problem": {"name": "quadratic", "diag": []}},
            {"algo": {"delta_init": 1.0}},
            [],
            5,
            None,
            {"problem": {"name": "quadratic", "x0": [None, 1.0]}},
            {"problem": {"name": "quadratic", "diag": [None, 1.0]}},
            {"problem": {"name": "rosenbrock", "x0": ["1", 1.0]}},
            {"problem": {"name": "quadratic", "diag": [True, 1.0]}},
            {"problem": {"name": "rosenbrock", "x0": [float("inf"), 1.0]}},
            {"problem": {"name": "rosenbrock", "x0": [10**400, 1.0]}},
            {"seed": -1, "oracle": {"kind": "noisy"}},
            {"algo": {"sigma0": float("inf")}},
            {"algo": {"kappa_eps": float("inf")}},
            {"algo": {"theta": float("inf")}},
            {"algo": {"sigma0": 10**400}},
            {"problem": {"name": [], "diag": [1.0]}},
            {"problem": {"name": "sigmoid-file", "path": 0.0}},
            {"oracle": {"kind": ["noisy"]}},
            {"oracle": {"kind": "noisy", "noise_fraction": 10**400}},
            {"oracle": {"kind": "subsampled", "t_bar": float("nan")}},
            {"problem": {"name": "quartic", "box_radius": float("inf")}},
            {"algo": {"sigma0": 1e16}},
            {"algo": {"sigma0": 1e-200, "sigma_min": 1e-200}},
            {"algo": {"kappa_eps": 1e160}},
            {"algo": {"kappa_omega": 1e-310}},
            {"algo": {"gamma_eps": 1.0 - 2.0**-52}},
        ],
    )
    def test_config_errors_exit_2(self, tmp_path, capsys, payload):
        # wrongly typed values, a top level that is not an object, vector
        # entries that are not finite numbers, an empty problem, the retired
        # radius knob, a negative seed and non-finite algorithm constants
        # (JSON 1e999 loads as inf), names and paths that are not strings,
        # non-finite oracle and problem numbers, and algorithm constants that
        # take the first iteration out of double precision stop at config
        # load with an error line, not a traceback
        cfg = write_config(tmp_path, payload)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()


class TestDatasetFile:
    def test_solve_from_dataset_file(self, tmp_path):
        from dynreg import make_synthetic_dataset, save_dataset

        data = tmp_path / "train.csv"
        save_dataset(make_synthetic_dataset(600, 5, seed=10), data)
        payload = {
            "problem": {"name": "sigmoid-file", "path": str(data)},
            "orders": {"p": 2, "q": 1},
            "oracle": {"kind": "subsampled", "t": 1e-3},
            "algo": {"eps": 2e-2},
            "seed": 2,
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] != "budget"
        assert summary["totals"]["component_evals"] > 0

    def test_problem_flag_keeps_the_configs_own_section(self, tmp_path):
        from dynreg import make_synthetic_dataset, save_dataset

        data = tmp_path / "train.csv"
        save_dataset(make_synthetic_dataset(200, 3, seed=10), data)
        payload = {"problem": {"name": "sigmoid-file", "path": str(data)}, "oracle": {"kind": "subsampled"}}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--problem", "sigmoid-file", "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["totals"]["component_evals"] > 0
        # another problem replaces the section, whose path it would reject
        code = main(["solve", "--config", str(cfg), "--problem", "sigmoid-synthetic", "--out", str(tmp_path / "q")])
        assert code == EXIT_OK

    @pytest.mark.parametrize("command", ["solve", "sample-check"])
    def test_missing_dataset_path_exit_2(self, tmp_path, capsys, command):
        # from a config file, and from --problem with no config file
        cfg = write_config(tmp_path, {"problem": {"name": "sigmoid-file"}, "oracle": {"kind": "subsampled"}})
        for route in (["--config", str(cfg)], ["--problem", "sigmoid-file"]):
            assert main([command, *route, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
            assert "dataset path" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_synthetic_x0_length_checked_before_the_dataset(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the dataset was built before x0 was checked")

        monkeypatch.setattr(cli, "make_synthetic_dataset", unreachable)
        payload = {"problem": {"name": "sigmoid-synthetic", "N": 500_000, "x0": [0.0, 0.0]}}
        cfg = write_config(tmp_path, payload)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "x0 must have dimension 20" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--eps", "2"], ["--p", "3"]])
    def test_sample_check_checks_algo_and_orders_before_the_dataset(self, tmp_path, capsys, monkeypatch, flags):
        def unreachable(*args, **kwargs):
            raise AssertionError("the dataset was built before algo and orders were checked")

        monkeypatch.setattr(cli, "make_synthetic_dataset", unreachable)
        args = ["sample-check", "--problem", "sigmoid-synthetic", *flags, "--out", str(tmp_path / "o")]
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    def test_missing_dataset_file(self, tmp_path):
        payload = {"problem": {"name": "sigmoid-file", "path": str(tmp_path / "nope.csv")}}
        cfg = write_config(tmp_path, payload)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG


class TestScaling:
    def test_quadratic_grid_obeys_bounds(self, tmp_path):
        payload = {
            "problem": {"name": "quadratic", "diag": [1.0, 2.0]},
            "orders": {"p": 1, "q": 1, "beta": 1.0},
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        code = main(
            ["scaling", "--config", str(cfg), "--eps-grid", "1e-1:1e-3:3", "--out", str(out)]
        )
        assert code == EXIT_OK
        with open(out / "scaling.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row in rows:
            assert int(row["successful_iters"]) <= int(row["theorem_bound_succ"])
            assert int(row["total_iters"]) <= int(row["theorem_bound_total"])

    def test_deterministic_csv(self, tmp_path):
        payload = {"problem": {"name": "quadratic", "diag": [1.0, 2.0]}}
        cfg = write_config(tmp_path, payload)
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            main(["scaling", "--config", str(cfg), "--eps-grid", "1e-1:1e-2:2", "--out", str(out)])
            blobs.append((out / "scaling.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_budget_exit_code(self, tmp_path, capsys):
        # as in solve, a grid point that exhausts its budget exits 3, and
        # every row is still written
        cfg = write_config(tmp_path, {"algo": {"max_iter": 3}})
        out = tmp_path / "o"
        code = main(["scaling", "--config", str(cfg), "--eps-grid", "1e-2:1e-3:2", "--out", str(out)])
        assert code == EXIT_BUDGET
        err = capsys.readouterr().err
        assert "eps=0.01: status=budget" in err and "eps=0.001: status=budget" in err
        assert "VIOLATION" not in err
        with open(out / "scaling.csv") as fh:
            assert [int(row["total_iters"]) for row in csv.DictReader(fh)] == [3, 3]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_aborted_run_exit_code(self, tmp_path, capsys):
        payload = {"problem": {"name": "rosenbrock", "x0": [1e200, 1.0]}, "orders": {"p": 2, "q": 1}}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        code = main(["scaling", "--config", str(cfg), "--eps-grid", "1e-1:1e-2:2", "--out", str(out)])
        assert code == EXIT_ABORTED
        assert "status=aborted" in capsys.readouterr().err


class TestSampleCheck:
    PAYLOAD = {
        "problem": {"name": "sigmoid-synthetic", "N": 400, "n": 4, "data_seed": 3},
        "oracle": {"kind": "subsampled", "t": 0.05},
        "algo": {"eps": 1e-2},
        "seed": 1,
    }

    def test_small_dataset(self, tmp_path):
        cfg = write_config(tmp_path, self.PAYLOAD)
        out = tmp_path / "o"
        code = main(
            [
                "sample-check",
                "--config",
                str(cfg),
                "--trials",
                "300",
                "--eps-frac",
                "0.3",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        with open(out / "sample_check.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["order"] for row in rows] == ["0", "1", "2"]
        for row in rows:
            assert row["ok"] == "True"
            assert float(row["rate"]) <= float(row["threshold"])

    def test_zero_trials_rejected(self, tmp_path):
        cfg = write_config(tmp_path, self.PAYLOAD)
        args = ["sample-check", "--config", str(cfg), "--trials", "0", "--out", str(tmp_path / "o")]
        assert main(args) == EXIT_CONFIG

    def test_nonpositive_fraction_rejected(self, tmp_path):
        cfg = write_config(tmp_path, self.PAYLOAD)
        for frac in ("0", "inf", "nan"):
            args = ["sample-check", "--config", str(cfg), "--eps-frac", frac, "--out", str(tmp_path / "o")]
            assert main(args) == EXIT_CONFIG

    def test_close_fractions_draw_different_samples(self, tmp_path, monkeypatch):
        # 1e9 times either fraction truncates to 300000000; their bits differ
        states = []

        def record(dataset, x0, j, eps_j, t, trials, rng):
            states.append(rng.bit_generator.state["state"]["state"])
            return sampling_failures(dataset, x0, j, eps_j, t, trials, rng)

        sampling_failures = cli.sampling_failures
        monkeypatch.setattr(cli, "sampling_failures", record)
        cfg = write_config(tmp_path, self.PAYLOAD)
        args = ["sample-check", "--config", str(cfg), "--trials", "10", "--eps-frac", "0.3,0.3000000009"]
        assert main([*args, "--out", str(tmp_path / "o")]) == EXIT_OK
        assert len(states) == len(set(states)) == 6


# the CLI's defaults written out, apart from its schema: each problem's
# keys, then the orders and the oracle's
DEFAULT_PROBLEMS = {
    "quadratic": {"diag": [1, 2]},
    "quartic": {"n": 2, "box_radius": 3},
    "rosenbrock": {},
    "sigmoid-synthetic": {"N": 10_000, "n": 20, "data_seed": 1234},
    "sigmoid-file": {},
}
DEFAULT_ORDERS = {"p": 1, "q": 1, "beta": 1}
DEFAULT_ORACLE = {"noise_fraction": 0.9, "t_bar": 0.1}


def build_all(raw):
    """The params, orders, problem fingerprint, x0 and oracle a config builds."""
    cfg = RunConfig.from_dict(raw)
    params, orders = cfg.build_params(), cfg.build_orders()
    problem, dataset, x0 = cli.build_problem(cfg)
    oracle = cli.build_oracle(cfg, problem, dataset, params, orders)
    fingerprint = (problem.name, problem.n, problem.value(x0), problem.grad(x0).tolist())
    fingerprint += (problem.lipschitz, problem.f_low)
    return params, orders, fingerprint, x0, oracle


class TestDefaults:
    @pytest.mark.parametrize("name", sorted(DEFAULT_PROBLEMS))
    def test_name_only_builds_the_written_out_defaults(self, name, fuzz_dataset):
        path = {"path": str(fuzz_dataset)} if name == "sigmoid-file" else {}
        kinds = ["exact", "noisy"] + (["subsampled"] if name.startswith("sigmoid") else [])
        for kind in kinds:
            implicit = {"problem": {"name": name, **path}}
            if kind != "exact":
                implicit["oracle"] = {"kind": kind}
            explicit = {
                "problem": {"name": name, **path, **DEFAULT_PROBLEMS[name]},
                "orders": DEFAULT_ORDERS,
                "oracle": {"kind": kind, **DEFAULT_ORACLE},
                "algo": {},
            }
            params, orders, fingerprint, x0, oracle = build_all(implicit)
            e_params, e_orders, e_fingerprint, e_x0, e_oracle = build_all(explicit)
            assert params == e_params == AlgoParams()
            assert orders == e_orders == Orders(p=1, q=1, beta=1.0)
            assert fingerprint == e_fingerprint
            np.testing.assert_array_equal(x0, e_x0)
            assert type(oracle) is type(e_oracle)
            assert type(oracle).__name__ == f"{kind.capitalize()}Oracle"
            if kind == "noisy":
                assert oracle.noise_fraction == e_oracle.noise_fraction == 0.9
            if kind == "subsampled":
                assert oracle.t == e_oracle.t == failure_probability(params.eps, orders, 0.1)


# one small valid config per problem; the fuzz overrides some of its scalars
FUZZ_BASES = [
    {"problem": {"name": "quadratic", "diag": [1.0, 3.0]}, "orders": {"p": 1, "q": 1}, "oracle": {"kind": "exact"}},
    {"problem": {"name": "rosenbrock"}, "orders": {"p": 2, "q": 1}, "oracle": {"kind": "noisy"}},
    {"problem": {"name": "quartic", "n": 3}, "orders": {"p": 2, "q": 2}, "oracle": {"kind": "exact"}},
    {
        "problem": {"name": "sigmoid-synthetic", "N": 200, "n": 3},
        "orders": {"p": 2, "q": 1},
        "oracle": {"kind": "subsampled"},
        "algo": {"eps": 1e-2},
    },
    {"problem": {"name": "sigmoid-file"}, "orders": {"p": 1, "q": 1}, "oracle": {"kind": "subsampled"}},
]
WRONG_TYPES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)
# non-finite, out-of-range, huge and tiny numbers of both JSON kinds
BAD_NUMBERS = st.one_of(
    st.floats(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, -1, 1, 2, 10**400, -(10**400), 1e-320, 1e308]),
)
# a huge size is a valid config whose dataset or dense Hessian would fill
# memory, so sizes are drawn small or invalid
SIZE_KEYS = {"N", "n"}
SIZES = st.one_of(st.integers(-3, 30), st.floats(), WRONG_TYPES)
# valid but extreme values reach the driver more often than random numbers
EXTREME = st.one_of(st.floats(5e-324, 1e308), st.floats(0.0, 1.0), st.sampled_from([1e-320, 1e-300, 1e300]))
SCALARS = st.one_of(BAD_NUMBERS, EXTREME, WRONG_TYPES)


@st.composite
def fuzzed_configs(draw):
    raw = json.loads(json.dumps(draw(st.sampled_from(FUZZ_BASES))))
    raw.setdefault("algo", {})
    base = cli.RunConfig(**raw)
    slots = [(section, key) for section in cli.CONFIG_SCHEMA for key in sorted(base.schema(section))]
    slots += [(None, "seed")]
    for section, key in draw(st.lists(st.sampled_from(slots), min_size=1, max_size=3, unique=True)):
        value = draw(SIZES if key in SIZE_KEYS else SCALARS)
        if section is None:
            raw[key] = value
        else:
            raw[section][key] = value
    return raw


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory):
    from dynreg import make_synthetic_dataset, save_dataset

    path = tmp_path_factory.mktemp("fuzz") / "train.csv"
    save_dataset(make_synthetic_dataset(120, 3, seed=4), path)
    return path


class TestConfigFuzz:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(raw=fuzzed_configs())
    def test_exit_2_before_the_oracle_or_complete_iteration_0(self, fuzz_dataset, raw):
        # every config either stops at load with exit 2, before the driver
        # makes its first oracle request, or runs its first iteration to a
        # trace record; the driver is held to that one iteration
        if raw["problem"]["name"] == "sigmoid-file":
            raw["problem"].setdefault("path", str(fuzz_dataset))
        entered = []
        real_run = cli.run

        def first_iteration(oracle, x0, params, orders):
            entered.append(True)
            return real_run(oracle, x0, dataclasses.replace(params, max_iter=1), orders)

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "run", first_iteration)
            cfg = Path(tmp) / "config.json"
            cfg.write_text(json.dumps(raw))
            out = Path(tmp) / "out"
            code = main(["solve", "--config", str(cfg), "--out", str(out)])
            if code == EXIT_CONFIG:
                assert not entered
            else:
                assert code in (EXIT_OK, EXIT_BUDGET)
                assert (out / "trace.jsonl").read_text().count("\n") >= 1
