"""Smoke tests of the byte-identity tools in ``tools/``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_tool(*args):
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300, check=True
    )
    return done.stdout


def test_ab_solves_finds_no_trace_difference_against_itself():
    out = run_tool("tools/ab_solves.py", "--base", str(ROOT), "--workload", "finite-sum-hess", "--rounds", "1")
    assert "solves with differing traces: 0 of 6" in out
    assert "solves with differing counts: 0 of 6" in out
    assert "  sigmoid-synthetic p=2 q=1 subsampled (3 solves): median per-solve ratio " in out
    base, change = (line.split(":", 1)[1] for line in out.splitlines()[-2:])
    assert base == change and "iterations" in base


def test_ab_solves_repeats_in_fresh_interpreters_with_alternating_load_order():
    out = run_tool(
        "tools/ab_solves.py", "--base", str(ROOT), "--workload", "finite-sum-hess", "--rounds", "1", "--repeats", "2"
    )
    assert "--- repeat 0 (base loaded first)" in out and "--- repeat 1 (change loaded first)" in out
    assert out.count("solves with differing traces: 0 of 6") == 2
    lines = out.splitlines()
    assert lines[-3].startswith("repeat 0 (base first): ") and lines[-2].startswith("repeat 1 (change first): ")
    assert lines[-1].startswith("median over repeats: ")


def test_trace_digests_repeat_exactly():
    args = ("tools/trace_digests.py", "--workload", "finite-sum-hess")
    first = run_tool(*args)
    lines = first.splitlines()
    assert len(lines) == 6
    assert all(line.startswith(f"finite-sum-hess {i} ") and len(line.split()[2]) == 64 for i, line in enumerate(lines))
    assert run_tool(*args) == first
