"""Print one sha256 per benchmark solve over the files ``dynreg solve`` writes.

Run from the repository root:

    python3 tools/trace_digests.py --seed 0 > digests-seed0.txt
    python3 tools/trace_digests.py --seed 0 --workload many-small --workload dense-hessian

For every workload in ``perfbench/workloads.py`` (or only those named by
``--workload``, which may be repeated) and every config it generates from
``--seed``, the script runs ``cli.cmd_solve`` into a
temporary directory and hashes the bytes of ``trace.jsonl`` followed by
``summary.json``.  Each output line is ``<workload> <index> <sha256>``.
Two checkouts give the same traces and summaries on every solve exactly
when their outputs are equal, so a byte-identity check is a ``diff``.
Like the benchmark, it imports ``dynreg`` from ``src/`` and uses one BLAS
thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from dynreg import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def solve_digest(raw: dict) -> str:
    """sha256 of trace.jsonl then summary.json of one ``dynreg solve``."""
    cfg = cli.RunConfig.from_dict(raw)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.cmd_solve(cfg, out)
        h = hashlib.sha256()
        for name in ("trace.jsonl", "summary.json"):
            h.update((out / name).read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS), help="run only this workload (repeatable)"
    )
    args = parser.parse_args(argv)
    for workload, make in WORKLOADS.items():
        if args.workload and workload not in args.workload:
            continue
        for i, raw in enumerate(make(args.seed)):
            print(f"{workload} {i} {solve_digest(raw)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
