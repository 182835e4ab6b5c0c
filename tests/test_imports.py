"""The package imports nothing beyond the standard library and numpy.

The benchmark's ``setup_s`` times imports in a fresh interpreter, so one
stray third-party import (``scipy.linalg`` alone takes about 0.25 s after
numpy on a 2-core Xeon VM) would outweigh the whole set-up it measures.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import numpy
before = set(sys.modules)
import dynreg, dynreg.cli
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_imports_only_the_standard_library_and_numpy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60, check=True)
    new = set(json.loads(done.stdout))
    assert "dynreg" in new
    assert new - sys.stdlib_module_names - {"numpy", "dynreg"} == set()
