import numpy as np
import pytest

from dynreg import Oracle, subsolvers


@pytest.fixture
def eigh_calls(monkeypatch):
    """Count of np.linalg.eigh calls, starting from an empty spectral memo."""
    calls = []
    eigh = np.linalg.eigh

    def spy(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(subsolvers, "_last_spectrum", None)
    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


@pytest.fixture
def promise_breaking():
    """An oracle class whose step bundle breaks the promise the measure rested on.

    Requests of at least 1e-5 get the gradient (0.97e-3, 0, ...) with the
    promise 1e-5, tighter ones the zero gradient promised exact.  At
    eps = 1e-3 with p = q = 1 the measure certifies relatively above the
    exit threshold, the short step's model certificate shrinks the ladder
    below 1e-5, and the step bundle then has no descent step.
    """

    class PromiseBreaking(Oracle):
        def _compute(self, x, j, eps):
            if j == 0:
                return 0.0, 0.0
            g = np.zeros_like(x)
            if eps >= 1e-5:
                g[0] = 0.97e-3
                return g, 1e-5
            return g, 0.0

    return PromiseBreaking
