import numpy as np
import pytest

from dynreg import subsolvers


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
