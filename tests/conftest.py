import os

# Single-threaded BLAS keeps the runtime bounds meaningful on one core
# and must be pinned before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repo",
    deadline=None,
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")


@pytest.fixture()
def tokenized(monkeypatch):
    """Every text passed to `multipos.data.tokenize`, the name a TokenCache miss calls."""
    import multipos.data

    calls = []
    real = multipos.data.tokenize

    def spy(text, *args, **kwargs):
        calls.append(text)
        return real(text, *args, **kwargs)

    monkeypatch.setattr(multipos.data, "tokenize", spy)
    return calls
