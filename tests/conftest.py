# The package pins BLAS to one thread when it loads before numpy, which
# keeps the runtime bounds meaningful on one core; import it first.
import multipos  # noqa: F401

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
