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
    """Every text passed to `multipos.data.tokenize` or `multipos.data.tokenize_many`.

    Those are the names a `TokenCache.lookup` miss and `TokenCache.fill` call.
    """
    import multipos.data

    calls = []
    real_one, real_many = multipos.data.tokenize, multipos.data.tokenize_many

    def one(text, *args, **kwargs):
        calls.append(text)
        return real_one(text, *args, **kwargs)

    def many(texts, *args, **kwargs):
        calls.extend(texts)
        return real_many(texts, *args, **kwargs)

    monkeypatch.setattr(multipos.data, "tokenize", one)
    monkeypatch.setattr(multipos.data, "tokenize_many", many)
    return calls
