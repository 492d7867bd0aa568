"""Import signform before any test module imports numpy, so that the tests
run on the one BLAS thread the command line runs on."""

import pytest

import signform  # noqa: F401


@pytest.fixture
def set_blas_threads(monkeypatch):
    """A function that sets the three BLAS thread-count variables to a
    value, or unsets them for None, until the test ends."""
    def set_blas_threads(value):
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
    return set_blas_threads
