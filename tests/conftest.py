"""Fixtures shared by every test package."""

import pytest

from repro.obs import metrics as obs_metrics
from repro.perf import kernels


@pytest.fixture
def sweep_metrics():
    """A fresh metrics registry for the test's sweeps, which publish
    their ``sweep.*`` counters into it (their durations are spans)."""
    registry = obs_metrics.install_registry(obs_metrics.MetricsRegistry())
    yield registry
    obs_metrics.uninstall_registry()


@pytest.fixture(scope="session")
def compiled_kernels():
    """The compiled kernel library, for tests of the kernel path.

    Skips only when no C compiler is on ``PATH``; with one there, a
    failed build fails the test instead of letting every model fall
    back to the reference loop, which would pass every comparison.
    """
    if kernels._compiler() is None:
        pytest.skip("no C compiler (cc) on PATH")
    library = kernels.library()
    assert library is not None, "the kernel library failed to build"
    return library
