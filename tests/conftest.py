"""Fixtures shared by every test package."""

import pytest

from repro.obs import metrics as obs_metrics


@pytest.fixture
def sweep_metrics():
    """A fresh metrics registry for the test's sweeps, which publish
    their ``sweep.*`` counters into it (their durations are spans)."""
    registry = obs_metrics.install_registry(obs_metrics.MetricsRegistry())
    yield registry
    obs_metrics.uninstall_registry()
