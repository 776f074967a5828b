import os
import tracemalloc

import pytest
from hypothesis import settings

from chi2chaos.errors import ResourceGuardError

# CI runs the property tests on the same examples every time.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


def _peak_mb(call):
    """Run call() and return the peak memory traced while it ran, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_mb():
    return _peak_mb


@pytest.fixture
def guard_peak_mb():
    """Run a call that must raise ResourceGuardError and return the peak
    memory traced while it ran, in MB."""
    def run(call):
        def guarded():
            with pytest.raises(ResourceGuardError):
                call()
        return _peak_mb(guarded)
    return run
