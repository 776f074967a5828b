import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import settings

import chi2chaos
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


# A child's ru_maxrss starts at the peak resident size of the process it was
# spawned from, hundreds of MB for pytest, so the child is spawned from a
# small launcher that prints the child's peak (in kB) from os.wait4 last.
_LAUNCHER = (
    "import os, sys; "
    "pid = os.posix_spawn(sys.executable, [sys.executable] + sys.argv[1:], "
    "os.environ); "
    "_, status, usage = os.wait4(pid, 0); "
    "print(usage.ru_maxrss); "
    "sys.exit(os.waitstatus_to_exitcode(status))")


def _python_child(args, *, one_core=False, env=None):
    """Run the interpreter on args in a child process that imports the
    chi2chaos under test, pinned to core 0 if one_core, with env added to
    the environment.  Return its stdout, without the last line break, and
    its peak RSS in MB."""
    src = str(Path(chi2chaos.__file__).parents[1])
    child = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, *args], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src, **(env or {})},
        preexec_fn=(lambda: os.sched_setaffinity(0, {0})) if one_core
        else None)
    assert child.returncode == 0, child.stderr
    out, _, peak_kb = child.stdout.rstrip("\n").rpartition("\n")
    return out, int(peak_kb) / 1024


@pytest.fixture(scope="session")
def python_child():
    return _python_child
