"""Process set-up shared by every benchmark entry point.

Must run before NumPy is imported: it caps the BLAS thread pools at the
number of usable cores and puts the checkout's ``src`` on ``sys.path`` so the
benchmark measures the package from source, never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / ".out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare() -> None:
    """Cap BLAS threads and make ``import chi2chaos`` load ``src``.

    Raises FileNotFoundError when the checkout has no package source.
    """
    if not (SRC / "chi2chaos" / "__init__.py").is_file():
        raise FileNotFoundError(f"no chi2chaos package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
