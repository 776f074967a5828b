"""Set one workload up in a fresh process and exit; run.py times this.

    python3 perfbench/probe.py <workload> <seed>

The wall time of this process is the workload's set-up time: interpreter
start, ``import chi2chaos``, loading configs and building the inputs.
"""

import sys

import bench_env

bench_env.prepare()

import workloads  # noqa: E402  (after the thread cap)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), bench_env.OUT / "probe")
