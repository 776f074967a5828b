"""Tests of the benchmark itself: python3 -m pytest perfbench -q

The exact-count test runs a traced pass of every workload twice (about two
minutes on two cores); the rest take seconds.
"""

import json
import math
import shutil
import subprocess
import sys

import bench_env

bench_env.prepare()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import gates  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from chi2chaos import chaos, criteria, montecarlo, sym_tensor  # noqa: E402
from chi2chaos.spectral2 import TargetSpec  # noqa: E402


def test_benchmark_json_lists_the_emitted_metrics():
    with open(bench_env.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = list(tracing.Tracer().layer_metrics()) + ["trace.overhead_frac",
                                                       "process.cpu_s"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, run.layer_unit(name)) for name in layer]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_exact_counts_repeat(workload):
    counts = []
    for _ in range(2):
        items = workloads.WORKLOADS[workload](0, bench_env.OUT / "test" / workload)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run.run_pass(items)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        counts.append({name: metrics[name] for name in tracing.EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


@pytest.mark.parametrize("alphas", list(gates.REFERENCE_CDFS))
def test_reference_cdfs_match_the_inverter(alphas):
    xs = np.array([-2.9, -0.99, -0.5, -1e-4, 0.0, 1e-3, 0.7, 2.0, 5.0, 40.0])
    law = montecarlo.TargetLaw(TargetSpec(alphas))
    expected = np.array([law.cdf(x) for x in xs])
    assert np.max(np.abs(gates.REFERENCE_CDFS[alphas](xs) - expected)) < 1e-6


def test_chi2_reference_is_math_erf():
    xs = np.linspace(-0.9, 10.0, 7)
    expected = [math.erf(math.sqrt((x + 1.0) / 2.0)) for x in xs]
    assert np.allclose(gates.chi2_cdf(xs), expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("q,d", [(2, 3), (4, 3)])
def test_kappa3_closed_form_is_the_order0_branch_of_gamma_explicit(q, d):
    f = workloads.random_kernel(3, q, d)
    assert gates.kappa3_closed_form(f) == pytest.approx(
        2.0 * chaos.gamma_explicit(f, 2).mean, rel=1e-12)


@pytest.mark.parametrize("q,d", [(3, 4), (4, 3), (5, 2)])
def test_wick_expansion_matches_evaluate(q, d):
    f = workloads.random_kernel(5, q, d)
    x = np.random.default_rng(9).standard_normal((50, d))
    expected = chaos.evaluate(chaos.ChaosExpansion.from_kernel(f), x)
    assert np.allclose(gates.wick_eval(f, x), expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("q,d,defect", [(3, 4, True), (4, 3, False)])
def test_q_chaos_gate_names_the_known_defect_at_odd_q(q, d, defect):
    f = workloads.random_kernel(7, q, d)
    spec = TargetSpec((1.0, 2.0))
    item = workloads.Item("point", None, None,
                          {"kernel": f, "spec": spec, "max_order": 12})
    result = (criteria.criterion_statistic(chaos.ChaosExpansion.from_kernel(f), spec),
              criteria.q_chaos_conditions(f, spec))
    found = gates.exact_item(item, result)
    if defect:
        assert [(x.gate, x.known_defect) for x in found] == \
            [("q_chaos identity", gates.Q_CHAOS_DEFECT)]
    else:
        assert found == []


def test_symmetrize_ops_counts_arrangements():
    t = np.zeros((2,) * 5)
    assert tracing._symmetrize_ops((t,), {}) == 32 * 120
    assert tracing._symmetrize_ops((t, (3, 2)), {}) == 32 * 10
    assert sym_tensor._arrangement_count((3, 2)) == 10


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(bench_env.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench_env.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "exact-grid", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
