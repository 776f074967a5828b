"""Acceptance suite: each test pins one shipped guarantee at its tolerance
and prints a one-line PASS verdict (run with -s or -rA to see them)."""

import csv
import json
import math
import time

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst

from chi2chaos import chaos, cli, criteria, montecarlo, spectral2, sym_tensor
from chi2chaos.chaos import (
    ChaosExpansion,
    chaos_polynomial,
    exact_cumulants,
    gamma_explicit,
    gamma_sequence,
    l2_inner,
    moments_from_cumulants,
)
from chi2chaos.criteria import (
    build_polynomials,
    criterion_statistic,
    power_sum_match,
    psi_functional,
    q_chaos_conditions,
    weighted_cumulant_sum,
)
from chi2chaos.montecarlo import (
    TargetLaw,
    k_statistic_errors,
    k_statistics,
    kolmogorov_distance,
    sample_chaos,
    sample_target,
)
from chi2chaos.spectral2 import (
    TargetSpec,
    cumulant_spectral_forms,
    spectral,
    target_kernel,
)
from chi2chaos.sym_tensor import random_kernel

SPECS_BY_K = {
    1: TargetSpec((1.3,)),
    2: TargetSpec((0.9, -1.7)),
    3: TargetSpec((1.0, -0.6, 2.2)),
}


def four_way_quantities(f, spec):
    """(weighted cumulant sum, sum of Q at eigenvalues, contraction norm^2,
    half second moment of the gamma combination)."""
    F = ChaosExpansion.from_kernel(f)
    polys = build_polynomials(spec)
    kappas = exact_cumulants(F, polys.deg_q)
    e2 = weighted_cumulant_sum(kappas, polys)
    eigen = spectral(f).eigenvalues
    q_sum = float(np.sum(np.polynomial.polynomial.polyval(eigen, polys.q)))
    m = sum(polys.p[r] * np.linalg.matrix_power(f.coeffs, r)
            for r in range(1, polys.deg_p + 1))
    e3 = float(np.sum(m ** 2))
    e4 = criterion_statistic(F, spec).gamma_stat
    return e2, q_sum, e3, e4


@pytest.fixture(scope="module")
def scenario_runs(tmp_path_factory):
    """One full run of every shipped scenario, with wall times."""
    out = {}
    base = tmp_path_factory.mktemp("scenarios")
    for name, path in cli.shipped_scenarios().items():
        t0 = time.monotonic()
        csv_path, summary_path = cli.run_scenario(path, base / name)
        out[name] = {
            "csv": csv_path,
            "rows": list(csv.DictReader(open(csv_path))),
            "summary": json.load(open(summary_path)),
            "summary_path": summary_path,
            "seconds": time.monotonic() - t0,
        }
    return out


def test_01_four_way_equality_random_kernels():
    rng = np.random.default_rng(20240801)
    t0 = time.monotonic()
    for trial in range(100):
        d = int(rng.integers(2, 9))
        f = random_kernel(2, d, rng)  # entries U[-1,1], symmetrized
        spec = SPECS_BY_K[trial % 3 + 1]
        vals = four_way_quantities(f, spec)
        scale = 1e-9 * (1 + max(abs(v) for v in vals))
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(vals[i] - vals[j]) < scale, (trial, i, j, vals)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\nacceptance  1 PASS  four-way equality, 100 kernels x k=1..3 "
          f"({elapsed:.1f}s)")


@settings(max_examples=60, deadline=None)
@given(hst.lists(hst.integers(-12, 12).filter(bool), min_size=1, max_size=3,
                 unique=True),
       hst.integers(1, 6), hst.integers(0, 2**32 - 1))
def test_four_way_equality_property(quarters, d, seed):
    spec = TargetSpec(tuple(q / 4.0 for q in quarters))
    f = random_kernel(2, d, np.random.default_rng(seed))
    vals = four_way_quantities(f, spec)
    scale = 1e-9 * (1 + max(abs(v) for v in vals))
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(vals[i] - vals[j]) < scale, (i, j, vals)


def test_02_four_way_vanishes_at_target():
    for k, spec in SPECS_BY_K.items():
        f = target_kernel(spec, spec.k + 1)
        tol = 1e-10 * (1 + math.sqrt(sym_tensor.inner(f, f)) ** (2 * (k + 1)))
        vals = four_way_quantities(f, spec)
        assert all(abs(v) < tol for v in vals), (k, vals, tol)
    print("\nacceptance  2 PASS  all four quantities vanish at the target")


def test_03_gamma_cross_validation():
    rng = np.random.default_rng(7)
    t0 = time.monotonic()
    for q, d in [(2, 4), (3, 4), (4, 3)]:
        for _ in range(20):
            f = random_kernel(q, d, rng)
            F = ChaosExpansion.from_kernel(f)
            seq = gamma_sequence(F, 3, max_order=12)
            for i in (1, 2, 3):
                ge = gamma_explicit(f, i, max_order=12)
                gs = seq[i]
                for m in set(ge.orders()) | set(gs.orders()):
                    a, b = ge.kernel(m), gs.kernel(m)
                    scale = max(np.max(np.abs(a), initial=0.0),
                                np.max(np.abs(b), initial=0.0), 1.0)
                    assert np.max(np.abs(a - b), initial=0.0) < 1e-9 * scale, \
                        (q, d, i, m)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\nacceptance  3 PASS  gamma recursion vs explicit formula, "
          f"q=2..4, i<=3 ({elapsed:.1f}s)")


def test_04_cumulant_triangle():
    rng = np.random.default_rng(41)
    for trial in range(50):
        d = int(rng.integers(2, 9))
        f = random_kernel(2, d, rng, scale=0.8)
        F = ChaosExpansion.from_kernel(f)
        exact = exact_cumulants(F, 6)
        for i in range(2, 7):
            by_eigen, by_contraction = cumulant_spectral_forms(f, i)
            scale = 1e-9 * (1 + abs(exact[i - 1]))
            assert abs(exact[i - 1] - by_eigen) < scale, (trial, i)
            assert abs(exact[i - 1] - by_contraction) < scale, (trial, i)
        batch = sample_chaos(F, 1_000_000, seed=6000 + trial)
        ks = k_statistics(batch, 4)
        se = k_statistic_errors(batch, 4)
        for i in range(1, 5):
            assert abs(ks[i - 1] - exact[i - 1]) < 4 * se[i - 1], \
                (trial, i, ks[i - 1], exact[i - 1], se[i - 1])
    print("\nacceptance  4 PASS  cumulant triangle (exact x2 + MC at 4 SE), "
          "50 kernels")


def test_05_generalized_integration_by_parts():
    rng = np.random.default_rng(55)
    for q in (2, 3):
        for trial in range(10):
            f = random_kernel(q, 2, rng, scale=0.6)
            F = ChaosExpansion.from_kernel(f)
            mo = 12
            seq = gamma_sequence(F, 3, max_order=mo)
            kappas = exact_cumulants(F, 8, max_order=mo)
            moments = moments_from_cumulants(kappas, 8)
            for k in (1, 2, 3):
                phi = [0.0] * k + [1.0]  # x^k
                for r in range(1, k + 1):
                    phik = criteria._poly_deriv(phi, k)
                    lhs = l2_inner(chaos_polynomial(F, phik, max_order=mo),
                                   seq[r])
                    shifted = np.concatenate(
                        ([0.0], criteria._poly_deriv(phi, k - r)))
                    rhs = criteria._poly_expectation(shifted, moments)
                    for s in range(1, r + 1):
                        rhs -= criteria._poly_expectation(
                            criteria._poly_deriv(phi, k - s), moments) \
                            * seq[r - s].mean
                    assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs)), \
                        (q, trial, k, r, lhs, rhs)
    print("\nacceptance  5 PASS  generalized integration by parts, "
          "q=2,3, k<=3, r<=k")


def test_06_psi_static_characterization():
    for alphas in [(1.0,), (0.5, -0.5), (1.0, 2.0)]:
        spec = TargetSpec(alphas)
        kappas = spec.cumulants(spec.k + 1)
        moments = moments_from_cumulants(spec.cumulants(10), 10)
        for m in range(5):
            phi = [0.0] * m + [1.0]
            want = moments[m]  # E[F phi(F)] = E[F^{m+1}]
            got = psi_functional(kappas, moments, spec, phi)
            assert abs(got - want) < 1e-9 * (1 + abs(want)), (alphas, m)
    # the pinned value: E[F^3] = 8 for the single-weight target
    spec1 = TargetSpec((1.0,))
    moments1 = moments_from_cumulants(spec1.cumulants(6), 6)
    assert abs(moments1[2] - 8.0) < 1e-12
    got = psi_functional(spec1.cumulants(2), moments1, spec1, [0.0, 0.0, 1.0])
    assert abs(got - 8.0) < 1e-9
    print("\nacceptance  6 PASS  psi functional reproduces target moments, "
          "k<=2, phi=x^m m<=4")


def test_07_second_chaos_converging(scenario_runs):
    run = scenario_runs["second-chaos-converging"]
    stats = [float(r["gamma_stat"]) for r in run["rows"]]
    assert all(b < a for a, b in zip(stats, stats[1:]))
    ratio = stats[-1] / stats[-2]
    assert abs(ratio - 0.25) < 0.01, ratio  # O(1/n^2) decay per doubling
    final_ks = float(run["rows"][-1]["ks"])
    assert final_ks < 0.02, final_ks
    assert run["seconds"] < 120.0
    print(f"\nacceptance  7 PASS  converging scenario: strictly decreasing, "
          f"final ratio {ratio:.4f}, KS {final_ks:.4f} ({run['seconds']:.0f}s)")


def test_08_gaussian_counterexample(scenario_runs):
    run = scenario_runs["gaussian-counterexample"]
    limit = 2.0  # (alpha1 alpha2)^2 kappa_2 / 2 with kappa_2 = 1
    final = float(run["rows"][-1]["gamma_stat"])
    assert abs(final - limit) < 0.05 * limit, final
    ks = [float(r["ks"]) for r in run["rows"]]
    assert all(v > 0.05 for v in ks), ks
    print(f"\nacceptance  8 PASS  counterexample: gamma_stat {final:.4f} "
          f"(limit 2), KS stays >= {min(ks):.3f}")


def test_09_two_eigenvalue_q2_example(scenario_runs):
    run = scenario_runs["two-eigenvalue-q2-example"]
    last = run["rows"][-1]
    conds = {k: abs(float(v)) for k, v in last.items() if k.startswith("cond_")}
    assert conds and all(v < 1e-3 for v in conds.values()), conds
    final_ks = float(last["ks"])
    assert final_ks < 0.02, final_ks
    print(f"\nacceptance  9 PASS  q=2 example: conditions <= "
          f"{max(conds.values()):.2e}, KS {final_ks:.4f}")


def test_10_cf_inversion_closure():
    worst = 0.0
    for alphas in [(1.0,), (0.5, -0.5), (1.0, 2.0)]:
        spec = TargetSpec(alphas)
        law = TargetLaw(spec)
        batch = sample_target(spec, 1_000_000, seed=8800 + len(alphas))
        ks = kolmogorov_distance(batch, law.cdf_batch)
        assert ks < 0.005, (alphas, ks)
        worst = max(worst, ks)
    chi2_oracle = st.chi2(1).cdf(1.0)
    at_zero = TargetLaw(TargetSpec((1.0,))).cdf(0.0)
    assert abs(at_zero - 0.6827) < 1e-3
    assert abs(at_zero - chi2_oracle) < 1e-3
    print(f"\nacceptance 10 PASS  CF-inversion closure: worst KS {worst:.4f}, "
          f"cdf(0) = {at_zero:.5f}")


def test_11_power_sum_lemma():
    rng = np.random.default_rng(11)
    for trial in range(200):
        n = int(rng.integers(1, 7))
        a = rng.uniform(0.1, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        if trial % 2 == 0:
            b = rng.permutation(a)
            expect_equal = True
        else:
            b = a.copy()
            b[rng.integers(0, n)] += float(rng.uniform(0.5, 1.5))
            expect_equal = bool(np.allclose(np.sort(a), np.sort(b), atol=1e-10))
        res = power_sum_match(a, b, pmax=max(6, n))
        assert res.equal == expect_equal, (trial, a, b)
        sorted_equal = len(a) == len(b) and np.all(
            np.abs(np.sort(a) - np.sort(b)) <= 1e-10)
        assert res.equal == bool(sorted_equal)
        if res.equal:
            assert res.power_sums_agree
            perm = list(res.permutation)
            assert sorted(perm) == list(range(len(perm)))
            assert np.allclose(a, b[perm], atol=1e-10)
    print("\nacceptance 11 PASS  power-sum lemma on 200 multiset pairs")


def test_12_determinism(scenario_runs, tmp_path):
    for name, path in cli.shipped_scenarios().items():
        csv_path, summary_path = cli.run_scenario(path, tmp_path / name)
        first = scenario_runs[name]["csv"].read_bytes()
        second = csv_path.read_bytes()
        assert first == second, f"{name}: CSV outputs differ between runs"
        first = scenario_runs[name]["summary_path"].read_bytes()
        second = summary_path.read_bytes()
        assert first == second, f"{name}: summaries differ between runs"
    print("\nacceptance 12 PASS  byte-identical CSVs and summaries across "
          "reruns of all shipped scenarios")
