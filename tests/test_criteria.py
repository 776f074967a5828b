import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chi2chaos import chaos, criteria
from chi2chaos.chaos import (
    ChaosExpansion,
    exact_cumulants,
    l2_inner,
    l2_norm,
    moments_from_cumulants,
)
from chi2chaos.criteria import (
    build_polynomials,
    conditions_gamma_stat,
    criterion_statistic,
    gamma_combination,
    power_sum_match,
    psi_functional,
    q_chaos_conditions,
    weighted_cumulant_sum,
)
from chi2chaos.spectral2 import TargetSpec, spectral, target_kernel
from chi2chaos.sym_tensor import SymmetricKernel, random_kernel


# --- polynomials --------------------------------------------------------------

def test_build_polynomials_single_root():
    polys = build_polynomials(TargetSpec((1.0,)))
    assert np.allclose(polys.p, [0.0, -1.0, 1.0])  # x^2 - x
    assert polys.p[1] == -1.0 and polys.p[2] == 1.0


def test_build_polynomials_symmetric_pair():
    polys = build_polynomials(TargetSpec((0.5, -0.5)))
    assert np.allclose(polys.p, [0.0, -0.25, 0.0, 1.0])  # x^3 - x/4
    assert np.allclose(polys.q, [0.0, 0.0, 1.0 / 16, 0.0, -0.5, 0.0, 1.0])
    # exact coefficient convolution, not approximate
    assert np.array_equal(polys.q, np.convolve(polys.p, polys.p))


def test_polynomial_roots_property():
    rng = np.random.default_rng(0)
    for _ in range(10):
        alphas = tuple(rng.uniform(-2, 2, size=3))
        try:
            spec = TargetSpec(alphas)
        except Exception:
            continue
        polys = build_polynomials(spec)
        scale = np.max(np.abs(polys.p))
        for a in alphas + (0.0,):
            val = np.polynomial.polynomial.polyval(a, polys.p)
            assert abs(val) < 1e-13 * scale * max(1.0, abs(a)) ** polys.deg_p


# --- weighted cumulant sum -----------------------------------------------------

def test_weighted_cumulant_sum_chi2_target():
    spec = TargetSpec((1.0,))
    polys = build_polynomials(spec)
    kappas = [2.0 ** (r - 1) * math.factorial(r - 1) for r in range(1, 5)]
    assert abs(weighted_cumulant_sum(kappas, polys)) < 1e-14  # 1 - 2 + 1


def test_weighted_cumulant_sum_own_target_vanishes():
    for alphas in [(1.0,), (0.5, -0.5), (1.0, 2.0), (0.3, -0.7, 1.9)]:
        spec = TargetSpec(alphas)
        polys = build_polynomials(spec)
        kappas = spec.cumulants(polys.deg_q)
        scale = 1 + sum(abs(k) for k in kappas)
        assert abs(weighted_cumulant_sum(kappas, polys)) < 1e-12 * scale


def test_weighted_cumulant_sum_gaussian():
    spec = TargetSpec((1.0, 2.0))
    polys = build_polynomials(spec)
    sigma2 = 1.7
    kappas = [0.0, sigma2] + [0.0] * (polys.deg_q - 2)
    # only the x^2 coefficient of Q survives: (alpha1 alpha2)^2 sigma^2 / 2
    assert abs(weighted_cumulant_sum(kappas, polys) - 2.0 * sigma2) < 1e-13


def test_weighted_cumulant_sum_requires_enough_cumulants():
    polys = build_polynomials(TargetSpec((1.0,)))
    with pytest.raises(ValueError):
        weighted_cumulant_sum([0.0, 2.0], polys)


# --- gamma combination ----------------------------------------------------------

def test_gamma_combination_target_zero():
    for alphas in [(1.0,), (1.0, 2.0)]:
        spec = TargetSpec(alphas)
        F = ChaosExpansion.from_kernel(target_kernel(spec, spec.k + 1))
        comb = gamma_combination(F, spec)
        assert l2_norm(comb) < 1e-10


def test_gamma_combination_equal_eigenvalues_value():
    # two equal eigenvalues 1/2 against the k=1 target: E[comb^2] = 2 sum Q = 1/4
    spec = TargetSpec((1.0,))
    f = SymmetricKernel(2, 2, np.diag([0.5, 0.5]))
    F = ChaosExpansion.from_kernel(f)
    comb = gamma_combination(F, spec)
    assert abs(l2_inner(comb, comb) - 0.25) < 1e-12
    assert abs(criterion_statistic(F, spec).gamma_stat - 0.125) < 1e-13


def test_gamma_combination_translation_invariant():
    rng = np.random.default_rng(1)
    f = random_kernel(2, 4, rng)
    spec = TargetSpec((1.0, -0.5))
    a = gamma_combination(ChaosExpansion.from_kernel(f), spec)
    b = gamma_combination(ChaosExpansion.from_kernel(f) + 3.0, spec)
    assert l2_norm(a - b) < 1e-12


# --- criterion statistic ---------------------------------------------------------

def test_criterion_statistic_target_zeros():
    spec = TargetSpec((1.0, 2.0))
    F = ChaosExpansion.from_kernel(target_kernel(spec, 3))
    rep = criterion_statistic(F, spec)
    assert rep.gamma_stat < 1e-12
    assert all(gap < 1e-10 for (_, _, _, gap) in rep.cumulant_gaps)


def test_criterion_report_stable_fields():
    import dataclasses

    spec = TargetSpec((0.5, -0.5))
    F = ChaosExpansion.from_kernel(target_kernel(spec, 2))
    rep = criterion_statistic(F, spec)
    assert [f.name for f in dataclasses.fields(rep)] == ["cumulant_gaps",
                                                         "gamma_stat"]
    assert [row[0] for row in rep.cumulant_gaps] == [2, 3]


def test_criterion_statistic_epsilon_sweep_orders():
    spec = TargetSpec((1.0, 2.0))
    gaps, stats, eps_list = [], [], [0.1, 0.01, 0.001, 0.0001]
    for eps in eps_list:
        f = SymmetricKernel(2, 2, np.diag([1.0 + eps, 2.0 - eps]))
        rep = criterion_statistic(ChaosExpansion.from_kernel(f), spec)
        gaps.append(max(g for (_, _, _, g) in rep.cumulant_gaps))
        stats.append(rep.gamma_stat)
    for i in range(len(eps_list) - 1):
        gap_order = math.log10(gaps[i] / gaps[i + 1])
        stat_order = math.log10(stats[i] / stats[i + 1])
        assert 0.8 < gap_order < 1.3      # gaps ~ O(eps)
        assert 1.8 < stat_order < 2.3     # gamma_stat ~ O(eps^2)


def test_criterion_statistic_gaussian_direction_limit():
    # d equal eigenvalues 1/sqrt(2d): gamma_stat -> (a1 a2)^2 kappa2 / 2 = 2
    spec = TargetSpec((1.0, 2.0))
    d = 512
    f = SymmetricKernel(2, d, np.diag([1.0 / math.sqrt(2 * d)] * d))
    rep = criterion_statistic(ChaosExpansion.from_kernel(f), spec)
    x = 1.0 / math.sqrt(2 * d)
    exact = 2.0 * (1 - x) ** 2 * (1 - x / 2) ** 2  # eigenvalue power-sum oracle
    assert abs(rep.gamma_stat - exact) < 1e-12 * (1 + exact)
    assert abs(rep.gamma_stat - 2.0) < 6.0 / math.sqrt(2 * d)


def test_criterion_statistic_mixed_chaos_orders():
    # target plus an independent first-chaos component eps*N: the combination
    # picks up P'(0) * eps * N, so gamma_stat = (a1 a2)^2 eps^2 / 2 = 2 eps^2
    spec = TargetSpec((1.0, 2.0))
    for eps in (0.5, 0.1, 0.01):
        g = np.zeros(3)
        g[2] = eps
        F = ChaosExpansion(3, {1: g, 2: target_kernel(spec, 3).coeffs})
        rep = criterion_statistic(F, spec)
        assert abs(rep.gamma_stat - 2.0 * eps ** 2) < 1e-12
        assert abs(rep.cumulant_gaps[0][3] - eps ** 2) < 1e-12


def test_the_criterion_reads_the_cumulants_of_exact_cumulants():
    # both read kappa_r = (r-1)! E[Gamma_{r-1}] off one gamma sequence
    spec = TargetSpec((1.0, -0.5, 2.0))
    for q, d in ((2, 4), (3, 3), (4, 2)):
        F = ChaosExpansion.from_kernel(
            random_kernel(q, d, np.random.default_rng((q, d)))) + 0.25
        report = criterion_statistic(F, spec, max_order=12)
        kappas = [kn for (_, kn, _, _) in report.cumulant_gaps]
        exact = exact_cumulants(F, spec.k + 1, max_order=12)[1:]
        assert [k.hex() for k in kappas] == [k.hex() for k in exact]


def test_criterion_recenters_internally():
    spec = TargetSpec((1.0,))
    F = ChaosExpansion.from_kernel(target_kernel(spec, 2)) + 7.0
    rep = criterion_statistic(F, spec)
    assert rep.gamma_stat < 1e-12
    assert all(gap < 1e-10 for (_, _, _, gap) in rep.cumulant_gaps)


# --- psi functional ---------------------------------------------------------------

def test_psi_constant_phi_centered():
    spec = TargetSpec((1.0,))
    kappas = spec.cumulants(2)
    moments = moments_from_cumulants(spec.cumulants(4), 4)
    val = psi_functional(kappas, moments, spec, [1.0])
    assert abs(val) < 1e-12  # consistency with E[F * 1] = 0


def test_psi_identity_phi():
    spec = TargetSpec((1.0,))
    kappas = spec.cumulants(2)
    moments = moments_from_cumulants(spec.cumulants(6), 6)
    assert abs(psi_functional(kappas, moments, spec, [0.0, 1.0]) - 2.0) < 1e-12


def test_psi_matches_target_moments():
    for alphas in [(1.0,), (0.5, -0.5), (1.0, 2.0)]:
        spec = TargetSpec(alphas)
        kappas = spec.cumulants(spec.k + 1)
        moments = moments_from_cumulants(spec.cumulants(10), 10)
        for m in range(5):
            phi = [0.0] * m + [1.0]
            want = moments[m]  # E[F phi(F)] = E[F^{m+1}]
            got = psi_functional(kappas, moments, spec, phi)
            assert abs(got - want) < 1e-9 * (1 + abs(want)), (alphas, m)


def test_psi_spec12_cubic_moment():
    spec = TargetSpec((1.0, 2.0))
    kappas = spec.cumulants(3)
    moments = moments_from_cumulants(spec.cumulants(8), 8)
    assert abs(kappas[2] - 72.0) < 1e-12
    got = psi_functional(kappas, moments, spec, [0.0, 0.0, 1.0])
    assert abs(got - 72.0) < 1e-9  # E[F^3] for the centered target


def test_psi_insufficient_data():
    spec = TargetSpec((1.0, 2.0))
    with pytest.raises(ValueError):
        psi_functional([0.0, 10.0], [0.0], spec, [0.0, 1.0])
    with pytest.raises(ValueError):
        psi_functional(spec.cumulants(3), [0.0, 10.0], spec, [0.0] * 4 + [1.0])


# --- order-q conditions -------------------------------------------------------------

def test_q_chaos_conditions_target_zero():
    spec = TargetSpec((0.5, -0.5))
    f = target_kernel(spec, 3)
    conds = q_chaos_conditions(f, spec)
    assert set(conds) >= {"a", "b1"}
    assert all(abs(v) < 1e-10 for v in conds.values())


def test_q_chaos_conditions_odd_q_has_no_a():
    rng = np.random.default_rng(2)
    f = random_kernel(3, 2, rng)
    conds = q_chaos_conditions(f, TargetSpec((0.5, -0.5)), max_order=8)
    assert "a" not in conds
    assert "b1" in conds and "b2_k2" in conds and "b3_k5" in conds


def test_q_chaos_conditions_requires_two_weights():
    rng = np.random.default_rng(3)
    f = random_kernel(2, 3, rng)
    with pytest.raises(ValueError):
        q_chaos_conditions(f, TargetSpec((1.0,)))


def test_q2_conditions_aggregate_to_gamma_stat():
    # at q=2 every chaos order of the combination sits in b1, so
    # gamma_stat = (1/2) * 2! * b1 = b1; b2_k2 is excluded (k=q) by range
    rng = np.random.default_rng(4)
    spec = TargetSpec((0.8, -1.1))
    for _ in range(10):
        f = random_kernel(2, 5, rng)
        conds = q_chaos_conditions(f, spec)
        gs = criterion_statistic(ChaosExpansion.from_kernel(f), spec).gamma_stat
        assert abs(gs - conds["b1"]) < 1e-9 * (1 + abs(gs))


def test_q3_conditions_aggregate_to_gamma_stat_with_order_one():
    # at odd q the combination has an order-1 part; it is returned as b2_k1,
    # so the returned buckets alone reconstruct gamma_stat
    rng = np.random.default_rng(5)
    spec = TargetSpec((0.5, -0.5))
    f = random_kernel(3, 2, rng, scale=0.6)
    conds = q_chaos_conditions(f, spec, max_order=8)
    assert set(conds) == {"b1", "b2_k1", "b2_k2", "b2_k4", "b3_k5"}
    F = ChaosExpansion.from_kernel(f)
    comb = criteria.gamma_combination(F, spec, max_order=8)
    order1 = float(np.sum(comb.kernel(1) ** 2))
    assert order1 > 0.0
    assert abs(conds["b2_k1"] - order1) < 1e-12 * order1
    gs = criterion_statistic(F, spec, max_order=8).gamma_stat
    assert abs(conditions_gamma_stat(conds, 3) - gs) < 1e-9 * (1 + abs(gs))


@settings(max_examples=12, deadline=None)
@given(q=st.sampled_from([2, 3, 4]), d=st.sampled_from([2, 3]),
       seed=st.integers(0, 2 ** 32 - 1),
       alphas=st.lists(st.floats(-2.0, 2.0).filter(lambda a: abs(a) > 0.05),
                       min_size=2, max_size=2,
                       unique_by=lambda a: round(a, 6)))
def test_conditions_aggregate_to_gamma_stat_property(q, d, seed, alphas):
    # gamma_stat (gamma_sequence) against the buckets (gamma_explicit)
    spec = TargetSpec(tuple(alphas))
    f = random_kernel(q, d, np.random.default_rng(seed), scale=0.6)
    conds = q_chaos_conditions(f, spec, max_order=12)
    gs = criterion_statistic(ChaosExpansion.from_kernel(f), spec,
                             max_order=12).gamma_stat
    assert abs(conditions_gamma_stat(conds, q) - gs) < 1e-9 * (1 + abs(gs))


def test_criterion_statistic_builds_one_gamma_sequence(monkeypatch):
    calls = []
    original = chaos.gamma_sequence

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(chaos, "gamma_sequence", counting)
    f = random_kernel(3, 3, np.random.default_rng(8))
    criterion_statistic(ChaosExpansion.from_kernel(f), TargetSpec((1.0, 2.0)))
    assert len(calls) == 1


def test_the_criterion_and_the_conditions_hold_no_kernel_twice(peak_mb):
    # (q, d) = (3, 16) at max_order=12, a point of perfbench's exact grid:
    # the traced peak is 25.1 MB, and a copy of each computed kernel held
    # beside it took the peak to 34.1 MB
    f = random_kernel(3, 16, np.random.default_rng((0, 3, 16)))
    spec = TargetSpec((1.0, 2.0))
    F = ChaosExpansion.from_kernel(f)
    assert peak_mb(lambda: (criterion_statistic(F, spec, max_order=12),
                            q_chaos_conditions(f, spec, max_order=12))) < 28.0


def test_q4_conditions_aggregate_to_gamma_stat():
    # even q exercises the middle contraction term; the aggregate identity
    # gamma_stat = (1/2) sum_m m! cond_m pins its q (r-1)! C(q-1,r-1)^2 weight
    rng = np.random.default_rng(77)
    spec = TargetSpec((0.9, -1.4))
    for _ in range(3):
        f = random_kernel(4, 2, rng, scale=0.5)
        conds = q_chaos_conditions(f, spec, max_order=12)
        assert set(conds) == {"a", "b1", "b2_k2", "b2_k3", "b2_k5", "b2_k6",
                              "b3_k7", "b3_k8"}
        gs = criterion_statistic(ChaosExpansion.from_kernel(f), spec,
                                 max_order=12).gamma_stat
        assert abs(gs - conditions_gamma_stat(conds, 4)) < 1e-9 * (1 + abs(gs))
        # every odd chaos order vanishes when q is even
        assert conds["b2_k3"] == 0.0 and conds["b2_k5"] == 0.0 \
            and conds["b3_k7"] == 0.0


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_each_bucket_holds_one_order_of_the_combination(q):
    # criteria owns the bucket -> order map: b1 (order q) first, every
    # order in 1..3q-4 once (order 1 at odd q only), and each bucket is the
    # squared norm of its order's kernel in the gamma_sequence combination
    spec = TargetSpec((0.9, -1.4))
    f = random_kernel(q, 2, np.random.default_rng(q), scale=0.6)
    conds = q_chaos_conditions(f, spec, max_order=3 * q)
    buckets = criteria._buckets(q)
    assert list(conds) == ["a"] * (q % 2 == 0) + list(buckets)
    assert list(buckets.items())[0] == ("b1", q)
    assert sorted(buckets.values()) == [m for m in range(1, 3 * q - 3)
                                        if m > 1 or q % 2]
    F = ChaosExpansion.from_kernel(f)
    comb = gamma_combination(F, spec, max_order=3 * q)
    for key, m in buckets.items():
        want = float(np.sum(comb.kernel(m) ** 2))
        assert abs(conds[key] - want) < 1e-9 * (1 + want), (key, m)
    gs = criterion_statistic(F, spec, max_order=3 * q).gamma_stat
    assert abs(conditions_gamma_stat(conds, q) - gs) < 1e-9 * (1 + abs(gs))
    # one bucket at 1 and the rest at 0 reads m!/2: the sum takes each
    # bucket at its own order
    for key, m in buckets.items():
        unit = dict.fromkeys(conds, 0.0) | {key: 1.0}
        assert conditions_gamma_stat(unit, q) == math.factorial(m) / 2


def test_an_order_the_combination_lacks_reads_zero_without_a_kernel(monkeypatch):
    # at even q every odd order is absent; its bucket is 0.0 without the
    # d^m zero kernel that ChaosExpansion.kernel makes for an absent order
    asked = []
    kernel = ChaosExpansion.kernel

    def recording(self, q):
        asked.append((q, q in self.orders()))
        return kernel(self, q)

    monkeypatch.setattr(ChaosExpansion, "kernel", recording)
    f = random_kernel(4, 2, np.random.default_rng(9), scale=0.6)
    conds = q_chaos_conditions(f, TargetSpec((0.9, -1.4)), max_order=12)
    assert [conds[key] for key in ("b2_k3", "b2_k5", "b3_k7")] == [0.0] * 3
    assert asked and all(present for _, present in asked)


def test_q_chaos_kappa3_relation():
    # condition (a) carries the third cumulant: kappa_3 = 2 E[Gamma_2] =
    # 2 q q! (q/2-1)! C(q-1, q/2-1)^2 <f ~x_{q/2} f, f> for even q
    rng = np.random.default_rng(6)
    for q, d in [(2, 4), (4, 2)]:
        f = random_kernel(q, d, rng, scale=0.6)
        conds = q_chaos_conditions(f, TargetSpec((0.5, -0.5)), max_order=12)
        const = 2 * q * math.factorial(q) * math.factorial(q // 2 - 1) \
            * math.comb(q - 1, q // 2 - 1) ** 2
        kappa3 = exact_cumulants(ChaosExpansion.from_kernel(f), 3,
                                 max_order=3 * q)[2]
        assert abs(const * conds["a"] - kappa3) < 1e-9 * (1 + abs(kappa3))


# --- power sums -----------------------------------------------------------------------

def test_power_sum_match_permuted():
    res = power_sum_match([1.0, 2.0, 3.0], [3.0, 1.0, 2.0], pmax=3)
    assert res.equal and res.power_sums_agree
    a, b = np.array([1.0, 2.0, 3.0]), np.array([3.0, 1.0, 2.0])
    assert np.allclose(a, b[list(res.permutation)])


def test_power_sum_match_detects_mismatch():
    res = power_sum_match([1.0, 2.0], [1.5, 1.5], pmax=3)
    assert not res.equal
    assert res.first_power_mismatch == 2
    assert abs(res.power_sums_a[1] - 5.0) < 1e-15
    assert abs(res.power_sums_b[1] - 4.5) < 1e-15
    assert res.permutation is None


def test_power_sum_match_empty_and_zero_padding():
    assert power_sum_match([], [], pmax=2).equal
    res = power_sum_match([1.0, 0.0, 2.0], [2.0, 1.0], pmax=3)
    assert res.equal and res.power_sums_agree
    a_pad = np.array([1.0, 0.0, 2.0])
    b_pad = np.array([2.0, 1.0, 0.0])
    assert np.allclose(a_pad, b_pad[list(res.permutation)])


def test_power_sum_forward_check_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.uniform(-2, 2, size=rng.integers(1, 6))
        b = rng.permutation(a)
        res = power_sum_match(a, b, pmax=max(6, len(a)))
        assert res.equal and res.power_sums_agree


def test_poly_expectation_needs_a_moment_for_each_degree():
    cubic = [1.0, 0.0, 0.0, 2.0]  # 1 + 2 x^3
    with pytest.raises(ValueError, match="degree 3 needs 3 moments, got 2"):
        criteria._poly_expectation(cubic, [0.0, 1.0])
    assert criteria._poly_expectation(cubic, [0.0, 1.0, 0.5]) == 2.0
