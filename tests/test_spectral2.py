import math

import numpy as np
import pytest

from chi2chaos import chaos, criteria, montecarlo
from chi2chaos.chaos import ChaosExpansion, exact_cumulants, moments_from_cumulants
from chi2chaos.errors import ConfigError
from chi2chaos.spectral2 import (
    SpectralForm,
    TargetSpec,
    cumulant_spectral,
    cumulant_spectral_forms,
    gamma_identity_defect,
    iterated_contraction,
    spectral,
    target_kernel,
)
from chi2chaos.sym_tensor import SymmetricKernel, basis_kernel, contract, random_kernel


def test_target_spec_validation():
    TargetSpec((1.0, -2.0, 0.5))
    with pytest.raises(ConfigError):
        TargetSpec(())
    with pytest.raises(ConfigError):
        TargetSpec((1.0, 0.0))
    with pytest.raises(ConfigError):
        TargetSpec((1.0, 2.0, 1.0))
    # a weight that is not a finite real number is a ConfigError naming it
    for bad in ("x", True, None, [1.0], math.nan, -math.inf, 10 ** 400):
        with pytest.raises(ConfigError, match=r"^alphas\[1\]"):
            TargetSpec((1.0, bad))
    assert TargetSpec((np.float64(1.5), 2)).alphas == (1.5, 2.0)


def test_target_cumulant_beyond_the_float_range_is_inf():
    # a Python float power raises OverflowError instead
    with np.errstate(over="ignore"):
        assert TargetSpec((1e200,)).cumulant(2) == math.inf
        assert TargetSpec((-1e200,)).cumulant(3) == -math.inf
        assert math.isnan(TargetSpec((1e200, -1e200)).cumulant(3))
    spec = TargetSpec((0.5, -1.5, 3.0))
    for r in range(2, 8):
        assert spec.cumulant(r) == (2.0 ** (r - 1) * math.factorial(r - 1)
                                    * sum(a ** r for a in spec.alphas))


def test_hs_matrix_examples():
    # an order-2 kernel's Hilbert-Schmidt matrix is its coefficient array
    f = SymmetricKernel(2, 2, np.diag([2.0, 5.0]))
    assert np.allclose(f.coeffs, np.diag([2.0, 5.0]))
    g = basis_kernel(2, (0, 1))
    assert np.allclose(g.coeffs, [[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError, match="order must be 2"):
        spectral(basis_kernel(2, (0, 0, 1)))


def test_hs_matrix_acts_as_contraction():
    rng = np.random.default_rng(0)
    f = random_kernel(2, 4, rng)
    g = random_kernel(1, 4, rng)
    assert np.allclose(f.coeffs @ g.coeffs, contract(f, g, 1))


def test_spectral_examples():
    f = SymmetricKernel(2, 2, np.diag([3.0, 1.0]))
    form = spectral(f)
    assert np.allclose(form.eigenvalues, [3.0, 1.0])

    g = basis_kernel(2, (0, 1))
    form = spectral(g)
    assert np.allclose(form.eigenvalues, [0.5, -0.5])

    z = SymmetricKernel(2, 3, np.zeros((3, 3)))
    assert np.allclose(spectral(z).eigenvalues, 0.0)


def test_spectral_reconstruction_and_frame():
    rng = np.random.default_rng(1)
    f = random_kernel(2, 6, rng)
    form = spectral(f)
    recon = (form.eigenvectors * form.eigenvalues) @ form.eigenvectors.T
    assert np.max(np.abs(recon - f.coeffs)) < 1e-10 * max(f.norm, 1.0)
    gram = form.eigenvectors.T @ form.eigenvectors
    assert np.max(np.abs(gram - np.eye(6))) < 1e-12
    # sign convention: first significant component positive
    for j in range(6):
        col = form.eigenvectors[:, j]
        lead = col[np.abs(col) > 1e-12 * np.max(np.abs(col))][0]
        assert lead > 0


def test_iterated_contraction():
    f = SymmetricKernel(2, 2, np.diag([2.0, -1.0]))
    assert np.allclose(iterated_contraction(f, 1).coeffs, f.coeffs)
    assert np.allclose(iterated_contraction(f, 3).coeffs, np.diag([8.0, -1.0]))
    with pytest.raises(ValueError):
        iterated_contraction(f, 0)


def test_iterated_contraction_matches_matrix_power():
    rng = np.random.default_rng(2)
    f = random_kernel(2, 4, rng)
    for p in (2, 3, 4):
        want = np.linalg.matrix_power(f.coeffs, p)
        assert np.max(np.abs(iterated_contraction(f, p).coeffs - want)) < 1e-12


def test_cumulant_spectral_examples():
    f = basis_kernel(2, (0, 0))
    assert abs(cumulant_spectral(f, 2) - 2.0) < 1e-12
    assert abs(cumulant_spectral(f, 3) - 8.0) < 1e-12
    assert abs(cumulant_spectral(f, 4) - 48.0) < 1e-12

    sym = target_kernel(TargetSpec((0.5, -0.5)), 2)
    assert abs(cumulant_spectral(sym, 3)) < 1e-12

    two = target_kernel(TargetSpec((1.0, 2.0)), 2)
    assert abs(cumulant_spectral(two, 2) - 10.0) < 1e-12


def test_cumulant_spectral_forms_agree():
    rng = np.random.default_rng(3)
    f = random_kernel(2, 5, rng)
    for i in range(2, 7):
        a, b = cumulant_spectral_forms(f, i)
        assert abs(a - b) < 1e-10 * (1 + abs(a) + abs(b))


def test_target_kernel_examples():
    spec1 = TargetSpec((1.0,))
    k1 = target_kernel(spec1, 1)
    assert np.allclose(k1.coeffs, [[1.0]])

    spec = TargetSpec((0.5, -0.5))
    k = target_kernel(spec, 3)
    assert np.allclose(k.coeffs, np.diag([0.5, -0.5, 0.0]))
    assert np.allclose(spectral(k).eigenvalues, [0.5, 0.0, -0.5])

    with pytest.raises(ValueError):
        target_kernel(spec, 1)


def test_target_cumulants_cross_module():
    spec = TargetSpec((1.0, -2.0, 0.7))
    k = target_kernel(spec, 4)
    for i in range(2, 7):
        assert abs(cumulant_spectral(k, i) - spec.cumulant(i)) \
            < 1e-12 * (1 + abs(spec.cumulant(i)))


def test_gamma_identity_defect_examples():
    f = basis_kernel(2, (0, 0))
    assert gamma_identity_defect(f, 1) == 0.0
    assert gamma_identity_defect(f, 2) < 1e-13

    rng = np.random.default_rng(4)
    g = random_kernel(2, 5, rng)
    for r in (1, 2, 3, 4):
        assert gamma_identity_defect(g, r) < 1e-10 * (1 + g.norm ** r)


def test_four_way_equality_random():
    rng = np.random.default_rng(5)
    for trial in range(10):
        d = int(rng.integers(2, 9))
        f = random_kernel(2, d, rng)
        F = ChaosExpansion.from_kernel(f)
        for alphas in [(1.0,), (0.5, -0.5), (1.0, -0.4, 2.3)]:
            spec = TargetSpec(alphas)
            polys = criteria.build_polynomials(spec)
            kappas = exact_cumulants(F, polys.deg_q)
            e2 = criteria.weighted_cumulant_sum(kappas, polys)
            eig = spectral(f).eigenvalues
            q_sum = float(np.sum(np.polynomial.polynomial.polyval(eig, polys.q)))
            m = sum(polys.p[r] * np.linalg.matrix_power(f.coeffs, r)
                    for r in range(1, polys.deg_p + 1))
            e3 = float(np.sum(m ** 2))
            e4 = criteria.criterion_statistic(F, spec).gamma_stat
            ref = 1e-9 * (1 + abs(e2))
            assert abs(e2 - q_sum) < ref and abs(e2 - e3) < ref and abs(e2 - e4) < ref


def test_four_way_vanishes_at_target():
    for alphas in [(1.0,), (0.5, -0.5), (1.0, 2.0, -0.5)]:
        spec = TargetSpec(alphas)
        f = target_kernel(spec, spec.k + 1)
        F = ChaosExpansion.from_kernel(f)
        polys = criteria.build_polynomials(spec)
        scale = 1e-10 * (1 + f.norm ** (2 * (spec.k + 1)))
        kappas = exact_cumulants(F, polys.deg_q)
        assert abs(criteria.weighted_cumulant_sum(kappas, polys)) < scale
        assert criteria.criterion_statistic(F, spec).gamma_stat < scale


def test_moment_determinacy_hook_montecarlo():
    rng = np.random.default_rng(6)
    f = random_kernel(2, 3, rng, scale=0.5)
    kappas = [0.0] + [cumulant_spectral(f, i) for i in range(2, 7)]
    moments = moments_from_cumulants(kappas, 6)
    batch = montecarlo.sample_chaos(ChaosExpansion.from_kernel(f), 1_000_000, 99)
    vals = batch.values
    for m in range(1, 7):
        est = float(np.mean(vals ** m))
        se = float(np.std(vals ** m)) / math.sqrt(len(vals))
        assert abs(est - moments[m - 1]) < 4 * se, m
