import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from chi2chaos import sym_tensor
from chi2chaos.chaos import ChaosExpansion
from chi2chaos.errors import ResourceGuardError
from chi2chaos.sym_tensor import (
    SymmetricKernel,
    basis_kernel,
    contract,
    inner,
    random_kernel,
    sym_contract,
    symmetrize,
)


def brute_force_symmetrize(t):
    q = t.ndim
    acc = np.zeros_like(t)
    for perm in itertools.permutations(range(q)):
        acc += t.transpose(perm)
    return acc / math.factorial(q)


def matricized_contract(f, g, r):
    d = f.dim
    p, q = f.order, g.order
    a = f.coeffs.reshape(d ** (p - r), d ** r)
    b = g.coeffs.reshape(d ** (q - r), d ** r)
    return (a @ b.T).reshape((d,) * (p + q - 2 * r))


def test_symmetrize_two_permutation_average():
    t = np.zeros((2, 2))
    t[0, 1] = 1.0
    s = symmetrize(t)
    assert np.allclose(s, [[0.0, 0.5], [0.5, 0.0]])


def test_symmetrize_idempotent_on_symmetric_input():
    rng = np.random.default_rng(0)
    f = random_kernel(3, 3, rng)
    assert np.allclose(symmetrize(f.coeffs), f.coeffs, atol=1e-14)


def test_symmetrize_six_permutation_enumeration():
    # e1 x e1 x e2: value 1/3 on the three arrangements, 0 elsewhere
    t = np.zeros((2, 2, 2))
    t[0, 0, 1] = 1.0
    s = symmetrize(t)
    for pos in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]:
        assert abs(s[pos] - 1.0 / 3.0) < 1e-15
    assert abs(s.sum() - 1.0) < 1e-15
    assert np.allclose(s, brute_force_symmetrize(t))


def test_symmetrize_blocks_equals_full_average():
    rng = np.random.default_rng(1)
    a = symmetrize(rng.standard_normal((3, 3)))
    b = symmetrize(rng.standard_normal((3, 3, 3)))
    t = np.tensordot(a, b, axes=0)
    assert np.allclose(symmetrize(t), brute_force_symmetrize(t), atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(hst.integers(0, 6), hst.integers(1, 4), hst.integers(0, 2**32 - 1))
def test_symmetrize_matches_permutation_average_property(q, d, seed):
    t = np.random.default_rng(seed).standard_normal((d,) * q)
    want = brute_force_symmetrize(t)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert np.max(np.abs(symmetrize(t) - want)) <= 1e-12 * scale


def test_symmetrize_order_two_is_bitwise_half_sum():
    t = np.random.default_rng(6).standard_normal((7, 7))
    assert np.array_equal(symmetrize(t), (t + t.T) / 2)


def test_symmetrize_order_ten_single_arrangement():
    # e0^{x9} x e1: 1/10 on each of its ten arrangements, 0 elsewhere
    t = np.zeros((2,) * 10)
    t[(0,) * 9 + (1,)] = 1.0
    s = symmetrize(t, max_order=10)
    for k in range(10):
        pos = [0] * 10
        pos[k] = 1
        assert abs(s[tuple(pos)] - 0.1) < 1e-15
        s[tuple(pos)] = 0.0
    assert not np.any(s)


def test_symmetrize_order_guard():
    with pytest.raises(ResourceGuardError):
        symmetrize(np.zeros((1,) * 9))
    # configurable
    out = symmetrize(np.zeros((1,) * 9), max_order=9)
    assert out.shape == (1,) * 9


def test_element_guard():
    with pytest.raises(ResourceGuardError):
        random_kernel(8, 10, np.random.default_rng(0))  # 10^8 entries


def test_basis_kernel_guard_fires_before_allocating(guard_peak_mb):
    # 20^6 entries would be 512 MB
    assert guard_peak_mb(lambda: basis_kernel(20, (0,) * 6)) < 8.0


def test_contract_single_basis():
    f = basis_kernel(2, (0, 0))
    out = contract(f, f, 1)
    expect = np.zeros((2, 2))
    expect[0, 0] = 1.0
    assert np.allclose(out, expect)
    assert abs(float(contract(f, f, 2)) - 1.0) < 1e-15


def test_contract_diagonal_matrix_product():
    m = np.diag([2.0, -3.0])
    f = SymmetricKernel(2, 2, m)
    out = contract(f, f, 1)
    assert np.allclose(out, m @ m)


def test_contract_matches_matricization_oracle():
    rng = np.random.default_rng(2)
    for p, q, d in [(2, 2, 3), (3, 2, 3), (3, 3, 2), (4, 2, 2)]:
        f = random_kernel(p, d, rng)
        g = random_kernel(q, d, rng)
        for r in range(min(p, q) + 1):
            got = contract(f, g, r)
            want = matricized_contract(f, g, r)
            scale = max(np.max(np.abs(want)), 1.0)
            assert np.max(np.abs(got - want)) < 1e-12 * scale


def test_contract_argument_errors():
    f = basis_kernel(2, (0, 0))
    g = basis_kernel(3, (0, 0))
    with pytest.raises(ValueError):
        contract(f, f, 3)
    with pytest.raises(ValueError):
        contract(f, f, -1)
    with pytest.raises(ValueError):
        contract(f, g, 1)


def test_sym_contract_examples():
    f = basis_kernel(2, (0, 0))
    g = basis_kernel(2, (1, 1))
    out = sym_contract(f, f, 1)
    assert np.allclose(out.coeffs, f.coeffs)
    # r = 0 against the 24-permutation enumeration oracle
    out0 = sym_contract(f, g, 0)
    brute = brute_force_symmetrize(np.tensordot(f.coeffs, g.coeffs, axes=0))
    assert np.allclose(out0.coeffs, brute, atol=1e-14)
    # full contraction is the scalar inner product
    full = sym_contract(f, g, 2)
    assert full.order == 0 and abs(float(full.coeffs)) < 1e-15
    assert abs(float(sym_contract(f, f, 2).coeffs) - 1.0) < 1e-15


def test_sym_contract_is_commutative():
    rng = np.random.default_rng(3)
    f = random_kernel(3, 3, rng)
    g = random_kernel(2, 3, rng)
    for r in range(3):
        a = sym_contract(f, g, r)
        b = sym_contract(g, f, r)
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-13)


def test_sym_contract_norm_contractive():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p, q, d = rng.integers(1, 4), rng.integers(1, 4), rng.integers(2, 4)
        f = random_kernel(int(p), int(d), rng)
        g = random_kernel(int(q), int(d), rng)
        for r in range(min(f.order, g.order) + 1):
            assert sym_contract(f, g, r).norm <= f.norm * g.norm * (1 + 1e-12)


def test_inner_examples():
    e11 = basis_kernel(2, (0, 0))
    e22 = basis_kernel(2, (1, 1))
    e12 = basis_kernel(2, (0, 1))
    assert abs(inner(e11, e11) - 1.0) < 1e-15
    assert abs(inner(e11, e22)) < 1e-15
    assert abs(inner(e12, e12) - 0.5) < 1e-15
    with pytest.raises(ValueError):
        inner(e11, basis_kernel(3, (0, 0)))


def test_kernel_immutable():
    f = basis_kernel(2, (0, 1))
    with pytest.raises(ValueError):
        f.coeffs[0, 0] = 5.0


def test_kernel_shares_sealed_arrays_and_copies_writable_ones():
    f = random_kernel(3, 3, np.random.default_rng(5))
    F = ChaosExpansion.from_kernel(f)
    assert SymmetricKernel(3, 3, F.kernel(3)).coeffs is F.kernel(3)

    writable = np.array(f.coeffs)
    k = SymmetricKernel(3, 3, writable)
    writable[0, 0, 0] += 1.0
    assert np.array_equal(k.coeffs, f.coeffs)
    assert not k.coeffs.flags.writeable

    for r in range(4):
        assert not sym_contract(f, f, r).coeffs.flags.writeable


def test_order_zero_kernel():
    k = SymmetricKernel(0, 3, np.asarray(2.5))
    assert k.norm == 2.5
    assert float(contract(k, k, 0)) == 6.25
