import ast
import dataclasses
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import chi2chaos
from chi2chaos import chaos, criteria, montecarlo, spectral2, sym_tensor
from chi2chaos.chaos import ChaosExpansion
from chi2chaos.cli import family_kernel
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


# each kernel builder with arguments that put its array above the element
# guard (20^6 entries would be 512 MB); the contractions' results are of
# order 8 at d = 40, from an order-4 operand f built before the traced call
OVERSIZED = {
    "basis_kernel": lambda f: basis_kernel(20, (0,) * 6),
    "random_kernel": lambda f: random_kernel(8, 10, np.random.default_rng(0)),
    "target_kernel": lambda f: spectral2.target_kernel(
        spectral2.TargetSpec((1.0,)), 10 ** 6),
    "diag-4000": lambda f: family_kernel(
        {"name": "diag", "entries": [[1.0, 0.0]] * 4000}, 1),
    "equal-split-5000": lambda f: family_kernel({"name": "equal-split"}, 5000),
    "equal-split-1e400": lambda f: family_kernel({"name": "equal-split"},
                                                 10 ** 400),
    "absent-order": lambda f: ChaosExpansion(3).kernel(25),
    "contract": lambda f: contract(f, f, 0),
    "sym_contract": lambda f: sym_contract(f, f, 0),
}


@pytest.mark.parametrize("builder", OVERSIZED)
def test_every_kernel_builder_raises_the_guard_before_allocating(
        builder, guard_peak_mb):
    # a MemoryError or an OverflowError would mean that an array was sized
    # outside sym_tensor's guards
    f = SymmetricKernel(4, 40, np.zeros((40,) * 4))
    assert guard_peak_mb(lambda: OVERSIZED[builder](f)) < 1.0


def test_only_sym_tensor_names_the_size_guard():
    # every kernel array is sized by sym_tensor._zeros behind the guards,
    # so no other module checks them itself
    found = []
    for path in sorted(Path(chi2chaos.__file__).parent.glob("*.py")):
        if path.name == "sym_tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if "_check_guard" in (getattr(node, key, None)
                                  for key in ("id", "attr", "name")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


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


def tensordot_contract(f, g, r):
    """The reference: contract as one np.tensordot over the last r axes."""
    p, q = f.order, g.order
    return np.tensordot(f.coeffs, g.coeffs,
                        axes=(list(range(p - r, p)), list(range(q - r, q))))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_contract_matches_the_tensordot_formula(d):
    # every (p, q, r) with p, q <= 4, order-0 operands and r = 0 among them.
    # The two sum in different orders, so they agree to a few ulp of
    # sum |f||g|, the contraction of the absolute values
    rng = np.random.default_rng(d)
    eps = np.finfo(float).eps
    for p, q in itertools.product(range(5), repeat=2):
        f, g = random_kernel(p, d, rng), random_kernel(q, d, rng)
        abs_f = SymmetricKernel(p, d, np.abs(f.coeffs))
        abs_g = SymmetricKernel(q, d, np.abs(g.coeffs))
        for r in range(min(p, q) + 1):
            got, want = contract(f, g, r), tensordot_contract(f, g, r)
            assert isinstance(got, np.ndarray)
            assert got.shape == want.shape == (d,) * (p + q - 2 * r)
            bound = 4 * eps * tensordot_contract(abs_f, abs_g, r)
            assert np.all(np.abs(got - want) <= bound), (p, q, r)


def test_contract_of_a_diagonal_kernel_is_bitwise_the_tensordot_formula():
    # gaussian-counterexample's kernel at n = 256, and a random diagonal:
    # one product per entry at r = 1, so no summation order shows
    kernels = [family_kernel({"name": "equal-split"}, 256),
               SymmetricKernel(2, 256, np.diag(
                   np.random.default_rng(6).standard_normal(256)))]
    for f in kernels:
        got = contract(f, f, 1)
        assert got.tobytes() == tensordot_contract(f, f, 1).tobytes()
    f = kernels[0]
    got = contract(f, f, 2)
    assert got.tobytes() == tensordot_contract(f, f, 2).tobytes()


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
            h = sym_contract(f, g, r)
            assert math.sqrt(inner(h, h)) <= (
                math.sqrt(inner(f, f)) * math.sqrt(inner(g, g)) * (1 + 1e-12))


def test_inner_examples():
    e11 = basis_kernel(2, (0, 0))
    e22 = basis_kernel(2, (1, 1))
    e12 = basis_kernel(2, (0, 1))
    assert abs(inner(e11, e11) - 1.0) < 1e-15
    assert abs(inner(e11, e22)) < 1e-15
    assert abs(inner(e12, e12) - 0.5) < 1e-15
    with pytest.raises(ValueError):
        inner(e11, basis_kernel(3, (0, 0)))
    with pytest.raises(ValueError, match="^order mismatch: 2 != 1$"):
        inner(e11, basis_kernel(2, (0,)))


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

    # what the library computes is sealed, so a kernel holds it as it is
    for g in (f, basis_kernel(3, (0, 1, 1)),
              *(sym_contract(f, f, r) for r in range(4))):
        assert not g.coeffs.flags.writeable
        assert SymmetricKernel(g.order, 3, g.coeffs).coeffs is g.coeffs


@pytest.mark.parametrize("order, coeffs, gap", [
    # evaluate reads x^T f x (variance 8), the exact engine 2 ||f||^2 = 12
    (2, [[1.0, 2.0], [0.0, 1.0]], "0.5"),
    # exact variance 840, pathwise about 467
    (3, np.arange(8.0).reshape(2, 2, 2), "0.238"),
])
def test_a_kernel_that_is_not_symmetric_raises_value_error(order, coeffs, gap):
    with pytest.raises(ValueError, match=(
            f"^order-{order} coeffs differ from their symmetrization by "
            f"{gap} of their largest \\|coefficient\\|, above 1e-12$")):
        SymmetricKernel(order, 2, coeffs)
    with pytest.raises(ValueError, match="symmetrization"):
        ChaosExpansion(2, {order: coeffs})


def test_the_symmetry_tolerance_is_relative_to_the_largest_coefficient():
    for scale in (1e-300, 1.0, 1e300):
        near = np.array([[1.0, 1.0], [1.0 + 5e-13, 1.0]]) * scale
        SymmetricKernel(2, 2, near)
        far = np.array([[1.0, 1.0], [1.0 + 5e-12, 1.0]]) * scale
        with pytest.raises(ValueError, match="symmetrization"):
            SymmetricKernel(2, 2, far)
    # a symmetric kernel near the float range, whose plain symmetrization
    # overflows, and one that is not finite, are held
    SymmetricKernel(3, 2, np.full((2, 2, 2), 1.5e308))
    SymmetricKernel(2, 2, [[math.nan, 1.0], [2.0, 0.0]])


def test_the_symmetry_check_adds_no_guard():
    # SymmetricKernel checks no guard, so neither does its symmetry check
    for order in (1, 9):
        k = SymmetricKernel(order, 2, np.ones((2,) * order))
        assert k.order == order
    with pytest.raises(ValueError, match="^order-9 coeffs differ"):
        SymmetricKernel(9, 2, np.arange(512.0).reshape((2,) * 9))


def test_order_zero_kernel():
    k = SymmetricKernel(0, 3, np.asarray(2.5))
    assert math.sqrt(inner(k, k)) == 2.5
    assert float(contract(k, k, 0)) == 6.25


@pytest.mark.parametrize("order, dim, field", [
    (2.0, 3, "order"), ("2", 3, "order"), (True, 3, "order"),
    (2, 3.0, "dim"), (2, "3", "dim"), (2, np.True_, "dim"),
    (1.5, 3, "order"), (2, 1.5, "dim"),
])
def test_a_kernel_order_or_dim_that_is_not_an_integer_raises_value_error(
        order, dim, field):
    # order 2.0 raised TypeError from (dim,) * order, and dim 3.0 was
    # accepted until evaluate or sample_chaos used it as a size; the guard
    # compared them as they came in random_kernel and basis_kernel
    match = f"^{field} must be an integer, got "
    with pytest.raises(ValueError, match=match):
        SymmetricKernel(order, dim, np.eye(3))
    with pytest.raises(ValueError, match=match):
        random_kernel(order, dim, np.random.default_rng(0))
    if field == "dim":
        with pytest.raises(ValueError, match=match):
            ChaosExpansion(dim)
        with pytest.raises(ValueError, match=match):
            basis_kernel(dim, (0, 1))


def test_numpy_integers_are_kernel_orders_and_dims():
    f = SymmetricKernel(np.int64(2), np.uint8(3), np.eye(3))
    assert (f.order, f.dim) == (2, 3)
    assert type(f.order) is int and type(f.dim) is int
    F = ChaosExpansion(np.int32(3), {np.int16(2): np.eye(3)})
    assert F.dim == 3 and F.orders() == [2]


_F2 = SymmetricKernel(2, 2, [[0.0, 0.5], [0.5, 0.5]])
_CHAOS2 = ChaosExpansion.from_kernel(_F2)
_SPEC = spectral2.TargetSpec((1.0, -0.5))
_SAMPLE = np.linspace(-1.0, 2.0, 60)

# every public count argument: its name, a call taking it, a value in range
# and the values on either side of the range
COUNT_ARGUMENTS = {
    "hermite.q": ("q", lambda v: chaos.hermite(v, 0.5), 3, [-1]),
    "ChaosExpansion.kernel.q": ("q", lambda v: _CHAOS2.kernel(v), 2, [-1]),
    "gamma_sequence.imax": (
        "imax", lambda v: chaos.gamma_sequence(_CHAOS2, v), 2, [-1]),
    "gamma_explicit.i": ("i", lambda v: chaos.gamma_explicit(_F2, v), 2, [0]),
    "exact_cumulants.jmax": (
        "jmax", lambda v: chaos.exact_cumulants(_CHAOS2, v), 4, [0]),
    "moments_from_cumulants.mmax": (
        "mmax", lambda v: chaos.moments_from_cumulants([0.5, 2.0, 1.0], v),
        3, [-1]),
    "power_sum_match.pmax": (
        "pmax", lambda v: criteria.power_sum_match([1.0, 2.0], [2.0], v),
        3, [-1]),
    "k_statistics.rmax": (
        "rmax", lambda v: montecarlo.k_statistics(_SAMPLE, v), 4, [0, 5]),
    "k_statistic_errors.rmax": (
        "rmax", lambda v: montecarlo.k_statistic_errors(_SAMPLE, v), 4, [0, 5]),
    "TargetSpec.cumulant.r": ("r", lambda v: _SPEC.cumulant(v), 3, [0]),
    "TargetSpec.cumulants.rmax": ("rmax", lambda v: _SPEC.cumulants(v), 4, [-1]),
    "iterated_contraction.p": (
        "p", lambda v: spectral2.iterated_contraction(_F2, v), 3, [0]),
    "cumulant_spectral_forms.i": (
        "i", lambda v: spectral2.cumulant_spectral_forms(_F2, v), 3, [1]),
    "gamma_identity_defect.r": (
        "r", lambda v: spectral2.gamma_identity_defect(_F2, v), 3, [0]),
    "contract.r": ("r", lambda v: contract(_F2, _F2, v), 1, [-1, 3]),
    "sym_contract.r": ("r", lambda v: sym_contract(_F2, _F2, v), 1, [-1, 3]),
    "random_kernel.order": (
        "order", lambda v: random_kernel(v, 2, np.random.default_rng(0)),
        3, [-1]),
    "random_kernel.dim": (
        "dim", lambda v: random_kernel(3, v, np.random.default_rng(0)), 2, [0]),
    "basis_kernel.dim": ("dim", lambda v: basis_kernel(v, (0, 1)), 3, [0]),
    "random_kernel.max_order": (
        "max_order", lambda v: random_kernel(2, 2, np.random.default_rng(0),
                                             max_order=v), 8, [-1]),
    "symmetrize.max_order": (
        "max_order", lambda v: symmetrize(np.arange(4.0).reshape(2, 2),
                                          max_order=v), 8, [-1]),
    "sym_contract.max_order": (
        "max_order", lambda v: sym_contract(_F2, _F2, 1, max_order=v), 8, [-1]),
    "gamma_sequence.max_order": (
        "max_order", lambda v: chaos.gamma_sequence(_CHAOS2, 2, max_order=v),
        8, [-1]),
    "gamma_explicit.max_order": (
        "max_order", lambda v: chaos.gamma_explicit(_F2, 2, max_order=v),
        8, [-1]),
    # calls that form no contraction check max_order all the same
    "gamma_sequence.max_order at imax 0": (
        "max_order", lambda v: chaos.gamma_sequence(_CHAOS2, 0, max_order=v),
        8, [-1]),
    "exact_cumulants.max_order at jmax 1": (
        "max_order", lambda v: chaos.exact_cumulants(_CHAOS2, 1, max_order=v),
        8, [-1]),
    "chaos_polynomial.max_order at degree 0": (
        "max_order",
        lambda v: chaos.chaos_polynomial(_CHAOS2, [1.0], max_order=v), 8, [-1]),
    # target_kernel wrote its own range check, and family_kernel had none
    "target_kernel.d": (
        "d", lambda v: spectral2.target_kernel(_SPEC, v), 3, [_SPEC.k - 1]),
    **{f"family_kernel.n {family['name']}": (
        "n", lambda v, family=family: family_kernel(family, v), 3, [0])
       for family in ({"name": "diag", "entries": [[1.0, 0.5]]},
                      {"name": "equal-split"},
                      {"name": "rank-one-difference"})},
}


@pytest.mark.parametrize("argument", COUNT_ARGUMENTS)
def test_every_count_argument_obeys_the_integer_rule(argument):
    # gamma_explicit(f, 1.5) recursed until RecursionError, hermite(True, x)
    # returned two rows and k_statistics(x, True) read True as 1
    name, call, _, outside = COUNT_ARGUMENTS[argument]
    for value in [1.5, 2.0, True, "2", *outside]:
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
            call(value)


def _bits(result):
    """``result`` as a comparable value that keeps every type and bit."""
    if isinstance(result, ChaosExpansion):
        return result.dim, [(q, _bits(result.kernel(q))) for q in result.orders()]
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if dataclasses.is_dataclass(result):
        return type(result).__name__, _bits(dataclasses.astuple(result))
    if isinstance(result, (list, tuple)):
        return [_bits(v) for v in result]
    if isinstance(result, float):
        return type(result).__name__, result.hex()
    return type(result).__name__, result


@pytest.mark.parametrize("argument", COUNT_ARGUMENTS)
def test_a_numpy_integer_count_gives_the_python_ints_bits(argument):
    _, call, value, _ = COUNT_ARGUMENTS[argument]
    assert _bits(call(np.int64(value))) == _bits(call(value))


@pytest.mark.parametrize("call", [
    lambda: chaos.gamma_explicit(basis_kernel(2, (0,)), 1),
    lambda: criteria.q_chaos_conditions(basis_kernel(2, (0,)), _SPEC),
])
def test_a_kernel_of_order_below_2_has_no_gamma_operators(call):
    with pytest.raises(ValueError, match="^kernel order must be >= 2, got 1$"):
        call()


def test_only_sym_tensor_seals_an_array():
    # sym_tensor._sealed is the one place that makes an array read-only
    found = []
    for path in sorted(Path(chi2chaos.__file__).parent.glob("*.py")):
        if path.name == "sym_tensor.py":
            continue
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Assign)
                  and any(getattr(target, "attr", None) == "writeable"
                          for target in node.targets)]
    assert found == []


_F4 = random_kernel(4, 6, np.random.default_rng((0, 4, 6)))
_CHAOS4 = ChaosExpansion.from_kernel(_F4)
_TWO_WEIGHTS = spectral2.TargetSpec((1.0, 2.0))

# every library call that computes a kernel or a sample
COMPUTED = {
    "criterion_statistic": lambda: criteria.criterion_statistic(
        _CHAOS4, _TWO_WEIGHTS, max_order=12),
    "q_chaos_conditions": lambda: criteria.q_chaos_conditions(
        _F4, _TWO_WEIGHTS, max_order=12),
    "iterated_contraction": lambda: spectral2.iterated_contraction(_F2, 3),
    "target_kernel": lambda: spectral2.target_kernel(_TWO_WEIGHTS, 4),
    "random_kernel": lambda: random_kernel(3, 4, np.random.default_rng(0)),
    "basis_kernel": lambda: basis_kernel(3, (0, 1, 1)),
    "apply_L": lambda: chaos.apply_L(_CHAOS4),
    "apply_L_inverse": lambda: chaos.apply_L_inverse(_CHAOS4),
    "gamma_explicit": lambda: chaos.gamma_explicit(_F2, 2),
    "multiply": lambda: chaos.multiply(_CHAOS2, _CHAOS2),
    "sum of disjoint orders": lambda: _CHAOS4 + ChaosExpansion.from_kernel(
        random_kernel(2, 6, np.random.default_rng(1))) + 1.0,
    "scalar multiple": lambda: 2.0 * _CHAOS4,
    "family diag": lambda: family_kernel(
        {"name": "diag", "entries": [[1.0, 0.5], [-0.5, 0.0]]}, 3),
    "family equal-split": lambda: family_kernel({"name": "equal-split"}, 256),
    "family rank-one-difference": lambda: family_kernel(
        {"name": "rank-one-difference"}, 3),
    "sample_target": lambda: montecarlo.sample_target(_TWO_WEIGHTS, 100, 0),
    "sample_chaos": lambda: montecarlo.sample_chaos(_CHAOS2, 100, 0),
}


def _kernels(result):
    """The kernels of a computed result, as (order, dim, coeffs)."""
    if isinstance(result, SymmetricKernel):
        return [(result.order, result.dim, result.coeffs)]
    if isinstance(result, ChaosExpansion):
        return [(q, result.dim, result.kernel(q)) for q in result.orders()]
    return []


# the calls of COMPUTED that return kernels, and the steps of the criterion
BUILT = {**{name: lambda call=call: [call()] for name, call in COMPUTED.items()
            if not name.startswith(("criterion", "q_chaos", "sample"))},
         "gamma_sequence": lambda: chaos.gamma_sequence(
             _CHAOS4, 2, max_order=12),
         "gamma_combination": lambda: [criteria.gamma_combination(
             _CHAOS4, _TWO_WEIGHTS, max_order=12)]}


@pytest.mark.parametrize("call", BUILT)
def test_every_kernel_the_library_computes_passes_the_symmetry_check(call):
    # a writable copy is held under the caller's rule, which checks symmetry
    kernels = [k for result in BUILT[call]() for k in _kernels(result)]
    assert kernels
    for order, dim, coeffs in kernels:
        held = SymmetricKernel(order, dim, np.array(coeffs))
        assert np.array_equal(held.coeffs, coeffs)


@pytest.mark.parametrize("call", COMPUTED)
def test_the_library_never_copies_what_it_computed(monkeypatch, call):
    # criterion_statistic copied 4 kernels, among them a 13 MB one of order
    # 8, and q_chaos_conditions 11
    held, copied = sym_tensor._held, []

    def spy(arr):
        kept = held(arr)
        if kept is not arr:
            copied.append(np.shape(arr))
        return kept

    monkeypatch.setattr(sym_tensor, "_held", spy)
    COMPUTED[call]()
    assert copied == []


def test_no_exception_message_is_written_twice():
    # a rule raised from two places is a rule stated twice; each message
    # that holds a literal is raised from one place
    places = {}
    for path in sorted(Path(chi2chaos.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and node.exc.args):
                continue
            message = node.exc.args[0]
            if any(isinstance(part, ast.JoinedStr)
                   or isinstance(getattr(part, "value", None), str)
                   for part in ast.walk(message)):
                places.setdefault(ast.unparse(message), []).append(
                    f"{path.name}:{node.lineno}")
    assert {message: where for message, where in places.items()
            if len(where) > 1} == {}


def test_only_the_integer_rule_words_a_range():
    # a hand-written range check words its own message; _integer is the one
    # owner of "must be >=" and "must be <"
    found = []
    for path in sorted(Path(chi2chaos.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = set()
        if path.name == "sym_tensor.py":
            rule = next(node for node in tree.body
                        if isinstance(node, ast.FunctionDef)
                        and node.name == "_integer")
            exempt = {id(node) for node in ast.walk(rule)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in exempt
                    and ("must be >=" in node.value
                         or "must be <" in node.value)):
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert found == []
