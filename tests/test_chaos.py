import ast
import math
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chi2chaos import chaos
from chi2chaos.chaos import (
    ChaosExpansion,
    apply_L,
    apply_L_inverse,
    chaos_polynomial,
    evaluate,
    exact_cumulants,
    gamma_explicit,
    gamma_sequence,
    gamma_step,
    hermite,
    l2_inner,
    l2_norm,
    moments_from_cumulants,
    multiply,
)
from chi2chaos.errors import ResourceGuardError
from chi2chaos.sym_tensor import (
    SymmetricKernel,
    basis_kernel,
    contract,
    inner,
    random_kernel,
)


def random_expansion(rng, dim, orders, scale=0.6):
    kernels = {0: np.asarray(rng.uniform(-1, 1))}
    for q in orders:
        kernels[q] = random_kernel(q, dim, rng, scale=scale).coeffs
    return ChaosExpansion(dim, kernels)


def expansions_close(F, G, tol=1e-10):
    for q in set(F.orders()) | set(G.orders()):
        a, b = F.kernel(q), G.kernel(q)
        scale = max(np.max(np.abs(a), initial=0.0),
                    np.max(np.abs(b), initial=0.0), 1.0)
        if np.max(np.abs(a - b), initial=0.0) > tol * scale:
            return False
    return True


# --- hermite ---------------------------------------------------------------

def test_hermite_values():
    assert hermite(0, 3.7) == 1.0
    assert hermite(2, 2.0) == 3.0
    assert hermite(3, 2.0) == 2.0  # 2^3 - 3*2


def test_hermite_recurrence_on_array():
    x = np.linspace(-3, 3, 11)
    assert np.allclose(hermite(4, x), x ** 4 - 6 * x ** 2 + 3)


def _hermite_running_pair(q, x):
    """Reference H_q(x): the recurrence on two running values."""
    h_prev, h = np.ones_like(x), x
    for m in range(1, q):
        h, h_prev = x * h - m * h_prev, h
    return h_prev if q == 0 else h


def test_hermite_is_bitwise_a_row_of_the_hermite_table():
    x = np.linspace(-4.0, 4.0, 33)
    table = chaos._hermite_table(x, 8)
    scalar_table = chaos._hermite_table(np.asarray(-2.7), 8)
    for q in range(9):
        assert np.array_equal(hermite(q, x), table[q])
        assert np.array_equal(hermite(q, x), _hermite_running_pair(q, x))
        h = hermite(q, -2.7)
        assert isinstance(h, float) and h == scalar_table[q]
        assert h == _hermite_running_pair(q, np.float64(-2.7))
    # written in place from a transposed block into a buffer that holds an
    # earlier table, as pathwise evaluation writes it: the same values
    block = np.random.default_rng(9).standard_normal((11, 3))
    out, work = np.full((9, 3, 11), np.nan), np.full(33, np.nan)
    for xs in (block[::-1], block):
        got = chaos._hermite_table(xs.T, 8, out, work)
        assert got is out
        assert np.array_equal(got, chaos._hermite_table(np.array(xs.T), 8))


def test_hermite_orthogonality_montecarlo():
    rng = np.random.default_rng(0)
    z = rng.standard_normal(200_000)
    assert abs(np.mean(hermite(2, z) * hermite(3, z))) < 4 * 40 / math.sqrt(len(z))
    assert abs(np.mean(hermite(3, z) ** 2) - 6.0) < 4 * 60 / math.sqrt(len(z))


# --- multiply ---------------------------------------------------------------

def test_multiply_order_one_square():
    F = ChaosExpansion.from_kernel(basis_kernel(2, (0,)))
    P = multiply(F, F)
    assert abs(P.kernel(0) - 1.0) < 1e-15
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    assert np.allclose(P.kernel(2), e11)


def test_multiply_identity():
    rng = np.random.default_rng(1)
    F = random_expansion(rng, 3, [1, 2, 3])
    one = ChaosExpansion.constant(3, 1.0)
    assert expansions_close(multiply(F, one), F, tol=1e-14)


def test_multiply_second_chaos_square_oracle():
    # I2(e1 o e1)^2 expands like H2^2 = H4 + 4 H2 + 2 in the Hermite basis
    f = basis_kernel(2, (0, 0))
    F = ChaosExpansion.from_kernel(f)
    P = multiply(F, F)
    assert abs(P.kernel(0) - 2.0) < 1e-14
    assert np.allclose(P.kernel(2), 4.0 * f.coeffs)
    e4 = np.zeros((2,) * 4)
    e4[0, 0, 0, 0] = 1.0
    assert np.allclose(P.kernel(4), e4)


def test_multiply_matches_pathwise_product():
    rng = np.random.default_rng(2)
    F = random_expansion(rng, 2, [1, 2])
    G = random_expansion(rng, 2, [1, 3])
    P = multiply(F, G)
    xs = rng.standard_normal((50, 2))
    assert np.allclose(evaluate(P, xs), evaluate(F, xs) * evaluate(G, xs),
                       atol=1e-10)


def test_multiply_overflow_guard():
    rng = np.random.default_rng(3)
    F = ChaosExpansion.from_kernel(random_kernel(5, 2, rng))
    with pytest.raises(ResourceGuardError):
        multiply(F, F)
    multiply(F, F, max_order=10)


# Each call below needs a 20^6-entry (512 MB) term: the element guard must
# fire before that tensor is allocated.
def test_gamma_sequence_guard_fires_before_allocating(guard_peak_mb):
    F = ChaosExpansion.from_kernel(random_kernel(4, 20, np.random.default_rng(4)))
    assert guard_peak_mb(lambda: gamma_sequence(F, 1)) < 8.0


def test_multiply_guard_fires_before_allocating(guard_peak_mb):
    G = ChaosExpansion.from_kernel(random_kernel(3, 20, np.random.default_rng(4)))
    assert guard_peak_mb(lambda: multiply(G, G)) < 8.0


def test_gamma_explicit_guard_fires_before_allocating(guard_peak_mb):
    f = random_kernel(4, 20, np.random.default_rng(4))
    assert guard_peak_mb(lambda: gamma_explicit(f, 1)) < 8.0


# random expansions: a mean plus kernels at 1-3 distinct orders in 1..3
expansion_args = dict(
    dim=st.integers(1, 3),
    seed=st.integers(0, 2 ** 32 - 1),
    f_orders=st.sets(st.integers(1, 3), min_size=1, max_size=3),
    g_orders=st.sets(st.integers(1, 3), min_size=1, max_size=3),
)


@settings(max_examples=25, deadline=None)
@given(**expansion_args)
def test_multiply_matches_pathwise_product_property(dim, seed, f_orders, g_orders):
    rng = np.random.default_rng(seed)
    F = random_expansion(rng, dim, sorted(f_orders))
    G = random_expansion(rng, dim, sorted(g_orders))
    xs = rng.standard_normal((20, dim))
    assert np.allclose(evaluate(multiply(F, G), xs), evaluate(F, xs) * evaluate(G, xs),
                       rtol=1e-10, atol=1e-10)


# --- evaluate ---------------------------------------------------------------

def test_evaluate_examples():
    F = ChaosExpansion.from_kernel(basis_kernel(3, (0, 0)))
    assert abs(evaluate(F, np.array([2.0, 1.0, -1.0])) - 3.0) < 1e-14
    G = ChaosExpansion.from_kernel(basis_kernel(3, (1,)))
    assert abs(evaluate(G, np.array([5.0, -0.25, 3.0])) + 0.25) < 1e-15
    H = ChaosExpansion.from_kernel(basis_kernel(3, (0, 1)))
    assert abs(evaluate(H, np.array([1.5, -2.0, 9.9])) - (1.5 * -2.0)) < 1e-14


def test_evaluate_constant():
    F = ChaosExpansion.constant(2, 3.25)
    xs = np.zeros((7, 2))
    assert np.allclose(evaluate(F, xs), 3.25)


def test_evaluate_fast_path_matches_hermite_path():
    # the order-2 fast path (quadratic form x^T f x - tr f) against the
    # Hermite-product sum sum_i f_ii H_2(x_i) + sum_{i != j} f_ij x_i x_j
    rng = np.random.default_rng(4)
    f = random_kernel(2, 3, rng)
    F = ChaosExpansion.from_kernel(f)
    xs = rng.standard_normal((100, 3))
    c = f.coeffs
    direct = sum(c[i, i] * hermite(2, xs[:, i]) for i in range(3))
    direct = direct + sum(c[i, j] * xs[:, i] * xs[:, j]
                          for i in range(3) for j in range(3) if i != j)
    assert np.allclose(evaluate(F, xs), direct, atol=1e-12)


def dense_reference(F, xs):
    """sum over every ordered index tuple of f[idx] prod_i H_{mult_i}(x_i):
    no multisets and no multinomial weights."""
    total = np.full(len(xs), F.mean)
    for q in F.orders():
        if q == 0:
            continue
        kern = F.kernel(q)
        for idx in product(range(F.dim), repeat=q):
            term = np.full(len(xs), kern[idx])
            for i in set(idx):
                term = term * hermite(idx.count(i), xs[:, i])
            total = total + term
    return total


@pytest.mark.parametrize("q", [3, 4, 5])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_evaluate_high_orders_match_dense_reference(q, d):
    rng = np.random.default_rng((q, d))
    F = ChaosExpansion.from_kernel(random_kernel(q, d, rng))
    xs = rng.standard_normal((50, d))
    want = dense_reference(F, xs)
    assert np.allclose(evaluate(F, xs), want, rtol=1e-12,
                       atol=1e-12 * np.max(np.abs(want)))


def low_orders_evaluate(F, xs):
    """Orders 0-2 of F at the rows xs as ``evaluate`` computes them, by
    einsum over all rows at once, since no row's value depends on the
    others: order 1, the diagonal of order 2 and its off-diagonal part, if
    any."""
    total = np.zeros(xs.shape[0])
    for q in F.orders():
        kern = F.kernel(q)
        if q == 0:
            total += float(kern)
        elif q == 1:
            total += np.einsum("ni,i->n", xs, kern)
        elif q == 2:
            diag = np.diag(kern)
            total += np.einsum("ni,ni,i->n", xs, xs, diag) - np.trace(kern)
            off = kern - np.diag(diag)
            if off.any():
                total += np.einsum("ni,ni->n",
                                   np.einsum("ni,ij->nj", xs, off), xs)
    return total


def hermite_columns(xs, qmax):
    """H_m(x_i) over the (n, d) rows xs, as a function of the row m * d + i
    of a flattened Hermite table, for m = 0..qmax."""
    table = np.empty((qmax + 1,) + xs.shape)
    table[0] = 1.0
    table[1] = xs
    for m in range(1, qmax):
        table[m + 1] = xs * table[m] - m * table[m - 1]
    dim = xs.shape[1]
    return lambda row: table[row // dim, :, row % dim]


def per_multiset_evaluate(F, x):
    """The per-multiset loop over whole (n, d) Hermite tables that
    ``evaluate`` used before it walked rows in blocks: one product of
    Hermite columns per unordered multi-index, each term added to the
    total on its own."""
    xs = np.asarray(x, dtype=float)
    total = low_orders_evaluate(F, xs)
    column = hermite_columns(xs, max(F.max_order, 1))
    for q in F.orders():
        if q < 3:
            continue
        for coeff, rows in per_multiset_terms(F.kernel(q), q, F.dim):
            term = np.full(len(xs), coeff)
            for row in rows:
                term *= column(row)
            total += term
    return total


def per_group_terms(F):
    """Every order >= 3 term of F from ``per_multiset_terms``, orders
    ascending, in a dict from the rows of its leading factors to the
    (last row, coeff) of each term that has them: a plain dict keeps the
    groups in the order of their first terms."""
    groups = {}
    for q in F.orders():
        if q < 3:
            continue
        for coeff, rows in per_multiset_terms(F.kernel(q), q, F.dim):
            groups.setdefault(rows[:-1], []).append((rows[-1], coeff))
    return groups


def per_group_evaluate(F, x):
    """``evaluate`` written out on whole (n, d) Hermite tables: per group
    of ``per_group_terms``, sum coeff * H_last over its terms, multiply the
    sum by its leading Hermite columns in order and add it to the total."""
    xs = np.asarray(x, dtype=float)
    total = low_orders_evaluate(F, xs)
    column = hermite_columns(xs, max(F.max_order, 1))
    for lead, pairs in per_group_terms(F).items():
        acc = column(pairs[0][0]) * pairs[0][1]
        for row, coeff in pairs[1:]:
            acc = acc + column(row) * coeff
        for row in lead:
            acc = acc * column(row)
        total = total + acc
    return total


def symmetric_zeros(kern):
    """A copy of kern with every entry whose index sum is a multiple of 3
    set to zero, a symmetric set, so some multi-indices have no term."""
    kern = np.array(kern)
    kern[np.indices(kern.shape).sum(axis=0) % 3 == 0] = 0.0
    return kern


def with_symmetric_zeros(F):
    """F with :func:`symmetric_zeros` applied to its kernels of order >= 3."""
    return ChaosExpansion(F.dim, {q: symmetric_zeros(F.kernel(q)) if q >= 3
                                  else F.kernel(q) for q in F.orders()})


def per_multiset_terms(kern, q, dim):
    """The Python walk over every multiset, the reference for the terms of
    ``_sum_plan``: (weight * coeff, factor rows) per nonzero
    multiset, in ``combinations_with_replacement`` order."""
    qfact = math.factorial(q)
    terms = []
    for idx in combinations_with_replacement(range(dim), q):
        coeff = kern[idx]
        if coeff == 0.0:
            continue
        mult = {}
        for i in idx:
            mult[i] = mult.get(i, 0) + 1
        weight = qfact
        for m in mult.values():
            weight //= math.factorial(m)
        terms.append((float(weight) * coeff,
                      tuple(m * dim + i for i, m in mult.items())))
    return terms


def plan_groups(F):
    """``chaos._sum_plan(F)`` as (lead, [(last row, coeff), ...]) per group,
    the shape of :func:`per_group_terms`."""
    return [(lead, list(zip(rows.tolist(), coeffs.tolist())))
            for lead, rows, coeffs, _ in chaos._sum_plan(F)]


@pytest.mark.parametrize("q", [3, 4, 5, 6])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_hermite_terms_are_the_per_multiset_loop(q, d):
    kern = symmetric_zeros(random_kernel(q, d, np.random.default_rng((q, d))).coeffs)
    F = ChaosExpansion(d, {q: kern})
    groups = plan_groups(F)
    assert groups == list(per_group_terms(F).items())
    # every term once, with the reference's weight * coeff, bitwise
    terms = [(c, lead + (row,)) for lead, pairs in groups for row, c in pairs]
    assert sorted(terms) == sorted(per_multiset_terms(kern, q, d))


def test_sum_plan_groups_the_terms_by_their_leading_rows():
    rng = np.random.default_rng(18)
    for dim, orders, sparse in [(3, [3, 4, 5], True), (4, [1, 2, 3, 5], False),
                                (16, [3], False), (3, [6], True), (1, [3, 4], False)]:
        F = random_expansion(rng, dim, orders)
        if sparse:
            F = with_symmetric_zeros(F)
        assert plan_groups(F) == list(per_group_terms(F).items())
    # no term of order >= 3, and an order-3 kernel of zeros
    assert chaos._sum_plan(random_expansion(rng, 3, [1, 2])) == []
    zero = ChaosExpansion(2, {0: np.asarray(1.5), 3: np.zeros((2, 2, 2))})
    assert chaos._sum_plan(zero) == []
    assert np.array_equal(evaluate(zero, np.ones((3, 2))), np.full(3, 1.5))


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       orders=st.sets(st.integers(1, 5), min_size=1, max_size=4),
       sparse=st.booleans(), rows=st.integers(0, 60), block=st.integers(1, 25))
def test_evaluate_is_bitwise_the_per_multiset_loop_property(dim, seed, orders,
                                                            sparse, rows, block):
    # bitwise the per-group reference, and within 1e-12 of the largest
    # |value| of the per-multiset loop and of the dense ordered sum; small
    # blocks so that calls span several blocks and a partial last one
    rng = np.random.default_rng(seed)
    F = random_expansion(rng, dim, sorted(orders))
    if sparse:
        F = with_symmetric_zeros(F)
    xs = rng.standard_normal((rows, dim))
    with mock.patch.object(chaos, "_BLOCK_ROWS", block):
        got = evaluate(F, xs)
        assert np.array_equal(got, per_group_evaluate(F, xs))
        scale = 1e-12 * np.max(np.abs(got), initial=0.0)
        for reference in (per_multiset_evaluate, dense_reference):
            assert np.max(np.abs(got - reference(F, xs)), initial=0.0) <= scale


def test_evaluate_row_does_not_depend_on_its_block():
    # every order, order 2 with a dense kernel.  (16, [3]) and (3, [6]) are
    # highorder-mc shapes.
    assert chaos._BLOCK_ROWS == 16_384
    for seed, (dim, orders) in enumerate([(3, [3, 4]), (16, [3]), (3, [6]),
                                          (16, [1, 2, 3])], 15):
        rng = np.random.default_rng(seed)
        F = random_expansion(rng, dim, orders)
        xs = rng.standard_normal((40_000, dim))
        vals = evaluate(F, xs)
        rows = chaos._block_rows(dim)
        assert rows == 16_384
        for r in (0, rows - 1, rows, len(xs) - 1):
            assert evaluate(F, xs[r]) == vals[r]
            assert evaluate(F, xs[r:r + 1])[0] == vals[r]


@pytest.mark.parametrize("dense", [False, True])
def test_evaluate_order_2_adds_an_off_diagonal_part_only_if_there_is_one(dense):
    rng = np.random.default_rng(int(dense))
    kern = np.diag(rng.uniform(-1, 1, 7))
    if dense:
        m = rng.uniform(-1, 1, (7, 7))
        kern += m + m.T
    F = ChaosExpansion(7, {2: kern})
    xs = rng.standard_normal((300, 7))
    want = np.einsum("ni,ij,nj->n", xs, kern, xs) - np.trace(kern)
    got = evaluate(F, xs)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(got, low_orders_evaluate(F, xs))


def test_fused_group_sums_are_bitwise_the_per_term_sums():
    # the four highorder-mc kernels at seed 0 (dense, so most groups are
    # one run of rows), a sparse order-3 kernel (no run of three rows) and
    # orders 3 + 5, whose groups with terms of both orders are not one run.
    # A one-row block takes the per-term loop, the others einsum's.
    #
    # Row passes over a block per term stay under a ceiling on the
    # highorder-mc kernels: 1 + m for a run of m rows summed in one pass,
    # 2m for m rows summed term by term (c * H_last and its add), plus one
    # per leading row either way.  The ceilings sit about 10% above the
    # plan's 1.48, 2.21, 2.88 and 3.00, so a plan that stops sharing leading
    # factors or summing runs in one pass shows: the per-term sums of every
    # group took 2.29, 2.76, 3.07 and 3.07.
    def order(lead, row, dim):
        return sum(r // dim for r in lead + (row,))

    highorder = {(3, 16): (105, 1.63), (4, 8): (56, 2.43), (5, 4): (5, 3.16),
                 (6, 3): (1, 3.30)}
    # every kernel the highorder-mc workload times has a ceiling
    workloads = ast.parse((Path(__file__).parents[1] / "perfbench"
                           / "workloads.py").read_text())
    assert set(highorder) == set(next(
        ast.literal_eval(node.value) for node in workloads.body
        if isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) == "HIGHORDER_POINTS"))
    cases = [(ChaosExpansion.from_kernel(
        random_kernel(q, d, np.random.default_rng((0, q, d)))), fused, most)
        for (q, d), (fused, most) in highorder.items()]
    rng = np.random.default_rng(23)
    cases.append((ChaosExpansion(16, {3: symmetric_zeros(
        random_kernel(3, 16, rng).coeffs)}), 0, None))
    cases.append((ChaosExpansion(4, {q: random_kernel(q, 4, rng, 0.6).coeffs
                                     for q in (3, 5)}), 2, None))
    for F, fused, most in cases:
        dim, plan = F.dim, chaos._sum_plan(F)
        assert plan_groups(F) == list(per_group_terms(F).items())
        if most is not None:
            passes = sum((1 + len(rows) if run is not None else 2 * len(rows))
                         + len(lead) for lead, rows, _, run in plan)
            terms = sum(len(rows) for _, rows, _, _ in plan)
            assert passes / terms <= most, (F.max_order, dim, passes / terms)
        assert sum(run is not None for *_, run in plan) == fused
        shared = 0
        for lead, last, coeffs, run in plan:
            # one int array of rows and one float array of coefficients
            assert last.dtype.kind == "i" and coeffs.dtype == np.float64
            rows, j = last.tolist(), int(last[0])
            one_run = len(rows) >= 3 and rows == list(range(j, j + len(rows)))
            assert (run is not None) == one_run
            if one_run:
                assert run == slice(j, j + len(rows))
            if len({order(lead, row, dim) for row in rows}) > 1:
                assert run is None
                shared += 1
        assert (shared > 0) == (F.orders() == [3, 5])
        tabulate, add = chaos._evaluator(F)
        for n in (1, 2, 3, 17, chaos._block_rows(dim, table=True)):
            xs = rng.standard_normal((n, dim))
            table = tabulate(xs, np.empty((F.max_order + 2) * dim * n))
            got = np.empty(n)
            add(xs, table, got)
            # the per-term loop on the same table
            rows, want = table.reshape(-1, n), np.zeros(n)
            for lead, pairs in per_group_terms(F).items():
                acc = rows[pairs[0][0]] * pairs[0][1]
                for j, c in pairs[1:]:
                    acc = acc + rows[j] * c
                for j in lead:
                    acc = acc * rows[j]
                want = want + acc
            assert got.tobytes() == want.tobytes(), (dim, F.max_order, n)


def test_sum_plan_holds_each_coefficient_once():
    # a dense (3, 40) kernel: 11 480 terms in 820 groups, held as one int
    # array of rows and one float array of coefficients per group.  One
    # (row, coeff) tuple per term, plus a second coefficient array per run
    # group, held about 1.4 MB
    F = ChaosExpansion.from_kernel(random_kernel(3, 40, np.random.default_rng(24)))
    tracemalloc.start()
    try:
        plan = chaos._sum_plan(F)
        held_mb = tracemalloc.get_traced_memory()[0] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert len(plan) == 820
    assert held_mb < 0.7


def test_sum_plan_build_peaks_under_twice_the_plan():
    # a dense (3, 60) kernel: 37 820 terms in 1 830 groups.  Python lists of
    # every term's indices, rows and coefficients peaked at 6.5 MB for a
    # plan of 1.4 MB; a chunked walk into typed arrays peaks at 2.1 MB
    F = ChaosExpansion.from_kernel(random_kernel(3, 60, np.random.default_rng(25)))
    tracemalloc.start()
    try:
        plan = chaos._sum_plan(F)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(plan) == 1830
    assert peak < 2 * held, (peak / 2 ** 20, held / 2 ** 20)


def test_evaluate_memory_above_order_2_is_n_values_plus_a_table_plus_8_mb(peak_mb):
    # at (q, d) = (3, 16) one block's Hermite table is (4, 16, 16 384) values,
    # 8 MB; 136 groups' sums kept side by side would be 17 MB a block
    F = ChaosExpansion.from_kernel(random_kernel(3, 16, np.random.default_rng(19)))
    xs = np.random.default_rng(20).standard_normal((200_000, 16))
    n, table = len(xs), 4 * 16 * chaos._block_rows(16) * 8
    assert peak_mb(lambda: evaluate(F, xs)) <= (n * 8 + table + 8 * 2 ** 20) / 2 ** 20


def test_evaluate_memory_at_orders_1_and_2_is_n_values_plus_8_mb(peak_mb):
    # one (200 000, 64) product x f alone is 102 MB; a block's is 2 MB
    rng = np.random.default_rng(17)
    F = random_expansion(rng, 64, [1, 2])
    xs = rng.standard_normal((200_000, 64))
    n = len(xs)
    assert peak_mb(lambda: evaluate(F, xs)) <= (n * 8 + 8 * 2 ** 20) / 2 ** 20


@pytest.mark.parametrize("shape", [(), (2, 4, 3), (0,), (5, 2)])
def test_evaluate_rejects_bad_shapes(shape):
    F = ChaosExpansion.from_kernel(random_kernel(3, 3, np.random.default_rng(16)))
    with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
        evaluate(F, np.zeros(shape))


def test_evaluate_isometry_montecarlo():
    rng = np.random.default_rng(5)
    F = random_expansion(rng, 3, [1, 2, 3], scale=0.4)
    xs = rng.standard_normal((200_000, 3))
    vals = evaluate(F, xs)
    mean_se = vals.std() / math.sqrt(len(vals))
    assert abs(vals.mean() - F.mean) < 4 * mean_se
    m2 = float(np.mean(vals ** 2))
    m2_se = np.std(vals ** 2) / math.sqrt(len(vals))
    assert abs(m2 - l2_inner(F, F)) < 4 * m2_se


# --- L operators ------------------------------------------------------------

def test_L_inverse_examples():
    f = basis_kernel(2, (0, 0))
    F = ChaosExpansion.from_kernel(f)
    assert np.allclose(apply_L_inverse(F).kernel(2), -0.5 * f.coeffs)
    assert apply_L_inverse(ChaosExpansion.constant(2, 3.0)).orders() == []

    rng = np.random.default_rng(6)
    G = random_expansion(rng, 2, [1, 3])
    scaled = apply_L_inverse(G)
    assert np.allclose(scaled.kernel(1), -G.kernel(1))
    assert np.allclose(scaled.kernel(3), -G.kernel(3) / 3.0)


def test_L_pseudo_inverse_identity():
    rng = np.random.default_rng(7)
    F = random_expansion(rng, 3, [1, 2, 4])
    assert expansions_close(apply_L(apply_L_inverse(F)), F.recentered(), 1e-14)


# --- gamma operators ---------------------------------------------------------

def test_gamma_step_standard_normal():
    h = basis_kernel(3, (1,))
    F = ChaosExpansion.from_kernel(h)
    G1 = gamma_step(F, F)
    assert G1.orders() == [0]
    assert abs(G1.mean - 1.0) < 1e-15


def test_gamma_step_chi_square():
    f = basis_kernel(2, (0, 0))
    F = ChaosExpansion.from_kernel(f)
    G1 = gamma_step(F, F)
    assert abs(G1.mean - 2.0) < 1e-14
    assert np.allclose(G1.kernel(2), 2.0 * f.coeffs)


def test_gamma_step_constant_right_argument():
    f = basis_kernel(2, (0, 0))
    F = ChaosExpansion.from_kernel(f)
    out = gamma_step(F, ChaosExpansion.constant(2, 4.0))
    assert l2_norm(out) < 1e-15


def test_gamma_step_pathwise_identity_montecarlo():
    # Gamma_1(X1^2 - 1) should behave like 2 X1^2 pathwise
    rng = np.random.default_rng(8)
    f = basis_kernel(2, (0, 0))
    F = ChaosExpansion.from_kernel(f)
    G1 = gamma_step(F, F)
    xs = rng.standard_normal((200, 2))
    assert np.allclose(evaluate(G1, xs), 2.0 * xs[:, 0] ** 2, atol=1e-12)


def test_gamma_sequence_examples():
    h = basis_kernel(2, (0,))
    F = ChaosExpansion.from_kernel(h)
    seq = gamma_sequence(F, 3)
    assert expansions_close(seq[0], F)
    assert abs(seq[1].mean - 1.0) < 1e-15 and seq[1].orders() == [0]
    assert l2_norm(seq[2]) < 1e-15 and l2_norm(seq[3]) < 1e-15

    f = basis_kernel(2, (0, 0))
    F2 = ChaosExpansion.from_kernel(f)
    g2 = gamma_sequence(F2, 2)[2]
    assert abs(g2.mean - 4.0) < 1e-13
    assert np.allclose(g2.kernel(2), 4.0 * f.coeffs)

    assert len(gamma_sequence(F2, 0)) == 1


def test_gamma_explicit_first_order_constants():
    # c_q(1) = 2 for q = 2, and the scalar part is 2 ||f||^2
    f = basis_kernel(2, (0, 0))
    out = gamma_explicit(f, 1)
    assert np.allclose(out.kernel(2), 2.0 * f.coeffs)
    assert abs(out.mean - 2.0) < 1e-15


def test_gamma_explicit_matches_gamma_step_random():
    rng = np.random.default_rng(9)
    for q, d, imax in [(2, 4, 5), (3, 3, 4), (4, 3, 3)]:
        f = random_kernel(q, d, rng, scale=0.7)
        F = ChaosExpansion.from_kernel(f)
        seq = gamma_sequence(F, imax, max_order=12)
        for i in range(1, imax + 1):
            assert expansions_close(gamma_explicit(f, i, max_order=12), seq[i],
                                    tol=1e-10), (q, d, i)


@settings(max_examples=15, deadline=None)
@given(q=st.integers(2, 4), d=st.integers(1, 3), i=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_gamma_explicit_matches_gamma_sequence_property(q, d, i, seed):
    f = random_kernel(q, d, np.random.default_rng(seed), scale=0.7)
    seq = gamma_sequence(ChaosExpansion.from_kernel(f), i, max_order=12)
    for j in range(1, i + 1):
        assert expansions_close(gamma_explicit(f, j, max_order=12), seq[j],
                                tol=1e-10), (q, d, j)


@settings(max_examples=25, deadline=None)
@given(**expansion_args)
def test_gamma_step_is_carre_du_champ_property(dim, seed, f_orders, g_orders):
    # Gamma(F, G) = <DF, DH> = (L(FH) - F LH - H LF) / 2 with H = -L^{-1} G,
    # built from multiply and apply_L only
    rng = np.random.default_rng(seed)
    F = random_expansion(rng, dim, sorted(f_orders))
    G = random_expansion(rng, dim, sorted(g_orders))
    H = -apply_L_inverse(G)
    carre = 0.5 * (apply_L(multiply(F, H)) - multiply(F, apply_L(H))
                   - multiply(H, apply_L(F)))
    step = gamma_step(F, G)
    assert l2_norm(step - carre) < 1e-10 * (1.0 + l2_norm(step))


def test_gamma_explicit_argument_errors():
    with pytest.raises(ValueError):
        gamma_explicit(basis_kernel(2, (0,)), 1)
    with pytest.raises(ValueError):
        gamma_explicit(basis_kernel(2, (0, 0)), 0)


def test_gamma_explicit_rejects_a_fractional_step_before_contracting(
        monkeypatch):
    # i = 1.5 never met step == i, so descend recursed until RecursionError
    def contract(*args, **kwargs):
        raise AssertionError("gamma_explicit contracted")

    monkeypatch.setattr(chaos.sym_tensor, "sym_contract", contract)
    with pytest.raises(ValueError, match=r"^i must be an integer, got 1\.5$"):
        gamma_explicit(basis_kernel(2, (0, 0)), 1.5)


def test_every_dimension_mismatch_names_both_dimensions():
    F = ChaosExpansion(2, {1: np.ones(2)})
    G = ChaosExpansion(3, {1: np.ones(3)})
    f, g = basis_kernel(2, (0,)), basis_kernel(3, (0,))
    for call in (lambda: F + G, lambda: multiply(F, G), lambda: gamma_step(F, G),
                 lambda: l2_inner(F, G), lambda: contract(f, g, 1),
                 lambda: inner(f, g)):
        with pytest.raises(ValueError, match="^dimension mismatch: 2 != 3$"):
            call()


# --- cumulants and moments ----------------------------------------------------

def test_exact_cumulant_gaussian():
    h = 1.5 * basis_kernel(2, (0,)).coeffs
    F = ChaosExpansion(2, {1: h})
    kappas = exact_cumulants(F, 4)
    assert abs(kappas[1] - 2.25) < 1e-14
    assert abs(kappas[2]) < 1e-14
    assert abs(kappas[3]) < 1e-14


def test_exact_cumulant_chi_square():
    F = ChaosExpansion.from_kernel(basis_kernel(2, (0, 0)))
    assert np.allclose(exact_cumulants(F, 4), [0.0, 2.0, 8.0, 48.0])


def test_exact_cumulant_mean_and_translation_invariance():
    rng = np.random.default_rng(10)
    F = random_expansion(rng, 2, [1, 2])
    assert exact_cumulants(F, 1) == [F.mean]
    kappas, shifted = exact_cumulants(F, 4), exact_cumulants(F + 5.0, 4)
    for j in (2, 3, 4):
        assert abs(kappas[j - 1] - shifted[j - 1]) < 1e-12


def test_chaos_isometry_invariant():
    rng = np.random.default_rng(11)
    F = random_expansion(rng, 4, [1, 2, 3, 4], scale=0.5)
    direct = sum(math.factorial(q) * float(np.sum(F.kernel(q) ** 2))
                 for q in F.orders() if q > 0)
    kappa_2 = exact_cumulants(F, 2, max_order=10)[1]
    assert abs(kappa_2 - direct) < 1e-10 * (1 + direct)


def test_moments_from_cumulants_examples():
    assert np.allclose(moments_from_cumulants([0, 1, 0, 0], 4), [0, 1, 0, 3])
    assert np.allclose(moments_from_cumulants([0, 2, 8, 48], 4), [0, 2, 8, 60])
    c = 1.7
    assert np.allclose(moments_from_cumulants([c, 0, 0, 0, 0], 5),
                       [c ** m for m in range(1, 6)])
    with pytest.raises(ValueError):
        moments_from_cumulants([0.0], 3)


def test_integration_by_parts_identity():
    # E[FG] = E[F]E[G] + E[<DF, -D L^-1 G>]
    rng = np.random.default_rng(12)
    F = random_expansion(rng, 3, [1, 2])
    G = random_expansion(rng, 3, [2, 3])
    lhs = l2_inner(F, G)
    rhs = F.mean * G.mean + gamma_step(F, G, max_order=10).mean
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


def test_evaluate_vs_algebra_montecarlo():
    rng = np.random.default_rng(13)
    F = random_expansion(rng, 3, [1, 2], scale=0.5)
    kappas = exact_cumulants(F, 3, max_order=8)
    moments = moments_from_cumulants(kappas, 3)
    xs = rng.standard_normal((1_000_000, 3))
    vals = evaluate(F, xs)
    for m in (1, 2, 3):
        est = float(np.mean(vals ** m))
        se = float(np.std(vals ** m)) / math.sqrt(len(vals))
        assert abs(est - moments[m - 1]) < 4 * se, m


def test_chaos_polynomial():
    rng = np.random.default_rng(14)
    F = random_expansion(rng, 2, [1, 2], scale=0.5)
    P = chaos_polynomial(F, [1.0, -2.0, 3.0], max_order=8)
    xs = rng.standard_normal((40, 2))
    v = evaluate(F, xs)
    assert np.allclose(evaluate(P, xs), 1.0 - 2.0 * v + 3.0 * v ** 2, atol=1e-10)


def _accepts(make):
    try:
        make()
    except ValueError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@example(q=-1, dim=2, shape=[])  # ChaosExpansion(2, {-1: 0.0})
@given(q=st.integers(-3, 4), dim=st.integers(0, 3),
       shape=st.lists(st.integers(0, 3), max_size=4))
def test_expansion_and_kernel_accept_the_same_kernels_property(q, dim, shape):
    # one kernel rule: an expansion holds a kernel the kernel type accepts
    arr = np.zeros(shape)
    expansion = _accepts(lambda: ChaosExpansion(dim, {q: arr}))
    assert expansion == _accepts(lambda: SymmetricKernel(q, dim, arr))
    assert expansion == (q >= 0 and dim >= 1 and tuple(shape) == (dim,) * q)


def test_an_absent_order_is_a_read_only_zero_kernel_under_the_element_guard():
    F = ChaosExpansion(3, {2: np.eye(3)})
    for q in (0, 5, 9):  # order 9 is above max_order, which does not apply
        zero = F.kernel(q)
        assert zero.shape == (3,) * q and not zero.any()
        assert not zero.flags.writeable
    # 3^25 floats: NumPy raised MemoryError asking for 6.16 TiB
    with pytest.raises(ResourceGuardError, match="dim=3, order=25"):
        F.kernel(25)


@pytest.mark.parametrize("x", [2, 0.5, True, np.float32(1.0), np.int64(2),
                               np.float64(0.5), Fraction(1, 2)])
def test_an_expansion_plus_any_real_scalar_adds_a_constant(x):
    # F + np.float32(1.0) raised AttributeError
    F = ChaosExpansion.from_kernel(random_kernel(2, 3, np.random.default_rng(2)))
    total = F + x
    assert total.orders() == [0, 2] and total.mean == float(x)
    assert total.kernel(2) is F.kernel(2)
    assert (x + F).mean == (F - (-x)).mean == float(x)


def test_expansion_keeps_read_only_kernels_and_copies_writable_ones():
    f = random_kernel(3, 4, np.random.default_rng(17))
    F = ChaosExpansion.from_kernel(f)
    # F + 1.0 adds an order that F lacks, and keeps F's kernel as it is
    for E in (F, F.recentered(), F + 1.0):
        assert np.shares_memory(E.kernel(3), f.coeffs)

    writable = np.array(f.coeffs)
    G = ChaosExpansion(4, {3: writable, 0: np.asarray(2.5)})
    writable[0, 0, 0] += 1.0
    assert np.array_equal(G.kernel(3), f.coeffs)
    frozen_view = writable.view()
    frozen_view.flags.writeable = False
    H = ChaosExpansion(4, {3: frozen_view})
    writable[0, 0, 0] += 1.0
    assert not np.shares_memory(H.kernel(3), writable)
    for E in (G, F + G, 2.0 * G, -G):
        assert all(not E.kernel(q).flags.writeable for q in E.orders())
    assert np.array_equal((F + G).kernel(3), 2.0 * f.coeffs)
    assert (G - 1.0).mean == 1.5
