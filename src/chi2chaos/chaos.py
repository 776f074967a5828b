"""Finite chaos expansions with exact algebra.

A random variable F = sum_q I_q(f_q) over the Gaussian family W(e_i) = x_i is
represented by its kernels {q: f_q}; order 0 holds the mean.  Everything here
is exact coefficient arithmetic: generator and inverse-generator operators
acting order by order, products, the iterated gamma operators (two independent
implementations that cross-check each other), and cumulants read off the
order-0 coefficient of gamma expansions.

Products and gamma steps are one contraction sum over the orders p of F, q of
G and the contraction order r,

    sum_{p,q,r} w(p, q, r) I_{p+q-2r}(f_p (x)~_r g_q),

with w = r! C(p,r) C(q,r) over r >= 0 for the product F G (the
multiplication formula) and w = p (r-1)! C(p-1,r-1) C(q-1,r-1) over r >= 1
for Gamma(F, G) = <DF, -DL^{-1}G>.

Conventions that matter:

* Hermite polynomials are the probabilists' ones, H_{q+1} = x H_q - q H_{q-1}.
  The physicists' convention would silently break pathwise evaluation.
* E[I_q(f)^2] = q! ||f||^2, with the plain Euclidean kernel norm.
"""

from __future__ import annotations

import math
import numbers
from array import array

import numpy as np

from . import sym_tensor
from .sym_tensor import SymmetricKernel


class ChaosExpansion:
    """Finite map order -> kernel, closed under the operations below.

    Each order holds one ``SymmetricKernel``, whose check is the only
    kernel rule, and ``kernel(q)`` returns its read-only coefficients, held
    by the ownership rule of ``sym_tensor._held`` (README, "guard rails").
    """

    def __init__(self, dim: int, kernels=None):
        self.dim = sym_tensor._integer(dim, "dim", 1)
        held = [SymmetricKernel(q, self.dim, arr)
                for q, arr in (kernels or {}).items()]
        self._kernels = {f.order: f for f in held}

    @classmethod
    def constant(cls, dim: int, value: float) -> "ChaosExpansion":
        return cls(dim, {0: sym_tensor._sealed(float(value))})

    @classmethod
    def from_kernel(cls, f: SymmetricKernel) -> "ChaosExpansion":
        """The single multiple integral I_q(f)."""
        return cls(f.dim, {f.order: f.coeffs})

    def orders(self):
        return sorted(self._kernels)

    def kernel(self, q: int) -> np.ndarray:
        """Kernel at order q; an absent order is a read-only zero kernel,
        checked against the element guard alone (no contraction forms it)."""
        q = sym_tensor._integer(q, "q", 0)
        if q in self._kernels:
            return self._kernels[q].coeffs
        return sym_tensor._sealed(sym_tensor._zeros(q, self.dim, max_order=q))

    @property
    def mean(self) -> float:
        return float(self.kernel(0))

    @property
    def max_order(self) -> int:
        return max(self._kernels, default=0)

    def recentered(self) -> "ChaosExpansion":
        """Drop the order-0 part: F - E[F]."""
        return ChaosExpansion(
            self.dim, {q: k.coeffs for q, k in self._kernels.items() if q > 0})

    def __add__(self, other):
        if isinstance(other, numbers.Real):
            other = ChaosExpansion.constant(self.dim, other)
        sym_tensor._same_dim(self.dim, other.dim)
        # a kernel that only one operand has is kept as it is
        out = {q: f.coeffs for q, f in self._kernels.items()}
        for q, g in other._kernels.items():
            out[q] = (sym_tensor._sealed(out[q] + g.coeffs) if q in out
                      else g.coeffs)
        return ChaosExpansion(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-other if isinstance(other, ChaosExpansion) else -float(other))

    def __mul__(self, c: float):
        return ChaosExpansion(self.dim, {q: sym_tensor._sealed(c * k.coeffs)
                                         for q, k in self._kernels.items()})

    __rmul__ = __mul__


def _pair(F: ChaosExpansion, G: ChaosExpansion, weight, r_min: int,
          max_order=None) -> ChaosExpansion:
    """sum_{p,q,r >= r_min} weight(p,q,r) I_{p+q-2r}(f_p (x)~_r g_q)."""
    sym_tensor._same_dim(F.dim, G.dim)
    out = {}
    for p, f in sorted(F._kernels.items()):
        for q, g in sorted(G._kernels.items()):
            for r in range(r_min, min(p, q) + 1):
                m = p + q - 2 * r
                term = weight(p, q, r) * sym_tensor.sym_contract(
                    f, g, r, max_order=max_order).coeffs
                out[m] = out.get(m, 0.0) + term
    return ChaosExpansion(F.dim, {m: sym_tensor._sealed(a) for m, a in out.items()})


def multiply(F: ChaosExpansion, G: ChaosExpansion, max_order=None) -> ChaosExpansion:
    """Exact product of two expansions via the multiplication formula."""
    def weight(p, q, r):
        return math.factorial(r) * math.comb(p, r) * math.comb(q, r)

    return _pair(F, G, weight, 0, max_order)


# Most rows, and most inputs (2 MB), in one block of pathwise evaluation: the
# block's Hermite table, its order-2 product x f and one term's row vector
# stay small however many rows a call has.
_BLOCK_ROWS = 1 << 14
_BLOCK_VALUES = 1 << 18


def _block_rows(d: int, table: bool = False) -> int:
    """Rows per block of d inputs: 16 384 up to d = 16, fewer above, and
    half that when the blocks have a Hermite table, so the two tables in
    flight in :func:`_walk` take the memory of one full block's."""
    rows = min(_BLOCK_ROWS, max(1, _BLOCK_VALUES // d))
    return max(1, rows // 2) if table else rows


def _hermite_table(x: np.ndarray, qmax: int, out=None, work=None) -> np.ndarray:
    """H_m(x) for m = 0..qmax, stacked along the first axis.

    ``out``, if given, is a C-contiguous float array of shape (qmax+1,) +
    x.shape and ``work`` one of x.size floats for the products
    m H_{m-1}, so a caller that keeps both allocates nothing per table.
    Row 1 is one copy of x (so a transposed view of a block is transposed
    in that copy), and each row after it is x H_m - m H_{m-1} written in
    place: the same operations in the same order as the plain recurrence,
    so bitwise its values.
    """
    table = np.empty((qmax + 1,) + np.shape(x)) if out is None else out
    table[0] = 1.0
    if qmax >= 1:
        table[1] = x
    h = table.reshape(qmax + 1, -1)
    if qmax >= 2 and work is None:
        work = np.empty(h.shape[1])
    for m in range(1, qmax):
        np.multiply(h[1], h[m], out=h[m + 1])
        np.multiply(h[m - 1], m, out=work)
        np.subtract(h[m + 1], work, out=h[m + 1])
    return table


def hermite(q: int, x):
    """Probabilists' Hermite polynomial H_q evaluated at x (scalar or array):
    row q of :func:`_hermite_table`."""
    q = sym_tensor._integer(q, "q", 0)
    h = _hermite_table(np.asarray(x, dtype=float), q)[q]
    return h if h.ndim else float(h)


# Terms of one order unravelled at a time while :func:`_sum_plan` is built.
_PLAN_TERMS = 1 << 12


def _sum_plan(F: ChaosExpansion):
    """F's order >= 3 terms grouped by their leading factors, as stage 2 of
    :func:`_evaluator` sums them: a list of (lead, rows, coeffs, run), one
    per distinct tuple ``lead`` of table rows that a term has before its
    last factor.  ``rows`` holds the table rows of the group's last factors
    and ``coeffs`` their coefficients, both arrays in term order, and
    ``run`` is their slice of the table when those rows are one contiguous
    run of at least three, else None (a dense kernel's groups are runs; a
    sparse kernel's, or terms of different orders under one lead, are not).
    So the order >= 3 part of F is, summed over the groups, prod_{j in
    lead} row j * sum_k coeffs[k] * row rows[k]: the Horner form over the
    last factor.

    A term is a nonzero multi-index i_1 <= ... <= i_q (lexicographic order,
    orders ascending).  Its runs of m_i equal entries i are its factors
    H_{m_i}(x_i), rows m_i * d + i of a Hermite table flattened to
    ((qmax+1) * d, rows), and its coefficient is float(q!/prod(m_i!)) *
    coeff, over the ordered positions that hold coeff.  Groups come in the
    order of their first terms.

    The terms are walked ``_PLAN_TERMS`` at a time, each group's rows and
    coefficients are collected in typed arrays, and those are dropped as
    the group is packed, so the build holds little besides the plan.
    """
    groups, dim = {}, F.dim
    for q in F.orders():
        if q < 3:
            continue
        kern, qfact = F.kernel(q), math.factorial(q)
        grid = np.ogrid[(slice(dim),) * q]
        sorted_nonzero = kern != 0.0
        for i, j in zip(grid, grid[1:]):
            sorted_nonzero &= i <= j
        where = np.flatnonzero(sorted_nonzero)
        for lo in range(0, len(where), _PLAN_TERMS):
            part = where[lo:lo + _PLAN_TERMS]
            for idx, coeff in zip(
                    np.column_stack(np.unravel_index(part, kern.shape)).tolist(),
                    kern.flat[part].tolist()):
                # one pass over the runs: m entries equal to ``last`` so far
                lead, weight, m, last = [], qfact, 0, idx[0]
                for i in idx:
                    if i != last:
                        lead.append(m * dim + last)
                        weight //= math.factorial(m)
                        m, last = 0, i
                    m += 1
                weight //= math.factorial(m)
                rows, coeffs = groups.setdefault(tuple(lead),
                                                 (array("q"), array("d")))
                rows.append(m * dim + last)
                coeffs.append(float(weight) * coeff)
    plan = []
    for lead in list(groups):
        rows, coeffs = groups.pop(lead)
        j = rows[0]
        run = (slice(j, j + len(rows)) if len(rows) >= 3
               and rows == array("q", range(j, j + len(rows))) else None)
        plan.append((lead, np.array(rows), np.array(coeffs), run))
    return plan


def evaluate(F: ChaosExpansion, x):
    """Pathwise value of F at W(e_i) = x_i.

    ``x`` is a vector of length d (a float comes back) or an (n, d) array of
    sample rows (a length-n array comes back); any other shape raises
    ``ValueError``.  The rows are copied block by block into the buffers of
    :func:`_walk`, which evaluates each block in the two stages of
    :func:`_evaluator`, so memory is bounded per block.  Every order is
    evaluated row by row, so a row's value depends neither on the other rows
    in the call nor on how they are cut into blocks.
    """
    xs = np.asarray(x, dtype=float)
    if xs.ndim not in (1, 2) or xs.shape[-1] != F.dim:
        raise ValueError(
            f"x must have shape (d,) or (n, d) with d = {F.dim}, got {xs.shape}")
    rows = xs.reshape(-1, F.dim)
    values = _walk(F, len(rows),
                   lambda lo, block: np.copyto(block, rows[lo:lo + len(block)]))
    return float(values[0]) if xs.ndim == 1 else values


def _under_callers_errstate(call):
    """``call`` under this caller's ``np.geterr()`` on whatever thread runs
    it: NumPy < 2 keeps np.errstate per thread, NumPy >= 2 per context, and
    neither reaches a new thread by itself."""
    err = np.geterr()

    def run(*args):
        with np.errstate(**err):
            return call(*args)
    return run


def _walk(F: ChaosExpansion, n: int, fill) -> np.ndarray:
    """F's values at n rows, which ``fill(lo, block)`` writes, block after
    block, into the (rows, d) buffer ``block`` for rows lo..lo+len(block):
    the block walk of :func:`evaluate` and ``montecarlo.sample_chaos``.

    A block goes through the two stages of :func:`_evaluator`: (1) fill its
    rows and write its Hermite table, (2) sum its terms into the values.
    When the blocks have a Hermite table (F has a term of order >= 3) and
    there is more than one block, stage 1 of block k+1 runs on one helper
    thread while the caller runs stage 2 of block k, on two sets of buffers
    that the blocks take in turn.  So ``fill`` is called only from the
    helper, in block order, and the helper runs under the caller's
    ``np.geterr()``.  A stage's exception is raised in the caller, and the
    helper is joined before the walk returns or raises.  Otherwise both
    stages run in turn on the caller: at order <= 2 a block's sums are a
    few einsums, too little work to overlap, and a helper there made the
    shipped scenarios slower in ``cli.run_scenario``, whose workers already
    fill the cores.

    Blocks with a table hold ``_block_rows(d, table=True)`` rows, 8 192 at
    d = 16, so the two tables in flight, (qmax+1, d, rows) floats each plus
    a row of work, take about the memory of one 16 384-row table.
    """
    tabulate, add = _evaluator(F)
    dim = F.dim
    rows = max(1, min(n, _block_rows(dim, tabulate is not None)))
    starts = range(0, n, rows)
    pipelined = tabulate is not None and len(starts) > 1
    # one set of buffers per block in flight: with fresh arrays per block
    # the allocator returns the freed memory and faults it in again
    buffers = [(np.empty((rows, dim)),
                None if tabulate is None
                else np.empty((F.max_order + 2) * dim * rows))
               for _ in range(1 + pipelined)]
    values = np.empty(n)

    def stage_1(k):
        block, table_buffer = buffers[k % len(buffers)]
        xs = block[:min(rows, n - starts[k])]
        fill(starts[k], xs)
        return xs, None if tabulate is None else tabulate(xs, table_buffer)

    def stage_2(k, xs, table):
        add(xs, table, values[starts[k]:starts[k] + len(xs)])

    if not pipelined:
        for k in range(len(starts)):
            stage_2(k, *stage_1(k))
        return values
    # imported here, as in cli.run_scenario: concurrent.futures imports
    # logging, which a run without a table never needs
    from concurrent.futures import ThreadPoolExecutor

    ahead = _under_callers_errstate(stage_1)
    with ThreadPoolExecutor(1) as helper:
        next_block = helper.submit(ahead, 0)
        for k in range(len(starts)):
            xs, table = next_block.result()
            if k + 1 < len(starts):
                next_block = helper.submit(ahead, k + 1)
            stage_2(k, xs, table)
    return values


def _evaluator(F: ChaosExpansion):
    """F's pathwise evaluation of one block of rows, in two stages:
    ``(tabulate, add)``.

    ``tabulate(xs, buffer)`` is stage 1's table: it writes the block's
    (qmax+1, d, rows) Hermite table into the flat float array ``buffer``
    of (qmax+2) * d * rows or more floats (the last d * rows are the
    recurrence's work row) and returns it, so each factor H_m(x_i) is a
    contiguous row.  It is None when F has no term of order >= 3.
    ``add(xs, table, out)`` is stage 2: it writes the block's values into
    ``out``.  ``xs`` is a C-contiguous (rows, d) float array with 1 <= rows
    (einsum's summation order follows the memory layout).

    Orders 0-2 are einsums over the block's rows (not BLAS products, whose
    sums can depend on the row count): order 1, the diagonal of order 2,
    sum_i f_ii (x_i^2 - 1), and its off-diagonal part x^T f x, if it has
    one; a diagonal kernel (every shipped family but rank-one-difference)
    skips that d^2 pass.  Orders >= 3 are sums of products of Hermite
    polynomials over the table.  Their groups, planned by :func:`_sum_plan`,
    are built here, once, however many blocks the stages are then called
    on, and not kept on ``F``: at (q, d) = (3, 100), 171 700 terms in
    5 050 groups, they take 4.7 MB, each row and coefficient held once.
    Per block, a group's sum c * H_l over its terms is written into one
    row vector, multiplied in place by the group's leading rows and added
    to the total.

    A group whose last rows are one run is summed in one pass,
    ``einsum("j,jn->n", coeffs, rows[run], out=acc)`` (m + 1 row passes
    for m terms, against 2m for a multiply and an add per term).  Its
    stride-0 inner loop multiplies and then adds, term by term in order,
    so the sum is bitwise the per-term one where einsum does not fuse the
    multiply-add into one instruction (the x86-64 wheels; a NumPy build
    that does, for example on aarch64, would move last bits).  Two cases
    keep the per-term loop: a one-row block, where einsum drops the
    length-1 axis and sums in a reduction kernel's order, and a group
    whose last rows are not one run (terms of different orders under one
    lead, or a sparse kernel), which no slice of the table holds.
    """
    plan, dim, qmax = _sum_plan(F), F.dim, F.max_order
    if 2 in F.orders():
        kern = F.kernel(2)
        diag, trace = np.diag(kern), np.trace(kern)
        off = kern - np.diag(diag)
        has_off = off.any()

    def tabulate(xs, buffer):
        size = dim * len(xs)
        table = buffer[:(qmax + 1) * size].reshape(qmax + 1, dim, len(xs))
        return _hermite_table(xs.T, qmax, table,
                              buffer[(qmax + 1) * size:(qmax + 2) * size])

    def add(xs, table, total):
        total[...] = 0.0
        for q in F.orders():
            kern = F.kernel(q)
            if q == 0:
                total += float(kern)
            elif q == 1:
                total += np.einsum("ni,i->n", xs, kern)
            elif q == 2:
                # I_2(f) = sum_i f_ii x_i^2 - tr f + x^T f_off x
                total += np.einsum("ni,ni,i->n", xs, xs, diag) - trace
                if has_off:
                    xf = np.einsum("ni,ij->nj", xs, off)
                    total += np.einsum("ni,ni->n", xf, xs)
        if plan:
            rows = table.reshape(-1, len(total))
            acc, term = np.empty(len(total)), np.empty(len(total))
            # einsum sums a one-row block in a reduction kernel's order
            fuse = len(total) > 1
            for lead, last, coeffs, run in plan:
                if fuse and run is not None:
                    np.einsum("j,jn->n", coeffs, rows[run], out=acc)
                else:
                    terms = zip(last, coeffs)
                    j, c = next(terms)
                    np.multiply(rows[j], c, out=acc)
                    for j, c in terms:
                        acc += np.multiply(rows[j], c, out=term)
                for j in lead:
                    acc *= rows[j]
                total += acc

    return (tabulate if plan else None), add


def apply_L(F: ChaosExpansion) -> ChaosExpansion:
    """Ornstein-Uhlenbeck generator: scale order q by -q."""
    return ChaosExpansion(F.dim, {q: sym_tensor._sealed(-q * F.kernel(q))
                                  for q in F.orders() if q > 0})


def apply_L_inverse(F: ChaosExpansion) -> ChaosExpansion:
    """Pseudo-inverse of L: scale order q >= 1 by -1/q, drop the mean."""
    return ChaosExpansion(F.dim, {q: sym_tensor._sealed((-1.0 / q) * F.kernel(q))
                                  for q in F.orders() if q > 0})


def gamma_step(F: ChaosExpansion, G: ChaosExpansion, max_order=None) -> ChaosExpansion:
    """One gamma iteration: the pairing <DF, -D L^{-1} G> as a chaos expansion.

    D takes f_p to p f_p with one slot freed and -D L^{-1} takes g_q to g_q
    with one slot freed; pairing the freed slots is a contraction of order
    r >= 1 of f_p and g_q, and the product rule over the other r - 1 pairs
    leaves the weight p (r-1)! C(p-1, r-1) C(q-1, r-1).
    """
    def weight(p, q, r):
        return (p * math.factorial(r - 1) * math.comb(p - 1, r - 1)
                * math.comb(q - 1, r - 1))

    return _pair(F, G, weight, 1, max_order)


def gamma_sequence(F: ChaosExpansion, imax: int, max_order=None):
    """[Gamma_0(F) = F, Gamma_1(F), ..., Gamma_imax(F)] by iterating gamma_step."""
    sym_tensor._max_order(max_order)
    seq = [F]
    for _ in range(sym_tensor._integer(imax, "imax", 0)):
        seq.append(gamma_step(F, seq[-1], max_order=max_order))
    return seq


def gamma_explicit(f: SymmetricKernel, i: int, max_order=None) -> ChaosExpansion:
    """Gamma_i(I_q(f)) by the explicit iterated-contraction multi-sum.

    Independent of :func:`gamma_sequence`; the two are cross-checked in the
    test suite because the admissible-index constraints are easy to get wrong.
    At step a the accumulated kernel A has order m and the contraction order
    r ranges over 1..min(m, q), with weight q (r-1)! C(m-1, r-1) C(q-1, r-1);
    intermediate steps must leave a kernel of positive order (scalar terms
    do not survive another derivative), while the final step may produce the
    order-0 term that carries E[Gamma_i].
    """
    q = sym_tensor._integer(f.order, "kernel order", 2)
    i = sym_tensor._integer(i, "i", 1)
    out = {}

    def descend(current: SymmetricKernel, const: float, step: int):
        m = current.order
        for r in range(1, min(m, q) + 1):
            m_next = m + q - 2 * r
            if step < i and m_next == 0:
                continue
            weight = (const * q * math.factorial(r - 1)
                      * math.comb(m - 1, r - 1) * math.comb(q - 1, r - 1))
            nxt = sym_tensor.sym_contract(current, f, r, max_order=max_order)
            if step == i:
                out[m_next] = out.get(m_next, 0.0) + weight * nxt.coeffs
            else:
                descend(nxt, weight, step + 1)

    descend(f, 1.0, 1)
    return ChaosExpansion(f.dim, {m: sym_tensor._sealed(a) for m, a in out.items()})


def l2_inner(F: ChaosExpansion, G: ChaosExpansion) -> float:
    """E[F G] via the chaos isometry: sum_q q! <f_q, g_q> plus the means."""
    sym_tensor._same_dim(F.dim, G.dim)
    total = 0.0
    for q in set(F.orders()) & set(G.orders()):
        total += math.factorial(q) * float(np.sum(F.kernel(q) * G.kernel(q)))
    return total


def l2_norm(F: ChaosExpansion) -> float:
    """L^2(Omega) norm: sqrt(f_0^2 + sum_q q! ||f_q||^2)."""
    return math.sqrt(max(l2_inner(F, F), 0.0))


def _cumulants(seq) -> list:
    """[kappa_2, ..., kappa_len(seq)] of a centered F from its gamma sequence
    ``seq`` = [Gamma_0(F), ...]: kappa_r = (r-1)! E[Gamma_{r-1}(F)]."""
    return [math.factorial(j) * gamma.mean for j, gamma in enumerate(seq) if j]


def exact_cumulants(F: ChaosExpansion, jmax: int, max_order=None):
    """[kappa_1, ..., kappa_jmax] computed from one gamma sequence."""
    jmax = sym_tensor._integer(jmax, "jmax", 1)
    return [F.mean] + _cumulants(
        gamma_sequence(F.recentered(), jmax - 1, max_order=max_order))


def moments_from_cumulants(kappas, mmax: int):
    """Raw moments E[F^1..F^mmax] from cumulants [kappa_1, kappa_2, ...]."""
    mmax = sym_tensor._integer(mmax, "mmax", 0)
    if len(kappas) < mmax:
        raise ValueError(f"need {mmax} cumulants, got {len(kappas)}")
    moments = [1.0]  # E[F^0]
    for m in range(mmax):
        val = 0.0
        for i in range(m + 1):
            val += math.comb(m, i) * kappas[i] * moments[m - i]
        moments.append(val)
    return moments[1:]


def chaos_polynomial(F: ChaosExpansion, coeffs, max_order=None) -> ChaosExpansion:
    """phi(F) for a polynomial phi given by ascending coefficients."""
    sym_tensor._max_order(max_order)
    result = ChaosExpansion.constant(F.dim, 0.0)
    power = ChaosExpansion.constant(F.dim, 1.0)
    for j, c in enumerate(coeffs):
        if j > 0:
            power = multiply(power, F, max_order=max_order)
        if c != 0.0:
            result = result + float(c) * power
    return result
