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

import numpy as np

from . import sym_tensor
from .sym_tensor import SymmetricKernel


class ChaosExpansion:
    """Finite map order -> kernel array, closed under the operations below.

    Kernels are held as read-only float arrays.  A kernel passed in that
    already is a read-only float64 array owning its data (every
    ``SymmetricKernel.coeffs`` is one) is kept as it is; anything else is
    copied, so later writes to the caller's array never reach the expansion.
    """

    def __init__(self, dim: int, kernels=None):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self._kernels = {}
        for q, arr in (kernels or {}).items():
            a = sym_tensor._held(arr)
            if a.shape != (dim,) * q:
                raise ValueError(
                    f"kernel at order {q} has shape {a.shape}, expected {(dim,) * q}"
                )
            self._kernels[int(q)] = a

    @classmethod
    def constant(cls, dim: int, value: float) -> "ChaosExpansion":
        return cls(dim, {0: np.asarray(float(value))})

    @classmethod
    def from_kernel(cls, f: SymmetricKernel) -> "ChaosExpansion":
        """The single multiple integral I_q(f)."""
        return cls(f.dim, {f.order: f.coeffs})

    def orders(self):
        return sorted(self._kernels)

    def kernel(self, q: int) -> np.ndarray:
        """Kernel at order q; absent orders are the zero kernel."""
        if q in self._kernels:
            return self._kernels[q]
        return np.zeros((self.dim,) * q)

    @property
    def mean(self) -> float:
        return float(self.kernel(0))

    @property
    def max_order(self) -> int:
        return max(self._kernels, default=0)

    def recentered(self) -> "ChaosExpansion":
        """Drop the order-0 part: F - E[F]."""
        return ChaosExpansion(
            self.dim, {q: a for q, a in self._kernels.items() if q > 0})

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = ChaosExpansion.constant(self.dim, other)
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = {}
        for q in set(self._kernels) | set(other._kernels):
            out[q] = _sealed(self.kernel(q) + other.kernel(q))
        return ChaosExpansion(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-other if isinstance(other, ChaosExpansion) else -float(other))

    def __mul__(self, c: float):
        return ChaosExpansion(
            self.dim, {q: _sealed(c * a) for q, a in self._kernels.items()})

    __rmul__ = __mul__


def _sealed(a) -> np.ndarray:
    """A freshly computed kernel as a read-only float array, which
    ``ChaosExpansion`` then holds without a copy."""
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _pair(F: ChaosExpansion, G: ChaosExpansion, weight, r_min: int,
          max_order=None) -> ChaosExpansion:
    """sum_{p,q,r >= r_min} weight(p,q,r) I_{p+q-2r}(f_p (x)~_r g_q)."""
    if F.dim != G.dim:
        raise ValueError("dimension mismatch")
    out = {}
    for p in F.orders():
        f = SymmetricKernel(p, F.dim, F.kernel(p))
        for q in G.orders():
            g = SymmetricKernel(q, G.dim, G.kernel(q))
            for r in range(r_min, min(p, q) + 1):
                m = p + q - 2 * r
                term = weight(p, q, r) * sym_tensor.sym_contract(
                    f, g, r, max_order=max_order).coeffs
                out[m] = out.get(m, 0.0) + term
    return ChaosExpansion(F.dim, {m: _sealed(a) for m, a in out.items()})


def multiply(F: ChaosExpansion, G: ChaosExpansion, max_order=None) -> ChaosExpansion:
    """Exact product of two expansions via the multiplication formula."""
    def weight(p, q, r):
        return math.factorial(r) * math.comb(p, r) * math.comb(q, r)

    return _pair(F, G, weight, 0, max_order)


# Most rows, and most inputs (2 MB), in one block of pathwise evaluation: the
# block's (qmax+1, d, rows) Hermite table, its order-2 product x f and one
# term's row vector stay small however many rows a call has.
_BLOCK_ROWS = 1 << 14
_BLOCK_VALUES = 1 << 18


def _block_rows(d: int) -> int:
    """Rows per block of d inputs: 16 384 up to d = 16, fewer above."""
    return min(_BLOCK_ROWS, max(1, _BLOCK_VALUES // d))


def _hermite_table(x: np.ndarray, qmax: int) -> np.ndarray:
    """H_m(x) for m = 0..qmax, stacked along the first axis."""
    table = np.empty((qmax + 1,) + x.shape)
    table[0] = 1.0
    if qmax >= 1:
        table[1] = x
    for m in range(1, qmax):
        table[m + 1] = x * table[m] - m * table[m - 1]
    return table


def hermite(q: int, x):
    """Probabilists' Hermite polynomial H_q evaluated at x (scalar or array):
    row q of :func:`_hermite_table`."""
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    h = _hermite_table(np.asarray(x, dtype=float), q)[q]
    return h if h.ndim else float(h)


def _hermite_terms(kern: np.ndarray, q: int, dim: int):
    """(coeffs, factors) for the nonzero unordered basis multi-indices of
    order q, as sorted tuples i_1 <= ... <= i_q in lexicographic order:
    term t is coeffs[t] * prod_j row factors[t, j] of a Hermite table
    flattened to ((qmax+1) * dim, rows), over the entries before the
    first -1.

    The multi-index with multiplicities m_i evaluates to prod_i H_{m_i}(x_i),
    whose factors are rows m_i * dim + i in increasing i, and its
    q!/prod(m_i!) ordered positions all carry the same stored coefficient,
    which supplies the multinomial weight: coeffs[t] is float(weight) * coeff.
    """
    grid = np.ogrid[(slice(dim),) * q]
    sorted_nonzero = kern != 0.0
    for i, j in zip(grid, grid[1:]):
        sorted_nonzero &= i <= j
    idx = np.argwhere(sorted_nonzero)
    coeffs = kern[tuple(idx.T)]
    # each run of equal entries i is one factor H_m(x_i); its first column
    # carries the multiplicity m
    first = np.ones(idx.shape, dtype=bool)
    first[:, 1:] = idx[:, 1:] != idx[:, :-1]
    mult = np.where(first, (idx[:, :, None] == idx[:, None, :]).sum(axis=2), 0)
    # q!/prod(m_i!) is the product over runs of C(end of run, its length),
    # exact in int64: it is at most the d**q entries of the kernel
    binom = np.array([[math.comb(n, k) for k in range(q + 1)]
                      for n in range(q + 1)])
    weights = np.prod(binom[np.arange(q) + mult, mult], axis=1)
    factors = np.where(first, mult * dim + idx, -1)
    factors = np.take_along_axis(
        factors, np.argsort(~first, axis=1, kind="stable"), axis=1)
    return weights.astype(float) * coeffs, factors


def _hermite_groups(F: ChaosExpansion):
    """F's order >= 3 terms from :func:`_hermite_terms`, grouped by their
    leading factors: a list of (lead, (row, coeff), rest), one per distinct
    tuple ``lead`` of table rows that a term has before its last factor.
    (row, coeff) is the last factor and coefficient of the group's first
    term and ``rest`` lists those of its other terms.  Terms of different
    orders share a group when their leading rows agree.

    So the order >= 3 part of F is, summed over the groups,
    prod_{j in lead} row j * sum_{(l, c)} c * row l: the Horner form over
    the last factor.  Groups come in the order of their first terms, orders
    ascending, and a group's terms in their own order.
    """
    groups = {}
    for q in F.orders():
        if q < 3:
            continue
        coeffs, factors = _hermite_terms(F.kernel(q), q, F.dim)
        for c, row in zip(coeffs.tolist(), factors.tolist()):
            *lead, last = row[:q - row.count(-1)]
            groups.setdefault(tuple(lead), []).append((last, c))
    return [(lead, pairs[0], pairs[1:]) for lead, pairs in groups.items()]


def evaluate(F: ChaosExpansion, x):
    """Pathwise value of F at W(e_i) = x_i.

    ``x`` is a vector of length d (a float comes back) or an (n, d) array of
    sample rows (a length-n array comes back); any other shape raises
    ``ValueError``.  The rows are walked in blocks of :func:`_block_rows`
    rows, each evaluated by :func:`_evaluator`, so memory is bounded per
    block.  Orders 0-2 are evaluated on a block's rows at once: order 1 and
    the diagonal of order 2, sum_i f_ii (x_i^2 - 1), by einsum, and the
    off-diagonal part of order 2, if any, as the quadratic form x^T f x
    through BLAS, so there alone a row's last bits can depend on its
    block's row count.  Orders >= 3 are sums of products
    of Hermite polynomials over a (qmax+1, d, rows) Hermite table, so each
    factor H_m(x_i) is a contiguous row: the terms (one per unordered basis
    multi-index, see :func:`_hermite_terms`) that share every factor but
    their last are summed over that last factor first and multiplied by
    the shared factors once (see :func:`_hermite_groups`).  All of it is
    elementwise on the block's rows, so a row's value, but for an
    off-diagonal order-2 part, does not depend on the other rows in the
    call.  ``sample_chaos`` draws and evaluates the same blocks.
    """
    xs = np.asarray(x, dtype=float)
    if xs.ndim not in (1, 2) or xs.shape[-1] != F.dim:
        raise ValueError(
            f"x must have shape (d,) or (n, d) with d = {F.dim}, got {xs.shape}")
    values_of = _evaluator(F)
    if xs.ndim == 1:
        return float(values_of(xs[None, :])[0])
    rows = _block_rows(F.dim)
    out = np.empty(len(xs))
    for lo in range(0, len(xs), rows):
        out[lo:lo + rows] = values_of(xs[lo:lo + rows])
    return out


def _evaluator(F: ChaosExpansion):
    """F's pathwise values as a function of one block of rows, an (n, d)
    float array with 1 <= n: the body of :func:`evaluate` without its shape
    checks and its block loop.

    The groups of F's order >= 3 terms (:func:`_hermite_groups`) are built
    here, once, however many blocks the function is then called on.  They
    are not kept on ``F``: at (q, d) = (3, 100), 171 700 terms in 5 050
    groups, they take 15 MB.  Per block, a group's sum c * H_l over its
    terms is written
    into one row vector, multiplied in place by the group's leading rows
    and added to the total: two passes over the rows per term plus one per
    leading row, where a product per term took one per factor plus one.

    Whether order 2 has an off-diagonal part is found here too.  A
    diagonal kernel (every shipped family but rank-one-difference) has
    none, so its blocks need no BLAS call, whose worker threads would spin
    between calls and slow other threads; any other kernel keeps the BLAS
    speed.
    """
    groups = _hermite_groups(F)
    if 2 in F.orders():
        kern = F.kernel(2)
        diag, trace = np.diag(kern), np.trace(kern)
        off = kern - np.diag(diag)
        has_off = off.any()

    def values(xs):
        # einsum's summation order follows the memory layout
        xs = np.ascontiguousarray(xs)
        total = np.zeros(xs.shape[0])
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
                    total += np.einsum("ni,ni->n", xs @ off, xs)
        if groups:
            table = _hermite_table(np.ascontiguousarray(xs.T), F.max_order)
            rows = table.reshape(-1, len(total))
            acc, term = np.empty(len(total)), np.empty(len(total))
            for lead, (j, c), rest in groups:
                np.multiply(rows[j], c, out=acc)
                for j, c in rest:
                    acc += np.multiply(rows[j], c, out=term)
                for j in lead:
                    acc *= rows[j]
                total += acc
        return total

    return values


def apply_L(F: ChaosExpansion) -> ChaosExpansion:
    """Ornstein-Uhlenbeck generator: scale order q by -q."""
    return ChaosExpansion(
        F.dim, {q: -q * F.kernel(q) for q in F.orders() if q > 0})


def apply_L_inverse(F: ChaosExpansion) -> ChaosExpansion:
    """Pseudo-inverse of L: scale order q >= 1 by -1/q, drop the mean."""
    return ChaosExpansion(
        F.dim, {q: (-1.0 / q) * F.kernel(q) for q in F.orders() if q > 0})


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
    if imax < 0:
        raise ValueError(f"imax must be >= 0, got {imax}")
    seq = [F]
    for _ in range(imax):
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
    if f.order < 2:
        raise ValueError(f"kernel order must be >= 2, got {f.order}")
    if i < 1:
        raise ValueError(f"i must be >= 1, got {i}")
    q = f.order
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
    return ChaosExpansion(f.dim, out)


def l2_inner(F: ChaosExpansion, G: ChaosExpansion) -> float:
    """E[F G] via the chaos isometry: sum_q q! <f_q, g_q> plus the means."""
    if F.dim != G.dim:
        raise ValueError("dimension mismatch")
    total = 0.0
    for q in set(F.orders()) & set(G.orders()):
        total += math.factorial(q) * float(np.sum(F.kernel(q) * G.kernel(q)))
    return total


def l2_norm(F: ChaosExpansion) -> float:
    """L^2(Omega) norm: sqrt(f_0^2 + sum_q q! ||f_q||^2)."""
    return math.sqrt(max(l2_inner(F, F), 0.0))


def exact_cumulants(F: ChaosExpansion, jmax: int, max_order=None):
    """[kappa_1, ..., kappa_jmax] computed from one gamma sequence."""
    if jmax < 1:
        raise ValueError(f"jmax must be >= 1, got {jmax}")
    out = [F.mean]
    if jmax == 1:
        return out
    centered = F.recentered()
    seq = gamma_sequence(centered, jmax - 1, max_order=max_order)
    for j in range(2, jmax + 1):
        out.append(math.factorial(j - 1) * seq[j - 1].mean)
    return out


def moments_from_cumulants(kappas, mmax: int):
    """Raw moments E[F^1..F^mmax] from cumulants [kappa_1, kappa_2, ...]."""
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
    result = ChaosExpansion.constant(F.dim, 0.0)
    power = ChaosExpansion.constant(F.dim, 1.0)
    for j, c in enumerate(coeffs):
        if j > 0:
            power = multiply(power, F, max_order=max_order)
        if c != 0.0:
            result = result + float(c) * power
    return result
