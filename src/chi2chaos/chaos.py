"""Finite chaos expansions with exact algebra.

A random variable F = sum_q I_q(f_q) over the Gaussian family W(e_i) = x_i is
represented by its kernels {q: f_q}; order 0 holds the mean.  Everything here
is exact coefficient arithmetic: products via the multiplication formula,
derivative and inverse-generator operators acting order by order, the iterated
gamma operators (two independent implementations that cross-check each other),
and cumulants read off the order-0 coefficient of gamma expansions.

Conventions that matter:

* Hermite polynomials are the probabilists' ones, H_{q+1} = x H_q - q H_{q-1}.
  The physicists' convention would silently break pathwise evaluation.
* E[I_q(f)^2] = q! ||f||^2, with the plain Euclidean kernel norm.
"""

from __future__ import annotations

import json
import math
from itertools import combinations_with_replacement

import numpy as np

from . import sym_tensor
from .errors import ResourceGuardError
from .sym_tensor import SymmetricKernel, symmetrize


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
            if (isinstance(arr, np.ndarray) and arr.dtype == np.float64
                    and not arr.flags.writeable and arr.base is None):
                a = arr
            else:
                a = _sealed(np.array(arr, dtype=float))
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

    def sym_kernel(self, q: int) -> SymmetricKernel:
        return SymmetricKernel(q, self.dim, self.kernel(q))

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


class GradientField:
    """An H-valued expansion: order q entry is q-symmetric with one free slot.

    Entry arrays have order q+1; the first q axes are kernel slots and the
    last axis is the free H-index.  Represents fields like DF.
    """

    def __init__(self, dim: int, entries=None):
        self.dim = dim
        self._entries = {}
        for q, arr in (entries or {}).items():
            a = np.array(arr, dtype=float)
            if a.shape != (dim,) * (q + 1):
                raise ValueError(
                    f"entry at order {q} has shape {a.shape}, expected order {q + 1}"
                )
            a.flags.writeable = False
            self._entries[int(q)] = a

    def orders(self):
        return sorted(self._entries)

    def entry(self, q: int) -> np.ndarray:
        if q in self._entries:
            return self._entries[q]
        return np.zeros((self.dim,) * (q + 1))

    def __mul__(self, c: float):
        return GradientField(self.dim, {q: c * a for q, a in self._entries.items()})

    __rmul__ = __mul__


def hermite(q: int, x):
    """Probabilists' Hermite polynomial H_q evaluated at x (scalar or array)."""
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if q == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = x.copy()
    for m in range(1, q):
        h, h_prev = x * h - m * h_prev, h
    return h if h.ndim else float(h)


def multiply(F: ChaosExpansion, G: ChaosExpansion, max_order=None) -> ChaosExpansion:
    """Exact product of two expansions via the multiplication formula."""
    if F.dim != G.dim:
        raise ValueError("dimension mismatch")
    if max_order is None:
        max_order = sym_tensor.MAX_ORDER
    out = {}
    for p in F.orders():
        f = F.sym_kernel(p)
        for q in G.orders():
            g = G.sym_kernel(q)
            for r in range(min(p, q) + 1):
                m = p + q - 2 * r
                if m > max_order:
                    raise ResourceGuardError(
                        f"product term of order {m} exceeds max_order={max_order}"
                    )
                c = math.factorial(r) * math.comb(p, r) * math.comb(q, r)
                term = c * sym_tensor.sym_contract(f, g, r, max_order=max_order).coeffs
                out[m] = out.get(m, 0.0) + term
    return ChaosExpansion(F.dim, out)


def _hermite_table(x: np.ndarray, qmax: int) -> np.ndarray:
    """H_m(x) for m = 0..qmax, stacked along the first axis."""
    table = np.empty((qmax + 1,) + x.shape)
    table[0] = 1.0
    if qmax >= 1:
        table[1] = x
    for m in range(1, qmax):
        table[m + 1] = x * table[m] - m * table[m - 1]
    return table


def evaluate(F: ChaosExpansion, x):
    """Pathwise value of F at W(e_i) = x_i.

    ``x`` is a vector of length d or an (n, d) array of sample rows.  Each
    kernel contributes through products of Hermite polynomials: an unordered
    basis multi-index with multiplicities (m_1, ..., m_d) evaluates to
    prod_i H_{m_i}(x_i), and its q!/prod(m_i!) ordered positions all carry
    the same stored coefficient, which supplies the multinomial weight.
    """
    xs = np.asarray(x, dtype=float)
    scalar_input = xs.ndim == 1
    if scalar_input:
        xs = xs[None, :]
    if xs.shape[1] != F.dim:
        raise ValueError(f"x has dimension {xs.shape[1]}, expected {F.dim}")
    n = xs.shape[0]
    if F.max_order >= 3 and n > 131_072:
        # bound the Hermite-table memory for the generic path
        return np.concatenate([evaluate(F, xs[i:i + 131_072])
                               for i in range(0, n, 131_072)])
    total = np.zeros(n)
    for q in F.orders():
        kern = F.kernel(q)
        if q == 0:
            total += float(kern)
        elif q == 1:
            total += xs @ kern
        elif q == 2:
            # I_2(f) = x^T f x - tr f  (quadratic-form fast path)
            total += np.einsum("ni,ni->n", xs @ kern, xs) - np.trace(kern)
        else:
            table = _hermite_table(xs, q)
            qfact = math.factorial(q)
            for idx in combinations_with_replacement(range(F.dim), q):
                coeff = kern[idx]
                if coeff == 0.0:
                    continue
                mult = {}
                for i in idx:
                    mult[i] = mult.get(i, 0) + 1
                weight = qfact
                for m in mult.values():
                    weight //= math.factorial(m)
                term = np.full(n, float(weight) * coeff)
                for i, m in mult.items():
                    term *= table[m, :, i]
                total += term
    return float(total[0]) if scalar_input else total


def derivative(F: ChaosExpansion) -> GradientField:
    """Malliavin derivative: order-q kernel contributes q * f_q, one slot freed."""
    entries = {}
    for q in F.orders():
        if q == 0:
            continue
        entries[q - 1] = q * F.kernel(q)
    return GradientField(F.dim, entries)


def apply_L(F: ChaosExpansion) -> ChaosExpansion:
    """Ornstein-Uhlenbeck generator: scale order q by -q."""
    return ChaosExpansion(
        F.dim, {q: -q * F.kernel(q) for q in F.orders() if q > 0})


def apply_L_inverse(F: ChaosExpansion) -> ChaosExpansion:
    """Pseudo-inverse of L: scale order q >= 1 by -1/q, drop the mean."""
    return ChaosExpansion(
        F.dim, {q: (-1.0 / q) * F.kernel(q) for q in F.orders() if q > 0})


def gradient_inner(U: GradientField, V: GradientField, max_order=None) -> ChaosExpansion:
    """H-inner product of two gradient fields, as an exact chaos expansion.

    For entries u (order p, one free slot) and v (order q, one free slot) the
    product rule applies per free-index pairing: the contribution is
    sum_r r! C(p,r) C(q,r) I_{p+q-2r}(sym of the contraction over the free
    slot plus r further indices).
    """
    if U.dim != V.dim:
        raise ValueError("dimension mismatch")
    if max_order is None:
        max_order = sym_tensor.MAX_ORDER
    dim = U.dim
    out = {}
    for p in U.orders():
        u = U.entry(p)
        for q in V.orders():
            v = V.entry(q)
            for r in range(min(p, q) + 1):
                m = p + q - 2 * r
                if m > max_order:
                    raise ResourceGuardError(
                        f"gradient pairing term of order {m} exceeds "
                        f"max_order={max_order}"
                    )
                axes_u = list(range(p - r, p)) + [p]
                axes_v = list(range(q - r, q)) + [q]
                raw = np.tensordot(u, v, axes=(axes_u, axes_v))
                blocks = tuple(b for b in (p - r, q - r) if b > 0)
                if blocks:
                    raw = symmetrize(raw, blocks=blocks, max_order=max_order)
                c = math.factorial(r) * math.comb(p, r) * math.comb(q, r)
                out[m] = out.get(m, 0.0) + c * raw
    return ChaosExpansion(dim, out)


def gamma_step(F: ChaosExpansion, G: ChaosExpansion, max_order=None) -> ChaosExpansion:
    """One gamma iteration: the pairing <DF, -D L^{-1} G> as a chaos expansion."""
    if F.dim != G.dim:
        raise ValueError("dimension mismatch")
    U = derivative(F)
    V = derivative(apply_L_inverse(G)) * (-1.0)
    return gradient_inner(U, V, max_order=max_order)


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
    if max_order is None:
        max_order = sym_tensor.MAX_ORDER
    q = f.order
    out = {}

    def descend(current: SymmetricKernel, const: float, step: int):
        m = current.order
        for r in range(1, min(m, q) + 1):
            m_next = m + q - 2 * r
            if step < i and m_next == 0:
                continue
            if m_next > max_order:
                raise ResourceGuardError(
                    f"gamma term of order {m_next} exceeds max_order={max_order}"
                )
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


def second_moment(F: ChaosExpansion) -> float:
    return l2_inner(F, F)


def exact_cumulant(F: ChaosExpansion, j: int, max_order=None) -> float:
    """j-th cumulant of F, exactly.

    kappa_1 is the mean; for j >= 2 the variable is recentered (cumulants of
    order >= 2 are translation invariant) and kappa_j is (j-1)! times the
    order-0 coefficient of Gamma_{j-1}(F - E F).
    """
    return exact_cumulants(F, j, max_order=max_order)[j - 1]


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


def save_expansion(F: ChaosExpansion, path):
    """Write {"dim": d, "kernels": [{"order", "coeffs"}...]}; mean at order 0."""
    doc = {"dim": F.dim,
           "kernels": [{"order": q,
                        "coeffs": [float(v) for v in F.kernel(q).reshape(-1)]}
                       for q in F.orders()]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_expansion(path, max_order=None, max_elements=None) -> ChaosExpansion:
    with open(path) as fh:
        doc = json.load(fh)
    dim = int(doc["dim"])
    kernels = {}
    for entry in doc["kernels"]:
        kdoc = {"order": entry["order"], "dim": dim, "coeffs": entry["coeffs"]}
        kern = sym_tensor.kernel_from_dict(kdoc, max_order=max_order,
                                           max_elements=max_elements)
        kernels[kern.order] = kern.coeffs
    return ChaosExpansion(dim, kernels)
