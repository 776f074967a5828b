"""Dense symmetric tensor algebra over R^d.

A kernel of order q is stored as the full dense array of its d^q coefficients
(row-major), which keeps contraction code free of multiset bookkeeping at the
cost of redundancy.  Guard rails reject tensors that would not fit desk-scale
work: orders above ``MAX_ORDER`` and coefficient arrays above ``MAX_ELEMENTS``
entries.  ``_check_guard`` is the one check of both, and every kernel array
the library makes from scratch is allocated by ``_zeros`` behind it.  Only
``max_order`` can be overridden per call; the element limit is fixed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ResourceGuardError

MAX_ORDER = 8
MAX_ELEMENTS = 10_000_000
# the most a caller's kernel may differ from its symmetrization, as a share
# of its largest |coefficient|
SYMMETRY_TOL = 1e-12


def _check_guard(order, dim, max_order=None):
    """``(order, dim)`` as ints; order, dim and max_order obey ``_integer``."""
    order, dim = _integer(order, "order", 0), _integer(dim, "dim", 1)
    max_order = _max_order(max_order)
    if order > max_order:
        raise ResourceGuardError(
            f"tensor order {order} exceeds the guard max_order={max_order}"
        )
    if dim ** order > MAX_ELEMENTS:
        raise ResourceGuardError(
            f"dense tensor with dim={dim}, order={order} has {dim ** order} "
            f"entries, above the guard MAX_ELEMENTS={MAX_ELEMENTS}"
        )
    return order, dim


def _zeros(order, dim, max_order=None) -> np.ndarray:
    """The zero array of an order-``order`` tensor over R^dim, allocated
    only once it passes ``_check_guard(order, dim, max_order)``."""
    order, dim = _check_guard(order, dim, max_order)
    return np.zeros((dim,) * order)


def _max_order(max_order) -> int:
    """``MAX_ORDER``, or a given max_order that obeys ``_integer``."""
    return (MAX_ORDER if max_order is None
            else _integer(max_order, "max_order", 0))


def _integer(value, name, least, below=None) -> int:
    """``value`` as an int, or ValueError naming ``name`` unless it is an
    integer (a NumPy integer is; a bool is not) in [least, below)."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if number < least:
        raise ValueError(f"{name} must be >= {least}, got {number}")
    if below is not None and number >= below:
        raise ValueError(f"{name} must be < {below}, got {number}")
    return number


def _same_dim(a: int, b: int) -> int:
    """The dimension a of two operands, or ValueError unless b equals it."""
    if a != b:
        raise ValueError(f"dimension mismatch: {a} != {b}")
    return a


def _sealed(arr) -> np.ndarray:
    """An array the library has just computed, as the read-only float64
    array that ``_held`` keeps without a copy."""
    arr = np.asarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


def _held(arr) -> np.ndarray:
    """``arr`` as a kernel or sample holds it (README, "guard rails"): kept
    if it is a read-only float64 array owning its data, else a sealed copy."""
    if (isinstance(arr, np.ndarray) and arr.dtype == np.float64
            and not arr.flags.writeable and arr.base is None):
        return arr
    return _sealed(np.array(arr, dtype=float))


@dataclass(frozen=True)
class SymmetricKernel:
    """Order-q symmetric tensor over R^d; order 0 is a scalar.

    ``coeffs`` has shape ``(dim,) * order`` and is invariant under every
    permutation of its indices.  ``coeffs`` is read-only, held by the
    ownership rule of :func:`_held` (README, "guard rails"): an array the
    library sealed is symmetric by construction and kept as it is, and an
    array the rule copies must differ from its symmetrization by at most
    ``SYMMETRY_TOL`` of its largest |coefficient|, else ValueError.
    """

    order: int
    dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        arr = _held(self.coeffs)
        object.__setattr__(self, "order", _integer(self.order, "order", 0))
        object.__setattr__(self, "dim", _integer(self.dim, "dim", 1))
        if arr.shape != (self.dim,) * self.order:
            raise ValueError(
                f"coeffs shape {arr.shape} does not match order={self.order}, "
                f"dim={self.dim}"
            )
        if arr is not self.coeffs:
            _check_symmetric(arr)
        object.__setattr__(self, "coeffs", arr)


def _check_symmetric(arr):
    """ValueError unless ``arr`` differs from its symmetrization by at most
    ``SYMMETRY_TOL`` of its largest |coefficient|.  No guard applies, and an
    array with a non-finite entry is left to the finiteness checks."""
    scale = np.max(np.abs(arr))
    if arr.ndim < 2 or not 0.0 < scale < np.inf:
        return
    unit = arr / scale
    gap = float(np.max(np.abs(_permutation_average(unit) - unit)))
    if gap > SYMMETRY_TOL:
        raise ValueError(
            f"order-{arr.ndim} coeffs differ from their symmetrization by "
            f"{gap:.3g} of their largest |coefficient|, above {SYMMETRY_TOL:g}")


# kept only for perfbench/test_bench.py, until ROADMAP item 1 retires it
def _arrangement_count(blocks):
    q = sum(blocks)
    n = math.factorial(q)
    for b in blocks:
        n //= math.factorial(b)
    return n


def symmetrize(tensor, *, max_order=None):
    """Average ``tensor`` over all q! index permutations.

    Axes are inserted one at a time: when the first m axes of ``acc`` are
    symmetric, ``(acc + sum_{j<m} swapaxes(acc, j, m)) / (m + 1)`` averages
    over the m + 1 places of axis m among them, so the first m + 1 axes are
    symmetric.  Running m = 1 .. q-1 gives exactly the q!-permutation average
    in q(q-1)/2 strided adds over the tensor, with two tensors alive besides
    the input.  At order 2 this is ``(t + t.T) / 2``.
    """
    t = np.asarray(tensor, dtype=float)
    q = t.ndim
    if t.shape != t.shape[:1] * q:
        raise ValueError(f"tensor shape {t.shape} is not cubical")
    _check_guard(q, t.shape[0] if q else 1, max_order)
    return _permutation_average(t)


def _permutation_average(t: np.ndarray) -> np.ndarray:
    """The q!-permutation average of :func:`symmetrize`, unguarded."""
    if t.ndim <= 1:
        return t.copy()
    acc = t
    for m in range(1, t.ndim):
        nxt = acc + acc.swapaxes(0, m)
        for j in range(1, m):
            nxt += acc.swapaxes(j, m)
        nxt /= m + 1
        acc = nxt
    return acc


def contract(f: SymmetricKernel, g: SymmetricKernel, r: int) -> np.ndarray:
    """Contraction of order r: pair the last r indices of f with the last r
    indices of g.

    Returns the dense (generally non-symmetric) tensor of order
    ``f.order + g.order - 2r``.  ``r=0`` is the tensor product and
    ``r = f.order = g.order`` is the scalar inner product.

    Each operand is taken as its ``(d^(order-r), d^r)`` matrix view and the
    two are multiplied by one plain ``einsum`` (no ``optimize``), which
    never calls BLAS, so no BLAS thread competes with the caller's threads
    and the value does not depend on the BLAS build.  A dense 256 x 256
    product takes about 4.5 ms this way, against 0.4 ms on one BLAS thread.
    The product is written into the matrix view of a fresh ``_zeros`` array
    of the result's shape (element guard only), so the result owns its data.
    """
    d, p, q = _same_dim(f.dim, g.dim), f.order, g.order
    r = _integer(r, "r", 0, min(p, q) + 1)
    a = f.coeffs.reshape(d ** (p - r), d ** r)
    b = g.coeffs.reshape(d ** (q - r), d ** r)
    out = _zeros(p + q - 2 * r, d, max_order=p + q - 2 * r)
    np.einsum("ik,jk->ij", a, b, out=out.reshape(len(a), len(b)))
    return out


def sym_contract(f: SymmetricKernel, g: SymmetricKernel, r: int,
                 max_order=None) -> SymmetricKernel:
    """Symmetrized contraction of f and g of order r: :func:`contract` (one
    einsum, no BLAS call), then :func:`symmetrize` (q(q-1)/2 adds over the
    order-q result; an order <= 1 result is symmetric as it is).

    The guards are checked on the result's order f.order + g.order - 2r
    before ``contract`` allocates it."""
    r = _integer(r, "r", 0, min(f.order, g.order) + 1)
    _check_guard(f.order + g.order - 2 * r, f.dim, max_order)
    raw = contract(f, g, r)
    sym = raw if raw.ndim <= 1 else symmetrize(raw, max_order=max_order)
    return SymmetricKernel(raw.ndim, f.dim, _sealed(sym))


def inner(f: SymmetricKernel, g: SymmetricKernel) -> float:
    """Euclidean inner product of the coefficient arrays."""
    if f.order != g.order:
        raise ValueError(f"order mismatch: {f.order} != {g.order}")
    _same_dim(f.dim, g.dim)
    return float(np.sum(f.coeffs * g.coeffs))


def basis_kernel(dim: int, index: tuple) -> SymmetricKernel:
    """Symmetrized elementary tensor e_{i1} o ... o e_{iq} (0-based indices)."""
    t = _zeros(len(index), dim)
    t[tuple(index)] = 1.0
    return SymmetricKernel(t.ndim, dim, _sealed(symmetrize(t)))


def random_kernel(order: int, dim: int, rng, scale=1.0,
                  max_order=None) -> SymmetricKernel:
    """Symmetrization of a tensor with U[-scale, scale] entries."""
    order, dim = _check_guard(order, dim, max_order)
    raw = rng.uniform(-scale, scale, size=(dim,) * order)
    return SymmetricKernel(order, dim,
                           _sealed(symmetrize(raw, max_order=max_order)))
