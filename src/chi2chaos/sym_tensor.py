"""Dense symmetric tensor algebra over R^d.

A kernel of order q is stored as the full dense array of its d^q coefficients
(row-major), which keeps contraction code free of multiset bookkeeping at the
cost of redundancy.  Guard rails reject tensors that would not fit desk-scale
work: orders above ``MAX_ORDER`` and coefficient arrays above ``MAX_ELEMENTS``
entries.  Each is checked where a tensor's order and dimension first become
known, before its array is allocated.  Only ``max_order`` can be overridden
per call; the element limit is fixed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceGuardError

MAX_ORDER = 8
MAX_ELEMENTS = 10_000_000

SYMMETRY_RTOL = 1e-12  # load-time symmetry tolerance, relative to the norm


def _check_guard(order, dim, max_order=None):
    max_order = MAX_ORDER if max_order is None else max_order
    if order > max_order:
        raise ResourceGuardError(
            f"tensor order {order} exceeds the guard max_order={max_order}"
        )
    if dim ** order > MAX_ELEMENTS:
        raise ResourceGuardError(
            f"dense tensor with dim={dim}, order={order} has {dim ** order} "
            f"entries, above the guard MAX_ELEMENTS={MAX_ELEMENTS}"
        )


def _held(arr) -> np.ndarray:
    """``arr`` as a kernel holds it: kept if it already is a read-only
    float64 array owning its data, else copied and made read-only."""
    if (isinstance(arr, np.ndarray) and arr.dtype == np.float64
            and not arr.flags.writeable and arr.base is None):
        return arr
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SymmetricKernel:
    """Order-q symmetric tensor over R^d; order 0 is a scalar.

    ``coeffs`` has shape ``(dim,) * order`` and is invariant under every
    permutation of its indices.  Instances built by library operations are
    symmetric by construction; data loaded from files is checked.

    ``coeffs`` is held read-only.  An array passed in that already is a
    read-only float64 array owning its data is kept as it is; anything else
    is copied, so later writes to the caller's array never reach the kernel.
    """

    order: int
    dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        arr = _held(self.coeffs)
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if arr.shape != (self.dim,) * self.order:
            raise ValueError(
                f"coeffs shape {arr.shape} does not match order={self.order}, "
                f"dim={self.dim}"
            )
        object.__setattr__(self, "coeffs", arr)

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.coeffs ** 2)))


# kept only for perfbench/test_bench.py, until ROADMAP item 7 retires it
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
    if q <= 1:
        return t.copy()
    dim = t.shape[0]
    if t.shape != (dim,) * q:
        raise ValueError(f"tensor shape {t.shape} is not cubical")
    _check_guard(q, dim, max_order)

    acc = t
    for m in range(1, q):
        nxt = acc + acc.swapaxes(0, m)
        for j in range(1, m):
            nxt += acc.swapaxes(j, m)
        nxt /= m + 1
        acc = nxt
    return acc


def contract(f: SymmetricKernel, g: SymmetricKernel, r: int) -> np.ndarray:
    """Contraction of order r: pair r indices of f with r indices of g.

    Returns the dense (generally non-symmetric) tensor of order
    ``f.order + g.order - 2r``.  ``r=0`` is the tensor product and
    ``r = f.order = g.order`` is the scalar inner product.
    """
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} != {g.dim}")
    if not 0 <= r <= min(f.order, g.order):
        raise ValueError(
            f"contraction order r={r} outside [0, {min(f.order, g.order)}]"
        )
    p, q = f.order, g.order
    axes_f = list(range(p - r, p))
    axes_g = list(range(q - r, q))
    return np.tensordot(f.coeffs, g.coeffs, axes=(axes_f, axes_g))


def sym_contract(f: SymmetricKernel, g: SymmetricKernel, r: int,
                 max_order=None) -> SymmetricKernel:
    """Symmetrized contraction of f and g of order r: :func:`contract`, then
    :func:`symmetrize` (q(q-1)/2 adds over the order-q result), with
    read-only coefficients that the kernel holds without a copy.

    The guards are checked on the result's order f.order + g.order - 2r
    before ``contract`` allocates it."""
    _check_guard(f.order + g.order - 2 * r, f.dim, max_order)
    raw = contract(f, g, r)
    if raw.ndim == 0:
        return SymmetricKernel(0, f.dim, raw)
    sym = symmetrize(raw, max_order=max_order)
    sym.flags.writeable = False
    return SymmetricKernel(raw.ndim, f.dim, sym)


def inner(f: SymmetricKernel, g: SymmetricKernel) -> float:
    """Euclidean inner product of the coefficient arrays."""
    if f.order != g.order or f.dim != g.dim:
        raise ValueError(
            f"shape mismatch: order/dim ({f.order},{f.dim}) vs "
            f"({g.order},{g.dim})"
        )
    return float(np.sum(f.coeffs * g.coeffs))


def norm(f: SymmetricKernel) -> float:
    return f.norm


def basis_kernel(dim: int, index: tuple) -> SymmetricKernel:
    """Symmetrized elementary tensor e_{i1} o ... o e_{iq} (0-based indices)."""
    q = len(index)
    _check_guard(q, dim)
    t = np.zeros((dim,) * q)
    t[tuple(index)] = 1.0
    return SymmetricKernel(q, dim, symmetrize(t))


def random_kernel(order: int, dim: int, rng, scale=1.0,
                  max_order=None) -> SymmetricKernel:
    """Symmetrization of a tensor with U[-scale, scale] entries."""
    _check_guard(order, dim, max_order)
    raw = rng.uniform(-scale, scale, size=(dim,) * order)
    return SymmetricKernel(order, dim, symmetrize(raw, max_order=max_order))


def save_kernel(f: SymmetricKernel, path):
    """Write the kernel file format: {"order", "dim", "coeffs" row-major}."""
    doc = {"order": f.order, "dim": f.dim,
           "coeffs": [float(v) for v in f.coeffs.reshape(-1)]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_kernel(path, max_order=None) -> SymmetricKernel:
    """Load and validate a kernel file (length and symmetry checks)."""
    with open(path) as fh:
        doc = json.load(fh)
    return kernel_from_dict(doc, max_order=max_order)


def kernel_from_dict(doc, max_order=None) -> SymmetricKernel:
    order = int(doc["order"])
    dim = int(doc["dim"])
    _check_guard(order, dim, max_order)
    coeffs = np.asarray(doc["coeffs"], dtype=float)
    if coeffs.size != dim ** order:
        raise ValueError(
            f"coeffs has {coeffs.size} entries, expected dim^order = {dim ** order}"
        )
    arr = coeffs.reshape((dim,) * order)
    sym = symmetrize(arr, max_order=max_order)
    scale = np.sqrt(np.sum(arr ** 2))
    if np.max(np.abs(arr - sym), initial=0.0) > SYMMETRY_RTOL * max(scale, 1e-300):
        raise ValueError(
            f"coefficients are not symmetric to relative tolerance {SYMMETRY_RTOL}"
        )
    # store the exactly symmetric representative
    return SymmetricKernel(order, dim, sym)
