"""Spectral theory of order-2 kernels.

An order-2 kernel f acts on R^d as the symmetric matrix of its coefficients;
its eigenvalues drive everything about the law of I_2(f): iterated
contractions are matrix powers, cumulants are weighted eigenvalue power sums,
and the centered gamma operators collapse to second-chaos elements of the
iterated contractions.  A target law is the diagonal kernel of its distinct
nonzero weights, and :func:`eigenvalue_cumulant` gives its cumulants.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import chaos, sym_tensor
from .chaos import ChaosExpansion
from .errors import ConfigError, ConsistencyError
from .sym_tensor import SymmetricKernel


def finite_real(value, field: str) -> float:
    """``value`` as a float; ConfigError naming ``field`` unless it is a
    finite real number (a bool, string, None or list is not)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise ConfigError(f"{field}: finite number required, got {value!r}")


def eigenvalue_cumulant(eigenvalues, r: int) -> float:
    """kappa_r of I_2(f) from the eigenvalues lambda_j of f: 0 at r = 1,
    else 2^{r-1} (r-1)! sum_j lambda_j^r, each power r - 1 NumPy products:
    inf beyond the float range (a Python float power raises OverflowError),
    and odd in lambda (NumPy's SIMD power need not be)."""
    r = sym_tensor._integer(r, "r", 1)
    if r == 1:
        return 0.0
    lam = power = np.asarray(eigenvalues, dtype=float)
    for _ in range(r - 1):
        power = power * lam
    return (2.0 ** (r - 1)) * math.factorial(r - 1) * float(np.sum(power))


@dataclass(frozen=True)
class TargetSpec:
    """Pairwise-distinct nonzero weights (alpha_1, ..., alpha_k) of the target law."""

    alphas: tuple

    def __post_init__(self):
        alphas = tuple(finite_real(a, f"alphas[{i}]")
                       for i, a in enumerate(self.alphas))
        if len(alphas) < 1:
            raise ConfigError("alphas: at least one weight is required")
        for i, a in enumerate(alphas):
            if a == 0.0:
                raise ConfigError(f"alphas[{i}]: nonzero weight required")
        # each weight's first index, then the least pair (i, j) of equals
        first = {a: i for i, a in reversed(tuple(enumerate(alphas)))}
        pairs = [(first[a], j) for j, a in enumerate(alphas) if first[a] < j]
        if pairs:
            i, j = min(pairs)
            raise ConfigError(f"alphas[{j}] duplicates alphas[{i}] (= "
                              f"{alphas[i]}); weights must be pairwise distinct")
        object.__setattr__(self, "alphas", alphas)

    @property
    def k(self) -> int:
        return len(self.alphas)

    def cumulant(self, r: int) -> float:
        """kappa_r of the target: :func:`eigenvalue_cumulant` of its weights."""
        return eigenvalue_cumulant(self.alphas, r)

    def cumulants(self, rmax: int):
        """[kappa_1, ..., kappa_rmax]; kappa_1 = 0 (the target is centered)."""
        return [self.cumulant(r)
                for r in range(1, sym_tensor._integer(rmax, "rmax", 0) + 1)]


@dataclass(frozen=True)
class SpectralForm:
    """Eigenvalues (descending) and a sign-normalized orthonormal frame."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns


def _order_2(f: SymmetricKernel) -> SymmetricKernel:
    """``f``, or ValueError unless it is an order-2 kernel."""
    if f.order != 2:
        raise ValueError(f"kernel order must be 2, got {f.order}")
    return f


def spectral(f: SymmetricKernel) -> SpectralForm:
    """Symmetric eigendecomposition, deterministically ordered.

    Eigenvalues descend; each eigenvector's first component of magnitude above
    1e-12 of its sup-norm is made positive to pin the sign.
    """
    vals, vecs = np.linalg.eigh(_order_2(f).coeffs)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        big = np.abs(col) > 1e-12 * max(np.max(np.abs(col)), 1e-300)
        idx = int(np.argmax(big))
        if col[idx] < 0:
            vecs[:, j] = -col
    return SpectralForm(vals, vecs)


def iterated_contraction(f: SymmetricKernel, p: int) -> SymmetricKernel:
    """The p-fold iterated contraction of f with itself (p=1 gives f)."""
    out = _order_2(f)
    for _ in range(sym_tensor._integer(p, "p", 1) - 1):
        out = SymmetricKernel(
            2, f.dim, sym_tensor._sealed(sym_tensor.contract(out, f, 1)))
    return out


def cumulant_spectral_forms(f: SymmetricKernel, i: int):
    """Both closed forms of kappa_i(I_2(f)): by eigenvalues and by contraction.

    Returns (power-sum form, contraction form); they agree up to numerics.
    """
    _order_2(f)
    i = sym_tensor._integer(i, "i", 2)
    by_eigen = eigenvalue_cumulant(spectral(f).eigenvalues, i)
    by_contraction = ((2.0 ** (i - 1)) * math.factorial(i - 1)
                      * sym_tensor.inner(iterated_contraction(f, i - 1), f))
    return by_eigen, by_contraction


def cumulant_spectral(f: SymmetricKernel, i: int) -> float:
    """kappa_i(I_2(f)), self-checked across the two closed forms (1e-10 rel)."""
    by_eigen, by_contraction = cumulant_spectral_forms(f, i)
    tol = 1e-10 * (1.0 + abs(by_eigen) + abs(by_contraction))
    if abs(by_eigen - by_contraction) > tol:
        raise ConsistencyError(
            f"cumulant order {i}: eigenvalue form {by_eigen!r} and contraction "
            f"form {by_contraction!r} disagree beyond tolerance {tol!r}"
        )
    return by_eigen


def target_kernel(spec: TargetSpec, d: int) -> SymmetricKernel:
    """Diagonal kernel sum_i alpha_i e_i x e_i embedded in dimension d >= k."""
    return sym_tensor._diagonal(spec.alphas, sym_tensor._integer(d, "d", spec.k))


def gamma_identity_defect(f: SymmetricKernel, r: int, max_order=None) -> float:
    """L^2 gap in the identity linking iterated contractions to gamma operators.

    Both sides of I_2(f x1^(r) f) = 2^{1-r} (Gamma_{r-1}(I_2 f) - E Gamma_{r-1})
    are built independently (left by matrix contractions, right by the gamma
    recursion) and the L^2 norm of their difference is returned; it should be
    below ~1e-10 * (1 + ||f||^r).
    """
    r = sym_tensor._integer(r, "r", 1)
    lhs = ChaosExpansion.from_kernel(iterated_contraction(f, r))
    F = ChaosExpansion.from_kernel(f)
    gamma = chaos.gamma_sequence(F, r - 1, max_order=max_order)[r - 1]
    rhs = (2.0 ** (1 - r)) * gamma.recentered()
    return chaos.l2_norm(lhs - rhs)
