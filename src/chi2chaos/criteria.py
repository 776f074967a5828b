"""Convergence criteria for chi-squared-combination targets.

Given a target with distinct nonzero weights alpha_1..alpha_k, the criterion
pairs (i) matching of cumulants up to order k+1 with (ii) the vanishing of a
second-moment statistic built from the centered gamma operators weighted by
the Taylor coefficients of P(x) = x prod (x - alpha_i).  Everything in this
module is exact kernel algebra; Monte Carlo enters only through the
montecarlo module as validation.

The conditional-expectation refinement of the criterion is deliberately not
estimated: the unconditional second moment is its upper bound and is what the
report carries; the run summary labels it "unconditional (sufficient)".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import chaos, sym_tensor
from .chaos import ChaosExpansion
from .spectral2 import TargetSpec, eigenvalue_cumulant
from .sym_tensor import SymmetricKernel


def _poly_mul(a, b):
    """Coefficients of the product of two polynomials, by shifting and
    adding b times each coefficient of a (``np.convolve`` takes its dot
    products through BLAS)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.zeros(len(a) + len(b) - 1)
    for i, c in enumerate(a):
        out[i:i + len(b)] += c * b
    return out


def _poly_deriv(coeffs, times=1):
    c = np.asarray(coeffs, dtype=float)
    for _ in range(times):
        if len(c) <= 1:
            return np.zeros(1)
        c = c[1:] * np.arange(1, len(c))
    return c


def _poly_expectation(coeffs, moments):
    """E[phi(F)] from raw moments (moments[i] = E[F^{i+1}])."""
    c = np.asarray(coeffs, dtype=float)
    if len(c) - 1 > len(moments):
        raise ValueError(
            f"polynomial of degree {len(c) - 1} needs {len(c) - 1} moments, "
            f"got {len(moments)}"
        )
    total = c[0] if len(c) else 0.0
    for j in range(1, len(c)):
        total += c[j] * moments[j - 1]
    return float(total)


@dataclass(frozen=True)
class CriterionPolynomials:
    """P(x) = x prod (x - alpha_i) and Q = P^2, as ascending coefficients.

    The r-th Taylor coefficient P^(r)(0)/r! is just ``p[r]``.
    """

    alphas: tuple
    p: np.ndarray
    q: np.ndarray

    @property
    def deg_p(self) -> int:
        return len(self.p) - 1

    @property
    def deg_q(self) -> int:
        return len(self.q) - 1


def build_polynomials(spec: TargetSpec) -> CriterionPolynomials:
    """Exact coefficients by repeated linear-factor convolution (no roots)."""
    p = np.array([0.0, 1.0])  # x
    for a in spec.alphas:
        p = _poly_mul(p, [-a, 1.0])
    return CriterionPolynomials(spec.alphas, sym_tensor._sealed(p),
                                sym_tensor._sealed(_poly_mul(p, p)))


def weighted_cumulant_sum(kappas, polys: CriterionPolynomials) -> float:
    """sum_{r=2}^{deg Q} Q^(r)(0)/r! * kappa_r / (2^{r-1} (r-1)!).

    ``kappas[j]`` holds kappa_{j+1}; the list must cover r = deg Q.
    """
    if len(kappas) < polys.deg_q:
        raise ValueError(
            f"need cumulants up to order {polys.deg_q}, got {len(kappas)}"
        )
    total = 0.0
    for r in range(2, polys.deg_q + 1):
        total += polys.q[r] * kappas[r - 1] / (2.0 ** (r - 1) * math.factorial(r - 1))
    return total


def _centered_combination(seq, spec: TargetSpec) -> ChaosExpansion:
    """sum_r P^(r)(0)/(r! 2^{r-1}) (Gamma_{r-1} - E Gamma_{r-1}), r = 1..k+1.

    ``seq`` is [Gamma_0, ..., Gamma_k].  Order-0 parts are left out, so the
    output is exactly centered.
    """
    p = build_polynomials(spec).p
    kernels = {}
    for r in range(1, spec.k + 2):
        coeff = p[r] / (2.0 ** (r - 1))
        for m in seq[r - 1].orders():
            if m > 0:
                kernels[m] = kernels.get(m, 0.0) + coeff * seq[r - 1].kernel(m)
    return ChaosExpansion(seq[0].dim, {m: sym_tensor._sealed(a)
                                       for m, a in kernels.items()})


def gamma_combination(F: ChaosExpansion, spec: TargetSpec,
                      max_order=None) -> ChaosExpansion:
    """The centered gamma combination of F, built on :func:`chaos.gamma_sequence`."""
    return _centered_combination(
        chaos.gamma_sequence(F, spec.k, max_order=max_order), spec)


@dataclass(frozen=True)
class CriterionReport:
    """Cumulant gaps and the gamma statistic.

    ``gamma_stat`` is the half second moment (1/2) E[(gamma combination)^2] of
    the centered weighted gamma combination: the normalization under which it
    equals both the weighted cumulant sum and sum_j Q(eigenvalue_j) for pure
    second-chaos inputs.
    """

    cumulant_gaps: tuple  # of (r, kappa_r(F), kappa_r(target), |gap|)
    gamma_stat: float


def criterion_statistic(F: ChaosExpansion, spec: TargetSpec,
                        max_order=None) -> CriterionReport:
    """Cumulant gaps up to order k+1 plus the gamma statistic for F vs target.

    F is recentered internally; kappa_r = (r-1)! E[Gamma_{r-1}(F)] and the
    gamma combination come from one gamma sequence.  Vanishing of all gaps
    and of gamma_stat is the implemented sufficient condition for
    convergence in total variation.
    """
    seq = chaos.gamma_sequence(F.recentered(), spec.k, max_order=max_order)
    gaps = []
    for r, kn in enumerate(chaos._cumulants(seq), start=2):
        kt = spec.cumulant(r)
        gaps.append((r, kn, kt, abs(kn - kt)))
    comb = _centered_combination(seq, spec)
    return CriterionReport(tuple(gaps), 0.5 * chaos.l2_inner(comb, comb))


def spectrum_criterion(eigenvalues, spec: TargetSpec) -> CriterionReport:
    """:func:`criterion_statistic` of I_2(f) from the eigenvalues lambda_j of
    f: kappa_r by the target's own formula, :func:`eigenvalue_cumulant`, and
    gamma_stat = sum_j Q(lambda_j), P(lambda) taken as the product lambda
    prod_i (lambda - alpha_i) (its expanded coefficients cancel near the
    weights)."""
    lam = np.asarray(eigenvalues, dtype=float)
    gaps = []
    for r in range(2, spec.k + 2):
        kn, kt = eigenvalue_cumulant(lam, r), spec.cumulant(r)
        gaps.append((r, kn, kt, abs(kn - kt)))
    p, _ = _p_and_size(lam, spec)
    return CriterionReport(tuple(gaps), float(np.sum(p * p)))


def _p_and_size(lam, spec: TargetSpec):
    """P(lambda_j) as the product, and |lambda_j| prod_i (|lambda_j| +
    |alpha_i|), the size of the terms P's expanded coefficients sum."""
    p, size = lam, np.abs(lam)
    for a in spec.alphas:
        p, size = p * (lam - a), size * (np.abs(lam) + abs(a))
    return p, size


def gamma_stat_tolerance(eigenvalues, spec: TargetSpec) -> float:
    """How far another computation of :func:`spectrum_criterion`'s
    gamma_stat = sum_j P(lambda_j)^2 may stray from it: 1e-9 of it plus
    sum_j e_j (2 |P(lambda_j)| + e_j), where e_j, 64 machine epsilons of
    the size of P's expanded terms, bounds the rounding of an expanded P,
    which cancels near the target's weights."""
    p, size = _p_and_size(np.asarray(eigenvalues, dtype=float), spec)
    err = 64 * np.finfo(float).eps * size
    return float(1e-9 * np.sum(p * p) + np.sum(err * (2 * np.abs(p) + err)))


def psi_functional(kappas, moments, spec: TargetSpec, phi) -> float:
    """The moment functional Psi_phi(F) for polynomial phi.

    ``kappas[j]`` = kappa_{j+1}(F) (need k+1 of them), ``moments[j]`` =
    E[F^{j+1}] (need deg(phi) of them), ``phi`` ascending coefficients.
    For variables whose centered gamma combination vanishes, Psi_phi(F)
    equals E[F phi(F)] for every polynomial phi.
    """
    k = spec.k
    polys = build_polynomials(spec)
    phi = np.asarray(phi, dtype=float)
    if len(kappas) < k + 1:
        raise ValueError(f"need {k + 1} cumulants, got {len(kappas)}")
    deg = len(phi) - 1
    if len(moments) < max(deg, 1):
        raise ValueError(f"need moments up to order {max(deg, 1)}, got {len(moments)}")

    def e_phi_deriv(r):
        return _poly_expectation(_poly_deriv(phi, r), moments)

    def e_f_phi_deriv(r):
        # E[F phi^(r)(F)]: multiply by x, i.e. shift coefficients up by one
        shifted = np.concatenate(([0.0], _poly_deriv(phi, r)))
        return _poly_expectation(shifted, moments)

    total = 0.0
    for r in range(k):
        total += kappas[r] / math.factorial(r) * e_phi_deriv(r)
    total += kappas[k] / math.factorial(k) * e_phi_deriv(k)
    for r in range(1, k + 1):
        # polys.p[r] is P^(r)(0)/r!, so the 1/r! of the formula is absorbed
        w = 2.0 ** (k - r + 1) * polys.p[r]
        total += w * kappas[r - 1] / math.factorial(r - 1) * e_phi_deriv(k)
        total -= w * e_f_phi_deriv(k - (r - 1))
        for s in range(1, r):
            total += w * e_phi_deriv(k - s) \
                * kappas[r - s - 1] / math.factorial(r - s - 1)
    return total


def _buckets(q: int) -> dict:
    """Bucket key -> chaos order, in :func:`q_chaos_conditions`' order."""
    return {("b1" if m == q else f"b{2 if m < 2 * q - 1 else 3}_k{m}"): m
            for m in [q] + [m for m in range(2 - q % 2, 3 * q - 3) if m != q]}


def q_chaos_conditions(f: SymmetricKernel, spec: TargetSpec,
                       max_order=None) -> dict:
    """Order-q contraction conditions for a two-weight target.

    The centered gamma combination of I_q(f), built from the explicit
    contraction formula :func:`chaos.gamma_explicit`, split by chaos order m;
    each value is the squared norm of one order's kernel:

    * ``a``   -- <f ~x_{q/2} f, f> (even q only; proportional to kappa_3),
    * ``b1``  -- order m = q,
    * ``b2_k{m}`` -- orders 1 <= m <= 2q-2, m != q (m = 1 at odd q only:
      every order is even when q is),
    * ``b3_k{m}`` -- orders 2q-1 <= m <= 3q-4.

    The b-keys cover every order of the combination, so
    ``gamma_stat = (1/2) sum_m m! * bucket_m`` holds at every q
    (:func:`conditions_gamma_stat`); at q = 2 this is gamma_stat == b1.
    """
    q = sym_tensor._integer(f.order, "kernel order", 2)
    if spec.k != 2:
        raise ValueError(f"conditions are defined for exactly two weights, "
                         f"got {spec.k}")
    seq = [ChaosExpansion.from_kernel(f)]
    seq += [chaos.gamma_explicit(f, i, max_order=max_order) for i in (1, 2)]
    comb = _centered_combination(seq, spec)

    conditions = {}
    if q % 2 == 0:
        half = sym_tensor.sym_contract(f, f, q // 2, max_order=max_order)
        conditions["a"] = sym_tensor.inner(half, f)
    for key, m in _buckets(q).items():
        conditions[key] = (float(np.sum(comb.kernel(m) ** 2))
                           if m in comb.orders() else 0.0)
    return conditions


def conditions_gamma_stat(conditions: dict, q: int) -> float:
    """(1/2) sum_m m! * bucket_m of :func:`q_chaos_conditions` at order q."""
    return 0.5 * sum(math.factorial(m) * conditions[key]
                     for key, m in _buckets(q).items())


@dataclass(frozen=True)
class PowerSumMatch:
    """Result of comparing two finite real multisets via sorting and power sums.

    ``equal`` ignores zero entries (a finite list stands for a summable
    sequence padded with zeros, and permutations of the padded sequences may
    absorb zeros).  ``permutation`` maps indices of the zero-padded first list
    onto the second: a_pad[i] matches b_pad[permutation[i]].
    """

    equal: bool
    permutation: tuple | None
    power_sums_a: tuple
    power_sums_b: tuple
    first_power_mismatch: int | None

    @property
    def power_sums_agree(self) -> bool:
        return self.first_power_mismatch is None


def power_sum_match(a, b, pmax: int, tol: float = 1e-10) -> PowerSumMatch:
    """Decide multiset equality and exhibit a permutation witness.

    Equality holds iff the sorted zero-stripped lists coincide within ``tol``
    per entry.  Power sums sum_k a_k^p for p = 1..pmax are reported for both
    lists as the forward check (equal multisets must share every power sum).
    """
    pmax = sym_tensor._integer(pmax, "pmax", 0)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    psums_a = tuple(float(np.sum(a ** p)) for p in range(1, pmax + 1))
    psums_b = tuple(float(np.sum(b ** p)) for p in range(1, pmax + 1))
    first_mismatch = None
    for p, (sa, sb) in enumerate(zip(psums_a, psums_b), start=1):
        if abs(sa - sb) > tol * (1.0 + abs(sa) + abs(sb)):
            first_mismatch = p
            break

    nz_a = np.sort(a[np.abs(a) > tol])
    nz_b = np.sort(b[np.abs(b) > tol])
    equal = len(nz_a) == len(nz_b) and bool(np.all(np.abs(nz_a - nz_b) <= tol))

    permutation = None
    if equal:
        n = max(len(a), len(b))
        a_pad = np.concatenate([a, np.zeros(n - len(a))])
        b_pad = np.concatenate([b, np.zeros(n - len(b))])
        ia = np.argsort(a_pad, kind="stable")
        ib = np.argsort(b_pad, kind="stable")
        perm = np.empty(n, dtype=int)
        perm[ia] = ib
        permutation = tuple(int(v) for v in perm)
    return PowerSumMatch(equal, permutation, psums_a, psums_b, first_mismatch)
