"""Correctness gates: each timed output against a path that does not share
the code it checks.

* Exact columns of order-2 kernels: both closed cumulant forms of
  ``spectral2.cumulant_spectral_forms`` and sum_j Q(eigenvalue_j) with the
  eigenvalues from ``numpy.linalg.eigvalsh``.
* Exact columns of q >= 3 kernels: cumulants and gamma_stat rebuilt from
  ``chaos.gamma_explicit``, the contraction multi-sum that
  ``gamma_sequence`` does not use.
* ``q_chaos_conditions``: per-order squared norms of that explicit gamma
  combination, and its documented identity
  gamma_stat = 1/2 sum_m m! bucket_m.
* Monte Carlo columns: the sample regenerated from its seed without
  ``chaos.evaluate`` (spectral form at q=2, Wick expansion at q >= 3),
  k-statistics from power sums, and the Kolmogorov distance against target
  CDFs that avoid the characteristic-function inverter.

A gate returns a list of :class:`Failure`; an empty list is a pass.  The
statistical agreement of empirical and exact cumulants is reported as
z-scores in ``notes`` but not gated: at q=6 the 10-way sub-batch standard
error understates the spread of a heavy-tailed sample (|z| reached 8.8 over
40 seeds), so a 4-SE gate would fail by chance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from chi2chaos import chaos, cli, montecarlo, spectral2

REL = 1e-9            # exact columns, relative
KSTAT_REL = 1e-8      # k-statistics, relative to k2^(r/2)
PATH_REL = 1e-9       # pathwise values, relative to the largest |value|
PATH_ROWS = 2000      # regenerated rows checked pathwise per item
# cdf_batch inverts the CDF on a quantile grid of the sample and interpolates
# linearly between nodes.  |KS - reference KS| may not exceed the largest
# error of that interpolation applied to the reference CDF itself, plus this
# allowance for the inverter's 1e-6 stopping rule.
KS_SLACK = 1e-5
GENERATOR_ID = "philox4x64-normals-v1"

Q_CHAOS_DEFECT = ("q_chaos_conditions drops the order-1 bucket of the gamma "
                  "combination at odd q: it builds buckets[1] but its key loop "
                  "starts at m=2")


@dataclass(frozen=True)
class Failure:
    gate: str
    detail: str
    known_defect: str | None = None


def _close(value, ref, scale, rel=REL) -> bool:
    return abs(value - ref) <= rel * scale


def _p_coeffs(alphas) -> np.ndarray:
    """Ascending coefficients of P(x) = x prod (x - alpha_i)."""
    return np.polynomial.polynomial.polyfromroots((0.0,) + tuple(alphas))


def _target_cumulant(alphas, r: int) -> float:
    return 2.0 ** (r - 1) * math.factorial(r - 1) * sum(a ** r for a in alphas)


def _sum_q(lam, alphas) -> float:
    """sum_j Q(lam_j) with Q = P^2."""
    return float(np.sum(np.polynomial.polynomial.polyval(lam, _p_coeffs(alphas)) ** 2))


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


# ---------------------------------------------------------------- exact ----

def order2_exact(f, alphas, gaps: dict, gamma_stat: float) -> list:
    """Order-2 kernel: cumulant gaps {r: gap} and gamma_stat vs closed forms."""
    out = []
    lam = np.linalg.eigvalsh(f.coeffs)
    for r, gap in gaps.items():
        kt = _target_cumulant(alphas, r)
        # kappa_r is a signed power sum: scale by the sum of absolute terms
        scale = _target_cumulant(np.abs(lam), r) + _target_cumulant(np.abs(alphas), r)
        for form, kn in zip(("eigen", "contraction"),
                            spectral2.cumulant_spectral_forms(f, r)):
            if not _close(gap, abs(kn - kt), scale):
                out.append(Failure("exact", f"kappa_gap_{r} = {gap!r}, "
                                   f"{form} form gives {abs(kn - kt)!r}"))
    ref = _sum_q(lam, alphas)
    if not _close(gamma_stat, ref, abs(ref)):
        out.append(Failure("exact", f"gamma_stat = {gamma_stat!r}, "
                           f"sum Q(eigenvalue) = {ref!r}"))
    return out


def explicit_combination(f, alphas, max_order: int):
    """Cumulants [kappa_2..kappa_{k+1}] and the centered gamma combination
    {order: kernel} built from gamma_explicit."""
    k = len(alphas)
    gammas = [chaos.ChaosExpansion.from_kernel(f)]
    gammas += [chaos.gamma_explicit(f, i, max_order=max_order)
               for i in range(1, k + 1)]
    kappas = [math.factorial(i) * gammas[i].mean for i in range(1, k + 1)]
    p = _p_coeffs(alphas)
    comb = {}
    for r in range(1, k + 2):
        g = gammas[r - 1]
        for m in g.orders():
            if m > 0:
                comb[m] = comb.get(m, 0.0) + p[r] / 2.0 ** (r - 1) * g.kernel(m)
    return kappas, comb


def half_contraction_inner(f) -> float:
    """<f (x)_{q/2} f, f> by plain tensordot (even q)."""
    q, h = f.order, f.order // 2
    axes = list(range(h, q))
    return float(np.tensordot(np.tensordot(f.coeffs, f.coeffs, axes=(axes, axes)),
                              f.coeffs, axes=q))


def exact_item(item, result) -> list:
    report, conditions = result
    f, spec = item.params["kernel"], item.params["spec"]
    gaps = {r: gap for (r, _, _, gap) in report.cumulant_gaps}
    if f.order == 2:
        return order2_exact(f, spec.alphas, gaps, report.gamma_stat)
    out = []
    kappas, comb = explicit_combination(f, spec.alphas, item.params["max_order"])
    for r, gap in gaps.items():
        kn, kt = kappas[r - 2], _target_cumulant(spec.alphas, r)
        if not _close(gap, abs(kn - kt), max(abs(kn), abs(kt))):
            out.append(Failure("exact", f"kappa_gap_{r} = {gap!r}, "
                               f"gamma_explicit gives {abs(kn - kt)!r}"))
    buckets = {m: float(np.sum(c ** 2)) for m, c in comb.items()}
    gamma_ref = 0.5 * sum(math.factorial(m) * b for m, b in buckets.items())
    if not _close(report.gamma_stat, gamma_ref, abs(gamma_ref)):
        out.append(Failure("exact", f"gamma_stat = {report.gamma_stat!r}, "
                           f"gamma_explicit gives {gamma_ref!r}"))
    if conditions is not None:
        out += q_chaos(f, conditions, buckets, report.gamma_stat)
    return out


def q_chaos(f, conditions: dict, buckets: dict, gamma_stat: float) -> list:
    """Each returned value against its bucket, then the docstring identity."""
    q = f.order
    out = []
    orders = {}
    for key, value in conditions.items():
        if key == "a":
            ref = half_contraction_inner(f)
        else:
            orders[key] = q if key == "b1" else int(key.split("_k")[1])
            ref = buckets.get(orders[key], 0.0)
        if not _close(value, ref, max(abs(value), abs(ref))):
            out.append(Failure("q_chaos", f"{key} = {value!r}, explicit "
                               f"combination gives {ref!r}"))
    returned = 0.5 * sum(math.factorial(m) * conditions[key]
                         for key, m in orders.items())
    if not _close(returned, gamma_stat, abs(gamma_stat)):
        missing = 0.5 * sum(math.factorial(m) * b for m, b in buckets.items()
                            if m not in orders.values())
        known = (q % 2 == 1 and set(buckets) - set(orders.values()) == {1}
                 and _close(returned + missing, gamma_stat, abs(gamma_stat)))
        out.append(Failure(
            "q_chaos identity",
            f"1/2 sum m! bucket_m over returned keys = {returned!r}, "
            f"gamma_stat = {gamma_stat!r}; orders without a key carry "
            f"{missing!r} ({100.0 * missing / gamma_stat:.1f}% of gamma_stat)",
            Q_CHAOS_DEFECT if known else None))
    return out


# ---------------------------------------------------------- Monte Carlo ----

def chi2_cdf(x):
    """P(N^2 - 1 <= x)."""
    return special.erf(np.sqrt(np.maximum(x + 1.0, 0.0) / 2.0))


_GL_T, _GL_W = np.polynomial.legendre.leggauss(96)


def chi2_12_cdf(x, chunk=8192):
    """P(N1^2 + 2 N2^2 <= x + 3) = int phi(z) erf(sqrt((x+3-2z^2)/2)) dz.

    With z = a sin(t), a = sqrt((x+3)/2), the integrand
    phi(a sin t) erf(a cos t) a cos t is smooth on [-pi/2, pi/2]."""
    x = np.asarray(x, dtype=float)
    t = 0.5 * math.pi * _GL_T
    w = 0.5 * math.pi * _GL_W
    out = np.empty_like(x)
    for i in range(0, len(x), chunk):
        a = np.sqrt(np.maximum(x[i:i + chunk] + 3.0, 0.0) / 2.0)[:, None]
        g = (np.exp(-0.5 * (a * np.sin(t)) ** 2) / math.sqrt(2 * math.pi)
             * special.erf(a * np.cos(t)) * a * np.cos(t))
        out[i:i + chunk] = g @ w
    return out


_S = np.arange(-30.0, 4.0 + 1e-9, 0.1)  # v = e^s; trapezoid rule in s


def product_normal_cdf(x, chunk=4096):
    """Law of 0.5 (N1^2 - N2^2) = U V: P(UV <= x) = 2 int_0^inf phi(v) Phi(x/v) dv."""
    x = np.asarray(x, dtype=float)
    v = np.exp(_S)
    w = 2.0 * 0.1 * v * np.exp(-0.5 * v * v) / math.sqrt(2 * math.pi)
    out = np.empty_like(x)
    for i in range(0, len(x), chunk):
        out[i:i + chunk] = special.ndtr(x[i:i + chunk, None] / v) @ w
    return out


REFERENCE_CDFS = {
    (1.0,): chi2_cdf,
    (1.0, 2.0): chi2_12_cdf,
    (0.5, -0.5): product_normal_cdf,
}


def kolmogorov(sorted_values, cdf_values) -> float:
    n = len(sorted_values)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf_values), np.max(cdf_values - (i - 1) / n)))


def interpolation_error(sorted_values, cdf_values) -> float:
    """Largest |linear interpolation - reference| over the sample, on the
    nodes cdf_batch documents: clip(n // 64, 256, 1600) sample quantiles."""
    n = len(sorted_values)
    nodes = int(np.clip(n // 64, 256, 1600))
    idx = np.unique(np.round(np.linspace(0, n - 1, nodes)).astype(int))
    lerp = np.interp(sorted_values, sorted_values[idx], cdf_values[idx])
    return float(np.max(np.abs(lerp - cdf_values)))


def kstats_power_sums(values):
    """[k2, k3, k4] by Fisher's power-sum formulas."""
    n = float(len(values))
    s1, s2, s3, s4 = (math.fsum(values ** r) for r in (1, 2, 3, 4))
    k2 = (n * s2 - s1 ** 2) / (n * (n - 1))
    k3 = (n * n * s3 - 3 * n * s2 * s1 + 2 * s1 ** 3) / (n * (n - 1) * (n - 2))
    k4 = ((n * n * (n + 1) * s4 - 4 * n * (n + 1) * s3 * s1
           - 3 * n * (n - 1) * s2 ** 2 + 12 * n * s2 * s1 ** 2 - 6 * s1 ** 4)
          / (n * (n - 1) * (n - 2) * (n - 3)))
    return [k2, k3, k4]


def kstats(values, emp: dict) -> list:
    """emp maps r -> program value of k_r."""
    ref = kstats_power_sums(values)
    scale = abs(ref[0])
    out = []
    for r, value in emp.items():
        if not _close(value, ref[r - 2], scale ** (r / 2), KSTAT_REL):
            out.append(Failure("k-statistics", f"k_{r} = {value!r}, power "
                               f"sums give {ref[r - 2]!r}"))
    return out


def _z(value, exact, se) -> float:
    return (value - exact) / se if se > 0 else math.inf


def order2_kstat_se(lam, n: int):
    """Exact standard errors of k2 and k3 from the eigenvalue cumulants."""
    kap = {r: _target_cumulant(lam, r) for r in (2, 3, 4, 6)}
    var2 = kap[4] / n + 2 * kap[2] ** 2 / (n - 1)
    var3 = (kap[6] / n + 9 * kap[2] * kap[4] / (n - 1) + 9 * kap[3] ** 2 / (n - 1)
            + 6 * n * kap[2] ** 3 / ((n - 1) * (n - 2)))
    return kap, math.sqrt(var2), math.sqrt(var3)


def scenario_item(item, csv_bytes: bytes, notes: list) -> list:
    scenario = item.params["scenario"]
    mc_seed, samples = item.params["mc_seed"], item.params["mc_samples"]
    alphas = scenario.target.alphas
    lines = csv_bytes.decode().splitlines()
    columns = lines[0].split(",")
    out = []
    zmax = ks_worst = 0.0
    for position, line in enumerate(lines[1:]):
        row = {c: (float(v) if v else None) for c, v in zip(columns, line.split(","))}
        f = cli.family_kernel(scenario.family, int(row["n"]))
        gaps = {int(c[len("kappa_gap_"):]): row[c]
                for c in columns if c.startswith("kappa_gap_")}
        found = order2_exact(f, alphas, gaps, row["gamma_stat"])
        lam, vecs = np.linalg.eigh(f.coeffs)
        if "cond_b1" in row:
            # at q=2 the combination is pure order 2: b1 = gamma_stat
            for key, ref, scale in (
                    ("cond_a", float(np.sum(lam ** 3)), float(np.sum(np.abs(lam) ** 3))),
                    ("cond_b1", _sum_q(lam, alphas), _sum_q(lam, alphas))):
                if not _close(row[key], ref, scale):
                    found.append(Failure("q_chaos", f"{key} = {row[key]!r}, "
                                         f"eigenvalues give {ref!r}"))
        if "ks" in row or "emp_kappa_2" in row:
            y = _rng(mc_seed + position).standard_normal((samples, f.dim)) @ vecs
            values = np.sort((y * y - 1.0) @ lam)
        if "ks" in row:
            cdf = REFERENCE_CDFS[alphas](values)
            ref = kolmogorov(values, cdf)
            tol = interpolation_error(values, cdf) + KS_SLACK
            ks_worst = max(ks_worst, abs(row["ks"] - ref) / tol)
            if abs(row["ks"] - ref) > tol:
                found.append(Failure("ks", f"ks = {row['ks']!r}, reference "
                                     f"{ref!r}, tolerance {tol:.2e}"))
        if "emp_kappa_2" in row:
            found += kstats(values, {r: row[f"emp_kappa_{r}"] for r in (2, 3, 4)})
            kap, se2, se3 = order2_kstat_se(lam, samples)
            zmax = max(zmax, abs(_z(row["emp_kappa_2"], kap[2], se2)),
                       abs(_z(row["emp_kappa_3"], kap[3], se3)))
        out += [Failure(x.gate, f"n={int(row['n'])}: {x.detail}", x.known_defect)
                for x in found]
    if "ks" in columns:
        notes.append(f"{item.name}: max |ks - reference| / tolerance = {ks_worst:.3f}")
    if "emp_kappa_2" in columns:
        notes.append(f"{item.name}: max |z| of emp_kappa_2,3 = {zmax:.2f} (not gated)")
    return out


def wick_eval(f, x):
    """I_q(f) at rows x: sum_j (-1)^j q!/(2^j j! (q-2j)!) <tr^j f, x^(q-2j)>."""
    q = f.order
    rows = x.shape[0]
    total = np.zeros(rows)
    t = f.coeffs
    for j in range(q // 2 + 1):
        m = q - 2 * j
        c = (-1) ** j * math.factorial(q) / (2 ** j * math.factorial(j)
                                             * math.factorial(m))
        v = np.broadcast_to(t, (rows,) + t.shape)
        for _ in range(m):
            v = np.einsum("ri,ri...->r...", x, v)
        total += c * v
        if m >= 2:
            t = np.trace(t, axis1=0, axis2=1)
    return total


def kappa3_closed_form(f) -> float:
    """kappa_3(I_q f) = q! (q/2)! C(q, q/2)^2 <f (x)_{q/2} f, f>; 0 at odd q.

    This is the order-0 branch of gamma_explicit(f, 2), which at (4,8) trips
    the d^q guard and at (6,3) needs order-14 tensors."""
    q = f.order
    if q % 2:
        return 0.0
    h = q // 2
    return (math.factorial(q) * math.factorial(h) * math.comb(q, h) ** 2
            * half_contraction_inner(f))


def highorder_item(item, result, notes: list) -> list:
    values, emp, errors = result
    f, mc_seed = item.params["kernel"], item.params["mc_seed"]
    out = []
    x = _rng(mc_seed).standard_normal((PATH_ROWS, f.dim))
    ref = wick_eval(f, x)
    scale = float(np.max(np.abs(ref)))
    worst = float(np.max(np.abs(values[:PATH_ROWS] - ref)))
    if worst > PATH_REL * scale:
        out.append(Failure("sample", f"pathwise values differ from the Wick "
                           f"expansion by {worst:.3e} (max |value| {scale:.3e})"))
    ref_k = kstats_power_sums(values)
    ref_mean = math.fsum(values) / len(values)
    if not _close(emp[0], ref_mean, math.sqrt(abs(ref_k[0])), KSTAT_REL):
        out.append(Failure("k-statistics", f"k_1 = {emp[0]!r}, mean {ref_mean!r}"))
    out += kstats(values, {r: emp[r - 1] for r in (2, 3, 4)})
    chunks = [kstats_power_sums(c) for c in np.array_split(values, 10)]
    ref_se = np.std(np.array(chunks), axis=0, ddof=1) / math.sqrt(10)
    for r in (2, 3, 4):
        if not _close(errors[r - 1], ref_se[r - 2], abs(ref_se[r - 2]), 1e-6):
            out.append(Failure("k-statistic errors", f"se(k_{r}) = "
                               f"{errors[r - 1]!r}, sub-batches give "
                               f"{ref_se[r - 2]!r}"))
    kappa2 = math.factorial(f.order) * float(np.sum(f.coeffs ** 2))
    z2 = _z(emp[1], kappa2, errors[1])
    z3 = _z(emp[2], kappa3_closed_form(f), errors[2])
    notes.append(f"{item.name}: z(k2) = {z2:+.2f}, z(k3) = {z3:+.2f} (not gated)")
    return out


def check(workload: str, item, output, notes: list) -> list:
    if workload == "exact-grid":
        return exact_item(item, output)
    if montecarlo.GENERATOR_ID != GENERATOR_ID:
        return [Failure("sample", f"generator {montecarlo.GENERATOR_ID!r} is "
                        f"not the {GENERATOR_ID!r} the gates regenerate")]
    if workload == "scenarios-mc":
        return scenario_item(item, output, notes)
    return highorder_item(item, output, notes)
