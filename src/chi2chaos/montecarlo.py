"""Sampling, empirical cumulants, and the target CDF by CF inversion.

Everything random is driven by a counter-based Philox generator keyed on the
caller's seed, so batches are reproducible bit for bit.  The exact engine in
the other modules never consumes randomness; this module exists to validate
it and to measure empirical distances.

Total variation against an empirical measure is degenerate (always 1 for a
continuous law), so the distance computed here is the Kolmogorov statistic,
which the continuity of the limit laws makes a sound observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import chaos, sym_tensor
from .chaos import ChaosExpansion
from .errors import NumericalError
from .spectral2 import TargetSpec

GENERATOR_ID = "philox4x64-normals-v1"

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# Most quadrature points the CDF inverter holds in one flat array.
_BLOCK_POINTS = 1 << 15
# Most subpanels one quadrature panel of one point may need: a phase change
# of up to 2e5 pi rad, at one subpanel per 2 pi.
_MAX_SUBPANELS = 100_000
# A CDF point stops at the first doubling of its integration range where a
# bound on what the estimate leaves out, over pi, is below _TOL; it raises
# NumericalError if no doubling up to _MAX_DOUBLINGS gives one.
_TOL = 1e-6
_MAX_DOUBLINGS = 64
# The bounds a point can stop on, as TargetLaw._tails numbers them: the
# envelope before the tail terms, then three integration-by-parts terms.
_STOP_RULES = ("envelope", "three_terms")


# the first four normals of _rng(0) as NumPy 2.4.6 draws them, in float hex:
# every Monte Carlo column rests on this stream, and NumPy does not promise
# it across releases
STREAM_FINGERPRINT = ("0x1.463cb3872ecbdp-3", "-0x1.c6313809c831cp+0",
                      "0x1.5396485e717b0p+0", "0x1.346e5e799d961p+0")


def _rng(seed: int, n: int = 1) -> np.random.Generator:
    """The Philox generator keyed on ``seed``, for ``n`` draws: the one rule
    for both is that a seed is an integer in [0, 2^64) and n an integer
    >= 1, and anything else raises ValueError."""
    sym_tensor._integer(n, "n", 1)
    seed = sym_tensor._integer(seed, "seed", 0, 2 ** 64)
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def stream_fingerprint_matches() -> bool:
    """Whether NumPy still draws the stream ``STREAM_FINGERPRINT`` pins."""
    return (_rng(0).standard_normal(4).tolist()
            == [float.fromhex(h) for h in STREAM_FINGERPRINT])


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible sample: (seed, generator_id, n) determines the values.

    ``values`` is 1-D and read-only, held by the ownership rule of
    ``sym_tensor._held`` (README, "guard rails").
    """

    values: np.ndarray
    seed: int
    generator_id = GENERATOR_ID  # unannotated: a class constant, not a field

    def __post_init__(self):
        object.__setattr__(self, "values", _values(sym_tensor._held(self.values)))

    @property
    def n(self) -> int:
        return len(self.values)


def sample_target(spec: TargetSpec, n: int, seed: int) -> SampleBatch:
    """n i.i.d. draws of sum_i alpha_i (N_i^2 - 1)."""
    z = _rng(seed, n).standard_normal((n, spec.k))
    values = np.einsum("nk,k->n", z * z - 1.0, np.asarray(spec.alphas))
    return SampleBatch(sym_tensor._sealed(values), seed)


def sample_chaos(F: ChaosExpansion, n: int, seed: int) -> SampleBatch:
    """n pathwise evaluations of F at i.i.d. standard normal inputs.

    The inputs are drawn block by block into the buffers of
    ``chaos._walk``, the block walk of ``evaluate``: ``chaos._block_rows(d)``
    rows a block, at most 2^18 normals (2 MB) at any d, and half that when
    F has a term of order >= 3, whose blocks also hold a Hermite table.  So
    memory is the n values plus a few blocks, however large n * d is.  At
    order >= 3 the next block is drawn and tabulated on a helper thread
    while the caller sums the terms of the one before; the draws still come
    from one Philox stream in block order, which only that thread touches.
    The Philox draws of consecutive blocks are bitwise the rows of one
    (n, d) draw, and ``evaluate`` takes every row on its own, so the values
    are bitwise those of ``evaluate`` on that whole draw, and a sample of n
    rows is bitwise the first n values of a longer one with the same seed.
    """
    rng = _rng(seed, n)
    values = chaos._walk(F, n, lambda lo, block: rng.standard_normal(out=block))
    return SampleBatch(sym_tensor._sealed(values), seed)


def _values(batch) -> np.ndarray:
    """The sample values of a ``SampleBatch`` or of an array-like, if 1-D:
    the one sample rule, which ``SampleBatch`` applies when it is built."""
    values = (batch.values if isinstance(batch, SampleBatch)
              else np.asarray(batch, float))
    if values.ndim != 1:
        raise ValueError(f"a sample must be 1-D, got shape {values.shape}")
    return values


def k_statistics(batch, rmax: int = 4):
    """Cumulant estimates [k_1 .. k_rmax], rmax <= 4: the unbiased
    k-statistics."""
    values = _values(batch)
    n = len(values)
    rmax = sym_tensor._integer(rmax, "rmax", 1, 5)
    if n <= rmax:
        raise ValueError(f"need more than rmax={rmax} samples, got {n}")
    mean = float(np.mean(values))
    d = values - mean
    # central moments m_2 .. m_rmax only: k_r needs none of higher order.
    # A running product, since d ** r calls pow for r >= 3 and is ~10x slower.
    # Taken in place after d * d, so two n-arrays are live, not three.
    m = {}
    for r in range(2, rmax + 1):
        p = d * d if r == 2 else np.multiply(p, d, out=p)
        m[r] = float(np.mean(p))
    out = [mean]
    if rmax >= 2:
        out.append(n / (n - 1) * m[2])
    if rmax >= 3:
        out.append(n ** 2 / ((n - 1) * (n - 2)) * m[3])
    if rmax >= 4:
        out.append(n ** 2 * ((n + 1) * m[4] - 3 * (n - 1) * m[2] ** 2)
                   / ((n - 1) * (n - 2) * (n - 3)))
    return out


def k_statistic_errors(batch, rmax: int = 4):
    """Standard errors of :func:`k_statistics` from 10 contiguous sub-batches,
    or None for each below 10 (rmax + 1) values, where some sub-batch would
    hold rmax values or fewer."""
    values = _values(batch)
    rmax = sym_tensor._integer(rmax, "rmax", 1, 5)
    if len(values) < 10 * (rmax + 1):
        return [None] * rmax
    chunks = np.array_split(values, 10)
    stats = np.array([k_statistics(c, rmax) for c in chunks])
    return list(np.std(stats, axis=0, ddof=1) / math.sqrt(len(chunks)))


def target_cf(spec: TargetSpec, t):
    """Characteristic function of the target: prod (1-2i a t)^{-1/2} e^{-i a t}."""
    t = np.asarray(t, dtype=float)
    alphas = np.asarray(spec.alphas)
    z = np.ones(t.shape, dtype=complex)
    for a in alphas:
        z = z / np.sqrt(1.0 - 2j * a * t)
    return z * np.exp(-1j * t * float(np.sum(alphas)))


class TargetLaw:
    """The target law's CDF, by quadrature of Im[e^{-itx} cf(t)] / t over
    t in (0, T] plus a tail estimate, for many points x at once.

    The integrand is rho(t) sin(theta(t)) / t with
    rho(t) = prod (1 + 4 a^2 t^2)^{-1/4} and
    theta(t) = (1/2) sum arctan(2 a t) - t (x + sum a).
    A point x has the rungs T0 2^m, m = 1 .. ``_MAX_DOUBLINGS``, with
    T0 = 0.25 / max(|x + sum a|, 2 max |a|), and stops at the first rung
    whose remainder bound, over pi, is below ``_TOL``; if none is, it raises
    ``NumericalError``.  The bound bounds what the estimate at T leaves out
    of the integral over (T, inf) (see :meth:`_tails`):

    * while the phase does not yet dominate (|theta'(T)| T < 20), the
      estimate stops at T, and since rho(t) <= prod (2 |a| t)^{-1/2} the
      rest is at most prod (2 |a|)^{-1/2} T^{-k/2} / (k/2);
    * after that three integration-by-parts tail terms are added, and the
      rest is at most the last one's coefficient |u(T)|, u = h'/theta' and
      h = (rho/(t theta'))'/theta', where u is shown monotone on [T, inf)
      from the rational forms of theta' and rho'/rho; a rung where it is
      not shown does not count.  For k <= 2 weights it always is.

    The stop rung depends on (x, T) alone, so it is found before any
    quadrature: from a closed-form rung below which none can stop, rung by
    rung for the points not yet resolved.  Each point's panels [0, T0],
    [T0, 2 T0], ..., [T0 2^{m-1}, T0 2^m] are then integrated in one pass.
    A panel gets ceil(dtheta / (2 pi)) 16-node Gauss-Legendre subpanels,
    one per 2 pi of phase change, except that a panel whose phase changes
    by at most 4 pi is one subpanel.  On 2 pi of phase the
    Bernstein-ellipse bound on the 16-node error is below 1e-18 of the
    envelope rho(t)/t times the subpanel's length, and on 4 pi about
    1e-16; on 80 000 panels of 2 pi to 4 pi, one subpanel and two are
    within 9e-16 and 8e-16 of that scale of a 16-subpanel reference.  So
    rounding, not the rule, sets the quadrature error, and the remainder
    bound sets the accuracy.

    Points are taken in chunks of ``_BLOCK_POINTS`` // (``_MAX_DOUBLINGS``
    + 1) = 504, so a chunk's flat panel list is never longer than one
    block's quadrature points, and its phase changes are taken in one
    pass.  The list is cut between panels into blocks of at most
    ``_BLOCK_POINTS`` quadrature points (a panel that alone needs more is
    a block of its own), so memory does not grow with the number of
    points.  Each point's
    panel integrals are summed in rung order with ``np.bincount``, and the
    tail terms at its last rung are added.  Each value depends on its own
    x alone, not on which other points share the call.

    A block's arrays are allocated for that block alone.  The law keeps
    only its work counts for :meth:`take_diagnostics`, so a law is not
    safe to share between threads.
    """

    def __init__(self, spec: TargetSpec):
        self.spec = spec
        self.alphas = np.asarray(spec.alphas)
        self.asum = float(np.sum(self.alphas))
        self.lower_edge = -self.asum if np.all(self.alphas > 0) else None
        self.upper_edge = -self.asum if np.all(self.alphas < 0) else None
        # prod (2 |a|)^{-1/2} / (k/2): the envelope bound is this times T^{-k/2}
        self._envelope = float(np.prod(2.0 * np.abs(self.alphas)) ** -0.5
                               / (0.5 * len(self.alphas)))
        self._diagnostics = None
        self.take_diagnostics()

    def take_diagnostics(self) -> dict:
        """The inverter's work since the law was made or this was last
        called, and start counting afresh: points inverted, quadrature
        points evaluated, the most doublings a point used (guard
        ``_MAX_DOUBLINGS``), the most subpanels one panel needed (guard
        ``_MAX_SUBPANELS``), the largest remainder bound over pi at a
        point's stop (below ``_TOL``) and how many points stopped on each
        bound of ``_STOP_RULES``.  All are exact for given inputs."""
        taken, self._diagnostics = self._diagnostics, {
            "points": 0, "quadrature_points": 0, "max_doublings": 0,
            "max_subpanels": 0, "max_bound": 0.0,
            "stopped_on": dict.fromkeys(_STOP_RULES, 0)}
        return taken

    def _rho(self, t):
        """rho(t), computed in place in one (k, len(t)) array."""
        work = self.alphas[:, None] * t
        np.square(work, out=work)
        np.multiply(4.0, work, out=work)
        np.log1p(work, out=work)
        out = np.sum(work, axis=0)
        np.multiply(-0.25, out, out=out)
        return np.exp(out, out=out)

    def _theta(self, t, x):
        """theta(t) at the points x (one per t), computed as :meth:`_rho`."""
        work = 2.0 * self.alphas[:, None] * t
        np.arctan(work, out=work)
        out = np.sum(work, axis=0)
        np.multiply(0.5, out, out=out)
        shift = work[0]  # free once summed
        np.add(x, self.asum, out=shift)
        np.multiply(t, shift, out=shift)
        return np.subtract(out, shift, out=out)

    def _panels(self, a, b, x):
        """Integral over [a[i], b[i]] for the point x[i], for every i.

        The phase change over each panel, which sets its subpanel count, is
        taken over all the panels at once: ``_invert`` passes at most
        ``_BLOCK_POINTS`` of them, so its (k, panels) work arrays are no
        larger than a block's."""
        dtheta = np.abs(self._theta(b, x) - self._theta(a, x))
        nsub = np.where(dtheta <= 4.0 * math.pi, 1,
                        np.ceil(dtheta / (2.0 * math.pi))).astype(np.int64)
        over = np.flatnonzero(nsub > _MAX_SUBPANELS)
        if over.size:
            i = over[0]
            raise NumericalError(
                f"CDF quadrature panel [{a[i]:g}, {b[i]:g}] at x={x[i]:g} would "
                f"need {nsub[i]} subpanels"
            )
        diagnostics = self._diagnostics
        diagnostics["quadrature_points"] += int(np.sum(nsub)) * len(_GL_NODES)
        diagnostics["max_subpanels"] = max(diagnostics["max_subpanels"],
                                           int(np.max(nsub, initial=0)))
        out = np.empty(len(x))
        ends = np.cumsum(nsub) * len(_GL_NODES)
        lo = 0
        while lo < len(x):
            start = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, start + _BLOCK_POINTS,
                                                 side="right")))
            out[lo:hi] = self._block(a[lo:hi], b[lo:hi], x[lo:hi], nsub[lo:hi])
            lo = hi
        return out

    def _block(self, a, b, x, nsub):
        """Panel integrals of a block: nsub[i] equal subpanels on [a[i], b[i]]
        (edges as ``np.linspace`` places them), 16 Gauss-Legendre points each."""
        owner = np.repeat(np.arange(len(x)), nsub)
        j = np.arange(len(owner)) - np.repeat(np.cumsum(nsub) - nsub, nsub)
        step = ((b - a) / nsub)[owner]
        left = j * step + a[owner]
        right = np.where(j + 1 == nsub[owner], b[owner], (j + 1) * step + a[owner])
        mid = 0.5 * (right + left)
        half = 0.5 * (right - left)
        ts = half[:, None] * _GL_NODES
        np.add(mid[:, None], ts, out=ts)
        ts = ts.ravel()
        ws = (half[:, None] * _GL_WEIGHTS).ravel()
        point_owner = np.repeat(owner, len(_GL_NODES))
        theta = self._theta(ts, x[point_owner])
        vals = self._rho(ts)
        np.multiply(vals, np.sin(theta, out=theta), out=vals)
        np.divide(vals, ts, out=vals)
        np.multiply(ws, vals, out=vals)
        return np.bincount(point_owner, weights=vals, minlength=len(x))

    def _tails(self, T, x):
        """The integration-by-parts tail terms beyond T[i] for the point x[i],
        a bound on what the estimate with them leaves out of the integral
        over (T[i], inf), and the rule that gave the bound, an index into
        ``_STOP_RULES``.

        While the oscillation does not yet dominate the envelope decay
        (|theta'(T)| T < 20) there are no terms and the bound is the envelope
        bound.  After that let env = rho/t, h = (env/theta')'/theta' and
        u = h'/theta'.  Three integrations by parts give the terms
        (env/theta') cos theta - h sin theta - u cos theta at T, and leave
        out -int_T^inf u' cos theta dt, at most |u(T)| where u is monotone
        on [T, inf), since u -> 0.

        With q_i = 1/(1 + 4 a_i^2 t^2), p_i = 1 - q_i, S = sum |a_i| q_i and
        lam = 1 + sum p_i / 2: t env'/env = -lam, t lam' = sum q_i p_i,
        t^2 lam'' = -sum q_i p_i (3 - 4 q_i), and
        t^j theta^(j+1) = sum a_i q_i P_j(q_i) with P_1 = -2 p,
        P_2 = 2 p (3 - 4 q) and P_3 = 24 p^2 (2 q - 1), so
        w_j = t^j theta^(j+1) / theta' has |w_j| <= c_j e with
        c = (2, 6, 24) and e = S/|theta'|.  Then
        t theta'^2 h/env = -(lam + w_1),
        t^2 theta'^2 h'/env = lam^2 + lam - t lam' + 3 lam w_1 + 3 w_1^2 - w_2,
        t^3 theta'^3 u'/env = L + 6 w_1 (t lam' - lam (lam + 1)) - 15 lam w_1^2
        + 4 lam w_2 - 15 w_1^3 + 10 w_1 w_2 - w_3, and
        L = -lam (lam + 1) (lam + 2) + (3 lam + 2) t lam' - t^2 lam''.

        q p <= p and q p (3 - 4 q) <= 9 p / 16 give
        -L >= lam (lam + 1) (lam + 2) - (3 lam + 2) P - 9 P / 16 with
        P = sum p = 2 (lam - 1), which is at least 0.56 (lam + 1) (lam + 2)
        for lam >= 1 (its least ratio is 0.5638, at lam = 2.196).  The other
        terms are at most (lam + 1) (lam + 2) (12 e + 30 e^2 + 20 e^3), below
        0.53 (lam + 1) (lam + 2) for e <= 1/25.  S falls with t and
        |theta'| >= |x + sum a| - S, so 26 S(T) < |x + sum a|, which keeps
        e <= 1/25 on [T, inf), makes u' of one sign there.

        A rung where u is shown monotone uses the three terms and |u(T)|;
        one where it is not has the bound inf and does not count.  With the
        tail terms on, S T <= k/4 and |x + sum a| T >= 20 - k/4, so u is
        always shown monotone for k <= 2 weights."""
        a = self.alphas[:, None]
        a2t2 = 4.0 * (a * T) ** 2
        q = 1.0 / (1.0 + a2t2)
        shift = x + self.asum
        dtheta = np.sum(a * q, axis=0) - shift
        out = np.zeros(len(T))
        bound = self._envelope * T ** (-0.5 * len(self.alphas))
        rule = np.zeros(len(T), dtype=np.intp)
        use = np.abs(dtheta) * T >= 20.0
        if not use.any():
            return out, bound, rule
        T, x, shift, dtheta = T[use], x[use], shift[use], dtheta[use]
        q, p = q[:, use], a2t2[:, use] * q[:, use]
        aq = a * q
        lam = 1.0 + 0.5 * np.sum(p, axis=0)
        w1 = -2.0 * np.sum(aq * p, axis=0) / dtheta
        w2 = 2.0 * np.sum(aq * p * (3.0 - 4.0 * q), axis=0) / dtheta
        env = self._rho(T) / T
        theta = self._theta(T, x)
        cos, sin = np.cos(theta), np.sin(theta)
        h = -env * (lam + w1) / (T * dtheta ** 2)
        u = env * (lam ** 2 + lam - np.sum(q * p, axis=0) + 3.0 * lam * w1
                   + 3.0 * w1 ** 2 - w2) / (T ** 2 * dtheta ** 3)
        monotone = 26.0 * np.sum(np.abs(aq), axis=0) < np.abs(shift)
        out[use] = env * cos / dtheta - h * sin - u * cos
        bound[use] = np.where(monotone, np.abs(u), np.inf)
        rule[use] = 1
        return out, bound, rule

    def cdf(self, x):
        """P(target <= x): a float for scalar x, an array of x's shape otherwise."""
        return self._pointwise(x, self._invert)

    @staticmethod
    def _pointwise(x, values):
        """The input rule of :meth:`cdf` and :meth:`cdf_batch`: ``values``
        at the points of x, passed as one flat float array and returned in
        x's shape (a float for scalar x; an empty array for empty x, which
        ``values`` never sees)."""
        xs = np.asarray(x, dtype=float)
        if not xs.size:
            return np.empty(xs.shape)
        out = values(xs.ravel())
        return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)

    def _invert(self, x):
        """CDF values at the points x: 0 at or below a lower support edge, 1
        at or above an upper one, and the points in between inverted in
        chunks of ``_BLOCK_POINTS`` // (``_MAX_DOUBLINGS`` + 1) points, so
        the values are the only array as long as x.  A point stopping at
        rung m has the panels [0, T0] and [T0 2^{j-1}, T0 2^j], j = 1 .. m,
        so a chunk's panel list, laid out point by point and summed in that
        order, is never longer than ``_BLOCK_POINTS``.  A NaN, or an
        infinity off the edges, raises ``ValueError`` before any point is
        inverted."""
        low = -np.inf if self.lower_edge is None else self.lower_edge
        high = np.inf if self.upper_edge is None else self.upper_edge
        # clipped to the edges, every point is finite iff both ends are (a
        # NaN makes both NaN), so the check copies nothing as long as x
        if len(x) and not np.isfinite(np.clip([np.min(x), np.max(x)],
                                              low, high)).all():
            bad = x[~np.isfinite(np.clip(x, low, high))]
            raise ValueError(f"CDF argument must be finite, got {bad[0]}")
        out = np.empty(len(x))
        most = _BLOCK_POINTS // (_MAX_DOUBLINGS + 1)
        diagnostics = self._diagnostics
        for lo in range(0, len(x), most):
            chunk, values = x[lo:lo + most], out[lo:lo + most]
            inside = (low < chunk) & (chunk < high)
            values[...] = chunk >= high  # 0 at a lower edge, 1 at an upper
            chunk = chunk[inside]
            if not len(chunk):
                continue
            freq = np.maximum(np.abs(chunk + self.asum),
                              2.0 * float(np.max(np.abs(self.alphas))))
            T0 = 0.25 / freq
            rung, tail, bound, rule = self._stops(T0, chunk)
            diagnostics["points"] += len(chunk)
            for name, count in zip(_STOP_RULES, np.bincount(
                    rule, minlength=len(_STOP_RULES))):
                diagnostics["stopped_on"][name] += int(count)
            diagnostics["max_doublings"] = max(diagnostics["max_doublings"],
                                               int(np.max(rung)))
            diagnostics["max_bound"] = max(diagnostics["max_bound"],
                                           float(np.max(bound)))
            count = rung + 1
            first = np.cumsum(count) - count  # each point's panel [0, T0]
            owner = np.repeat(np.arange(len(chunk)), count)
            b = np.ldexp(T0[owner], np.arange(len(owner)) - np.repeat(first, count))
            a = 0.5 * b
            a[first] = 0.0
            integral = np.bincount(owner, weights=self._panels(a, b, chunk[owner]),
                                   minlength=len(chunk))
            est = 0.5 - (integral + tail) / math.pi
            values[inside] = np.clip(est, 0.0, 1.0)
        return out

    def _stops(self, T0, x):
        """Each point's stop rung m, the first in 1 .. ``_MAX_DOUBLINGS``
        where its remainder bound at T0 2^m, over pi, is below ``_TOL``;
        the tail terms there; that bound over pi; and the rule that gave it.

        No rung below T = min(T_env, (20 - k/4) / |x + sum a|) can stop:
        the envelope bound over pi is below ``_TOL`` only for T > T_env, and
        the tail terms need |theta'(T)| T >= 20, where
        |theta'(T) + x + sum a| T <= k/4.  So a point starts at the last
        rung at or below that T, and then moves up one rung at a time until
        it stops."""
        k = len(self.alphas)
        t_env = (self._envelope / (math.pi * _TOL)) ** (2.0 / k)
        with np.errstate(divide="ignore", invalid="ignore"):
            first = np.minimum(t_env, max(0.0, 20.0 - 0.25 * k)
                               / np.abs(x + self.asum))
            start = np.floor(np.log2(first / T0))
        # fmax: a NaN start (0 / 0, from k >= 80 at x = -sum a) becomes 1
        rung = np.minimum(np.fmax(start, 1), _MAX_DOUBLINGS).astype(np.int64)
        tail, bound = np.empty(len(x)), np.empty(len(x))
        rule = np.empty(len(x), dtype=np.intp)
        pos = np.arange(len(x))  # the points not yet resolved
        while pos.size:
            t, b, r = self._tails(np.ldexp(T0[pos], rung[pos]), x[pos])
            b /= math.pi
            done = b < _TOL
            tail[pos[done]], bound[pos[done]], rule[pos[done]] = (
                t[done], b[done], r[done])
            pos, b = pos[~done], b[~done]
            rung[pos] += 1
            over = np.flatnonzero(rung[pos] > _MAX_DOUBLINGS)
            if over.size:
                i = pos[over[0]]
                raise NumericalError(
                    f"CDF inversion at x={x[i]:g} found no remainder bound "
                    f"below {_TOL:g} within {_MAX_DOUBLINGS} doublings: at "
                    f"T={np.ldexp(T0[i], _MAX_DOUBLINGS):g} the bound is "
                    f"{float(b[over[0]]):g} ({len(pos)} of {len(x)} points "
                    f"unresolved)"
                )
        return rung, tail, bound, rule

    def cdf_batch(self, xs):
        """CDF at one or more points, taken as :meth:`cdf` takes them: exact
        inversion on a quantile grid of the n inputs, with
        clip(n // 64, 256, 1600) nodes, and linear interpolation in between
        (up to 256 inputs, all nodes, so bitwise :meth:`cdf`).  The error at
        a point is at most the CDF increment between adjacent nodes, about
        one over their number when they are sample quantiles, plus the
        nodes' own remainder bounds.
        """
        return self._pointwise(xs, self._interpolated)

    def _interpolated(self, xs):
        """:meth:`cdf_batch` at the flat nonempty float array xs, by one
        :meth:`cdf` call on its quantile grid."""
        nodes = int(np.clip(len(xs) // 64, 256, 1600))
        # kolmogorov_distance passes a sorted sample: then it is its own
        # quantile order, and no second copy is sorted
        order = xs if np.all(xs[:-1] <= xs[1:]) else np.sort(xs)
        idx = np.unique(np.round(np.linspace(0, len(xs) - 1, nodes)).astype(int))
        grid = np.unique(order[idx])
        return np.interp(xs, grid, self.cdf(grid))


def kolmogorov_distance(batch, cdf) -> float:
    """One-sample Kolmogorov statistic: sup over the sample of |ECDF - cdf|.

    ``cdf`` is called once with a sorted copy of the sample and must return
    an array of the same shape.  Once it has returned, that copy is work
    space for both one-sided maxima (a new array only when the returned
    array shares its memory), so no other sample-length array is made."""
    v = np.sort(_values(batch))
    n = len(v)
    if n < 1:
        raise ValueError("need at least one sample")
    F = np.asarray(cdf(v), dtype=float)
    if F.shape != v.shape:
        raise ValueError(f"cdf returned shape {F.shape} for sample points of "
                         f"shape {v.shape}")
    # a running sum of ones from 0 or from 1 gives i - 1 or i exactly below
    # 2^53, so this is bitwise
    # max(np.max(i / n - F), np.max(F - (i - 1) / n)) for i = 1 .. n
    work = np.empty(n) if np.may_share_memory(F, v) else v
    work.fill(1.0)
    work[0] = 0.0
    np.cumsum(work, out=work)
    lower = np.max(np.subtract(F, np.divide(work, n, out=work), out=work))
    work.fill(1.0)
    np.cumsum(work, out=work)
    upper = np.max(np.subtract(np.divide(work, n, out=work), F, out=work))
    return float(max(upper, lower))
