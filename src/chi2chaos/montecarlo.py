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
_BLOCK_POINTS = 1 << 16
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


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible sample: (seed, generator_id, n) determines the values.

    ``values`` is held read-only.  An array passed in that already is a
    read-only float64 array owning its data (the samplers below pass one) is
    kept as it is; anything else is copied, so later writes to the caller's
    array never reach the batch.
    """

    values: np.ndarray
    seed: int
    generator_id: str = GENERATOR_ID

    def __post_init__(self):
        object.__setattr__(self, "values", sym_tensor._held(self.values))

    @property
    def n(self) -> int:
        return len(self.values)


def sample_target(spec: TargetSpec, n: int, seed: int) -> SampleBatch:
    """n i.i.d. draws of sum_i alpha_i (N_i^2 - 1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    z = _rng(seed).standard_normal((n, spec.k))
    values = (z ** 2 - 1.0) @ np.asarray(spec.alphas)
    values.flags.writeable = False
    return SampleBatch(values, seed)


def sample_chaos(F: ChaosExpansion, n: int, seed: int) -> SampleBatch:
    """n pathwise evaluations of F at i.i.d. standard normal inputs.

    The inputs are drawn and evaluated in the blocks ``evaluate`` walks,
    ``chaos._block_rows(d)`` rows of at most 2^18 normals (2 MB) at any d,
    so memory is the n values plus a few blocks, however large n * d is.
    The Philox draws of consecutive blocks are bitwise the rows of one
    (n, d) draw, so the values are bitwise those of ``evaluate`` on that
    whole draw.  A sample of n rows is also bitwise the first n values of
    a longer one with the same seed, except where F has an off-diagonal
    order-2 part: there the last block's row count can move its rows'
    last bits.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = _rng(seed)
    values_of = chaos._evaluator(F)
    values = np.empty(n)
    rows = chaos._block_rows(F.dim)
    # one buffer for every block's draw: with a fresh array per block the
    # allocator returns the freed memory and faults it in again each block
    x = np.empty((min(n, rows), F.dim))
    for lo in range(0, n, rows):
        xs = x[:min(rows, n - lo)]
        rng.standard_normal(out=xs)
        values[lo:lo + len(xs)] = values_of(xs)
    values.flags.writeable = False
    return SampleBatch(values, seed)


def _values(batch) -> np.ndarray:
    """The sample values of a ``SampleBatch`` or of an array-like."""
    return batch.values if isinstance(batch, SampleBatch) else np.asarray(batch, float)


def k_statistics(batch, rmax: int = 6):
    """Cumulant estimates [k_1 .. k_rmax]: unbiased k-statistics for r <= 4,
    central-moment plug-in (bias O(1/n)) for r in {5, 6}."""
    values = _values(batch)
    n = len(values)
    if not 1 <= rmax <= 6:
        raise ValueError(f"rmax must be in 1..6, got {rmax}")
    if n <= rmax:
        raise ValueError(f"need more than rmax={rmax} samples, got {n}")
    mean = float(np.mean(values))
    d = values - mean
    # central moments m_2 .. m_rmax only: k_r needs none of higher order.
    # A running product, since d ** r calls pow for r >= 3 and is ~10x slower.
    m = {}
    p = d
    for r in range(2, rmax + 1):
        p = p * d
        m[r] = float(np.mean(p))
    out = [mean]
    if rmax >= 2:
        out.append(n / (n - 1) * m[2])
    if rmax >= 3:
        out.append(n ** 2 / ((n - 1) * (n - 2)) * m[3])
    if rmax >= 4:
        out.append(n ** 2 * ((n + 1) * m[4] - 3 * (n - 1) * m[2] ** 2)
                   / ((n - 1) * (n - 2) * (n - 3)))
    if rmax >= 5:
        out.append(m[5] - 10.0 * m[2] * m[3])
    if rmax >= 6:
        out.append(m[6] - 15.0 * m[2] * m[4] - 10.0 * m[3] ** 2
                   + 30.0 * m[2] ** 3)
    return out


def k_statistic_errors(batch, rmax: int = 6):
    """Standard errors of :func:`k_statistics` from 10 contiguous sub-batches,
    or None for each below 10 (rmax + 1) values, where some sub-batch would
    hold rmax values or fewer."""
    values = _values(batch)
    if not 1 <= rmax <= 6:
        raise ValueError(f"rmax must be in 1..6, got {rmax}")
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

    Points are taken in chunks of at most ``_BLOCK_POINTS`` / 16, so the
    per-point arrays of the stop search and the chunk's panel list (at most
    ``_MAX_DOUBLINGS`` + 1 panels a point) stay bounded.  A chunk's panels
    form one flat list.  Their phase changes are taken in slices of at
    most ``_BLOCK_POINTS`` / 16 panels, and the list is cut between panels
    into blocks of at most ``_BLOCK_POINTS`` quadrature points (a panel
    that alone needs more is a block of its own), so memory does not grow
    with the number of points.
    Each point's panel integrals are summed in rung order with
    ``np.bincount``, and the tail terms at its last rung are added.  Each
    value depends on its own x alone, not on which other points share the
    call.

    A block's per-quadrature-point arrays (nodes, weights, owners, the
    (k, points) work array for rho and theta, and the integrand) are
    written with ``out=`` into scratch buffers that the law holds and
    reuses across blocks and calls; a shorter block uses the
    leading part of each.  They have room for ``_BLOCK_POINTS`` points and
    grow only for a panel that alone needs more, so the law then keeps
    that larger size.  Without them every block would allocate about
    fifteen half-megabyte arrays, each mapped, unmapped and page-faulted
    again.  The operations run in the allocating order, so the values are
    bitwise the same.  The law also counts its work for
    :meth:`take_diagnostics`.  A law is therefore not safe to share
    between threads.
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
        self._buffers = {}
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

    def _scratch(self, name, shape, dtype=float):
        """A C-contiguous array of ``shape``, whose last axis runs over
        quadrature points, in the law's reused buffer ``name``.  The buffer
        is made with room for ``_BLOCK_POINTS`` points and replaced by a
        larger one only for a block that needs more."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(
                max(size, size // shape[-1] * _BLOCK_POINTS), dtype)
        return buf[:size].reshape(shape)

    def _rho(self, t, work=None, out=None):
        """rho(t), written into ``out`` if given; ``work`` is a (k, len(t))
        array to compute in, or None to allocate one."""
        work = np.multiply(self.alphas[:, None], t, out=work)
        np.square(work, out=work)
        np.multiply(4.0, work, out=work)
        np.log1p(work, out=work)
        out = np.sum(work, axis=0, out=out)
        np.multiply(-0.25, out, out=out)
        return np.exp(out, out=out)

    def _theta(self, t, x, work=None, out=None):
        """theta(t) at the points x (one per t), with ``work`` and ``out`` as
        in :meth:`_rho`."""
        work = np.multiply(2.0 * self.alphas[:, None], t, out=work)
        np.arctan(work, out=work)
        out = np.sum(work, axis=0, out=out)
        np.multiply(0.5, out, out=out)
        shift = work[0]  # free once summed
        np.add(x, self.asum, out=shift)
        np.multiply(t, shift, out=shift)
        return np.subtract(out, shift, out=out)

    def _panels(self, a, b, x):
        """Integral over [a[i], b[i]] for the point x[i], for every i.

        The phase change over each panel, which sets its subpanel count, is
        taken over near-equal slices of at most ``_BLOCK_POINTS`` / 16
        panels, so its (k, panels) work arrays stay bounded too.  No slice
        is a single panel cut off the rest: NumPy sums the k weights of a
        lone column in another order than those of a wider array."""
        nsub = np.empty(len(x), dtype=np.int64)
        slices = max(1, -(-len(x) // (_BLOCK_POINTS // len(_GL_NODES))))
        cuts = np.arange(slices + 1) * len(x) // slices
        for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            dtheta = np.abs(self._theta(b[lo:hi], x[lo:hi])
                            - self._theta(a[lo:hi], x[lo:hi]))
            nsub[lo:hi] = np.where(dtheta <= 4.0 * math.pi, 1,
                                   np.ceil(dtheta / (2.0 * math.pi)))
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
        (edges as ``np.linspace`` places them), 16 Gauss-Legendre points each.

        Every array with one entry per quadrature point lives in the law's
        scratch buffers, so a block allocates only per-subpanel arrays."""
        owner = np.repeat(np.arange(len(x)), nsub)
        j = np.arange(len(owner)) - np.repeat(np.cumsum(nsub) - nsub, nsub)
        step = ((b - a) / nsub)[owner]
        left = j * step + a[owner]
        right = np.where(j + 1 == nsub[owner], b[owner], (j + 1) * step + a[owner])
        mid = 0.5 * (right + left)
        half = 0.5 * (right - left)
        panels, nodes = len(owner), len(_GL_NODES)
        points = panels * nodes
        ts = self._scratch("t", (points,))
        ws = self._scratch("w", (points,))
        point_owner = self._scratch("owner", (points,), np.intp)
        grid = (panels, nodes)
        np.multiply(half[:, None], _GL_NODES, out=ts.reshape(grid))
        np.add(mid[:, None], ts.reshape(grid), out=ts.reshape(grid))
        np.multiply(half[:, None], _GL_WEIGHTS, out=ws.reshape(grid))
        point_owner.reshape(grid)[...] = owner[:, None]
        work = self._scratch("work", (len(self.alphas), points))
        # mode "clip": the owners are valid indices, and the default "raise"
        # would write through a temporary array
        xs = np.take(x, point_owner, out=self._scratch("x", (points,)),
                     mode="clip")
        theta = self._theta(ts, xs, work, self._scratch("theta", (points,)))
        vals = self._rho(ts, work, self._scratch("rho", (points,)))
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
        xs = np.asarray(x, dtype=float)
        flat = xs.ravel()
        out = np.full(flat.shape, np.nan)
        if self.lower_edge is not None:
            out[flat <= self.lower_edge] = 0.0
        if self.upper_edge is not None:
            out[flat >= self.upper_edge] = 1.0
        todo = np.flatnonzero(np.isnan(out))
        bad = todo[~np.isfinite(flat[todo])]
        if bad.size:
            raise ValueError(f"CDF argument must be finite, got {flat[bad[0]]}")
        out[todo] = self._invert(flat[todo])
        return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)

    def _invert(self, x):
        """CDF values at the finite points x, taken in chunks of at most
        ``_BLOCK_POINTS`` / 16 points, so the per-point arrays of the stop
        search stay bounded too."""
        out = np.empty(len(x))
        most = _BLOCK_POINTS // len(_GL_NODES)
        diagnostics = self._diagnostics
        for lo in range(0, len(x), most):
            chunk = x[lo:lo + most]
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
            est = 0.5 - (self._integrals(T0, rung, chunk) + tail) / math.pi
            out[lo:lo + most] = np.clip(est, 0.0, 1.0)
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

    def _integrals(self, T0, rung, x):
        """Each point's integral over [0, T0 2^m], m its stop rung: panels
        [0, T0] and [T0 2^{j-1}, T0 2^j] for j = 1 .. m, laid out point by
        point in one flat list and summed in that order."""
        count = rung + 1
        first = np.cumsum(count) - count  # each point's panel [0, T0]
        owner = np.repeat(np.arange(len(x)), count)
        b = np.ldexp(T0[owner], np.arange(len(owner)) - np.repeat(first, count))
        a = 0.5 * b
        a[first] = 0.0
        return np.bincount(owner, weights=self._panels(a, b, x[owner]),
                           minlength=len(x))

    def cdf_batch(self, xs) -> np.ndarray:
        """CDF at many points: exact inversion on a quantile grid of the n
        inputs, with clip(n // 64, 256, 1600) nodes, and linear
        interpolation in between; up to 256 inputs are all inverted.

        The interpolation error at any point is at most the CDF increment
        between adjacent grid nodes, roughly one over the number of nodes
        when the nodes are sample quantiles, plus the nodes' own remainder
        bounds.
        """
        xs = np.asarray(xs, dtype=float)
        n = len(xs)
        nodes = int(np.clip(n // 64, 256, 1600))
        if n <= nodes:
            return self.cdf(xs)
        order = np.sort(xs)
        idx = np.unique(np.round(np.linspace(0, n - 1, nodes)).astype(int))
        grid = np.unique(order[idx])
        return np.interp(xs, grid, self.cdf(grid))


def kolmogorov_distance(batch, cdf) -> float:
    """One-sample Kolmogorov statistic: sup over the sample of |ECDF - cdf|.

    ``cdf`` is called once with the sorted sample and must return an array
    of the same shape."""
    v = np.sort(_values(batch))
    n = len(v)
    if n < 1:
        raise ValueError("need at least one sample")
    F = np.asarray(cdf(v), dtype=float)
    if F.shape != v.shape:
        raise ValueError(f"cdf returned shape {F.shape} for sample points of "
                         f"shape {v.shape}")
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))
