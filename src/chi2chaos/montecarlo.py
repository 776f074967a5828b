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

# Most normals one block of sample_chaos draws: 2 MB, so at d > 16 a block
# has fewer than chaos._BLOCK_ROWS rows.
_BLOCK_VALUES = 1 << 18

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# Most quadrature points the CDF inverter holds in one flat array.
_BLOCK_POINTS = 1 << 16
# Most subpanels one quadrature panel of one point may need: a phase change
# of up to 2e5 pi rad, at one subpanel per 2 pi.
_MAX_SUBPANELS = 100_000
# A CDF point is done when two successive estimates in a row differ by less
# than _TOL; it raises NumericalError if that takes more than _MAX_DOUBLINGS
# doublings of its integration range.
_TOL = 1e-6
_MAX_DOUBLINGS = 64


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

    The inputs are drawn and evaluated in blocks of
    min(``chaos._BLOCK_ROWS``, max(1, ``_BLOCK_VALUES`` // d)) rows, so a
    block holds at most 2^18 normals (2 MB) at any d, and memory is the n
    values plus a few blocks, however large n * d is.  The Philox draws of
    consecutive blocks are bitwise the rows of one (n, d) draw, so the
    values are those of ``evaluate`` on that whole draw: bitwise for orders
    0 and >= 3, whose rows do not depend on each other, which also makes a
    sample of n rows bitwise the first n values of a longer one with the
    same seed.  Orders 1 and 2 are the exception: they go through BLAS on
    each block (``xs @ f``), so their rows may differ from a whole-draw
    evaluation in the last bits.  At d = 300 (blocks of 873 rows) and
    n = 40 000, 35 order-1 and 182 order-2 rows of a random kernel did, by
    at most 2.3e-16 of the largest |value|.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = _rng(seed)
    values_of = chaos._evaluator(F)
    values = np.empty(n)
    rows = min(chaos._BLOCK_ROWS, max(1, _BLOCK_VALUES // F.dim))
    # one buffer for every block's draw: with a fresh array per block the
    # allocator returns the freed memory and faults it in again each block
    x = np.empty((min(n, rows), F.dim))
    for lo in range(0, n, rows):
        xs = x[:min(rows, n - lo)]
        rng.standard_normal(out=xs)
        values[lo:lo + len(xs)] = values_of(xs)
    values.flags.writeable = False
    return SampleBatch(values, seed)


def k_statistics(batch, rmax: int = 6):
    """Cumulant estimates [k_1 .. k_rmax]: unbiased k-statistics for r <= 4,
    central-moment plug-in (bias O(1/n)) for r in {5, 6}."""
    values = batch.values if isinstance(batch, SampleBatch) else np.asarray(batch, float)
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
    """Standard errors of :func:`k_statistics` from 10 contiguous sub-batches."""
    values = batch.values if isinstance(batch, SampleBatch) else np.asarray(batch, float)
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
    """The target law: characteristic function, and the CDF by adaptive
    quadrature of Im[e^{-itx} cf(t)] / t over t in (0, T], for many points x
    in lockstep.

    The integrand is rho(t) sin(theta(t)) / t with
    rho(t) = prod (1 + 4 a^2 t^2)^{-1/4} and
    theta(t) = (1/2) sum arctan(2 a t) - t (x + sum a).
    Each point starts at T = 0.25 / max(|x + sum a|, 2 max |a|) and its panels
    double geometrically; a panel gets max(1, ceil(dtheta / (2 pi)))
    16-node Gauss-Legendre subpanels, one per 2 pi of phase change.  On
    about 2 pi of phase the Bernstein-ellipse bound on the 16-node error is
    below 1e-18 of the envelope rho(t)/t, so rounding, not the rule, sets the
    quadrature error.  Once the phase at the panel end dominates
    (|theta'(T)| T >= 20), two integration-by-parts tail terms are added, and
    a point is done when its successive estimates differ by < ``_TOL`` twice
    in a row.  That stop rule, not the quadrature, limits the accuracy.

    Every point still refining takes each doubling step together with the
    others: their subpanels form one flat array, reduced per point with
    ``np.bincount``, and points that converge drop out.  The flat array is
    cut between points into blocks of at most ``_BLOCK_POINTS`` quadrature
    points (a point whose panel alone needs more is a block of its own), so
    memory does not grow with the number of points.  Each value depends on
    its own x alone, not on which other points share the call.

    A block's per-quadrature-point arrays (nodes, weights, owners, the
    (k, points) work array for rho and theta, and the integrand) are
    written with ``out=`` into scratch buffers that the law holds and
    reuses across blocks, doublings and calls; a shorter block uses the
    leading part of each.  They have room for ``_BLOCK_POINTS`` points and
    grow only for a point whose panel alone needs more, so the law then
    keeps that larger size.  Without them every block would allocate about
    fifteen half-megabyte arrays, each mapped, unmapped and page-faulted
    again.  The operations run in the allocating order, so the values are
    bitwise the same.  A law is therefore not safe to share between threads.
    """

    def __init__(self, spec: TargetSpec):
        self.spec = spec
        self.alphas = np.asarray(spec.alphas)
        self.asum = float(np.sum(self.alphas))
        self.lower_edge = -self.asum if np.all(self.alphas > 0) else None
        self.upper_edge = -self.asum if np.all(self.alphas < 0) else None
        self._buffers = {}

    def cf(self, t):
        return target_cf(self.spec, t)

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
        """Integral over [a[i], b[i]] for the point x[i], for every i."""
        dtheta = np.abs(self._theta(b, x) - self._theta(a, x))
        nsub = np.maximum(1, np.ceil(dtheta / (2.0 * math.pi))).astype(np.int64)
        over = np.flatnonzero(nsub > _MAX_SUBPANELS)
        if over.size:
            i = over[0]
            raise NumericalError(
                f"CDF quadrature panel [{a[i]:g}, {b[i]:g}] at x={x[i]:g} would "
                f"need {nsub[i]} subpanels"
            )
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
        """Two integration-by-parts terms for the remainder beyond T[i], or 0
        while the oscillation does not yet dominate the envelope decay."""
        a = self.alphas[:, None]
        a2t2 = 4.0 * (a * T) ** 2
        dtheta = np.sum(a / (1.0 + a2t2), axis=0) - (x + self.asum)
        out = np.zeros(len(T))
        use = np.abs(dtheta) * T >= 20.0
        if not use.any():
            return out
        T, x, dtheta, a2t2 = T[use], x[use], dtheta[use], a2t2[:, use]
        theta = self._theta(T, x)
        env = self._rho(T) / T
        dlog_rho = -2.0 * T * np.sum(a ** 2 / (1.0 + a2t2), axis=0)
        denv = env * (dlog_rho - 1.0 / T)
        d2theta = np.sum(-8.0 * a ** 3 * T / (1.0 + a2t2) ** 2, axis=0)
        g = (denv * dtheta - env * d2theta) / dtheta ** 2
        out[use] = env * np.cos(theta) / dtheta - g * np.sin(theta) / dtheta
        return out

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
        """CDF values at the finite points x, refined together."""
        result = np.empty(len(x))
        freq = np.maximum(np.abs(x + self.asum),
                          2.0 * float(np.max(np.abs(self.alphas))))
        T = 0.25 / freq
        integral = self._panels(np.zeros(len(x)), T, x)
        prev = np.full(len(x), np.nan)
        small_steps = np.zeros(len(x), dtype=np.int64)
        pos = np.arange(len(x))  # where each point still refining goes
        for _ in range(_MAX_DOUBLINGS):
            integral = integral + self._panels(T, 2.0 * T, x)
            T = 2.0 * T
            est = 0.5 - (integral + self._tails(T, x)) / math.pi
            small_steps = np.where(np.abs(est - prev) < _TOL, small_steps + 1, 0)
            done = small_steps >= 2
            result[pos[done]] = np.clip(est[done], 0.0, 1.0)
            keep = ~done
            pos, x, T, integral, prev, small_steps = (
                pos[keep], x[keep], T[keep], integral[keep], est[keep],
                small_steps[keep])
            if not pos.size:
                return result
        raise NumericalError(
            f"CDF quadrature did not converge at x={x[0]:g}: reached T={T[0]:g}, "
            f"last estimate {float(prev[0])!r}, tolerance {_TOL:g} "
            f"({len(x)} of {len(result)} points unconverged)"
        )

    def cdf_batch(self, xs) -> np.ndarray:
        """CDF at many points: exact inversion on a quantile grid of the n
        inputs, with clip(n // 64, 256, 1600) nodes, and monotone
        interpolation in between; up to 256 inputs are all inverted.

        The interpolation error at any point is at most the CDF increment
        between adjacent grid nodes, roughly one over the number of nodes
        when the nodes are sample quantiles.
        """
        xs = np.asarray(xs, dtype=float)
        n = len(xs)
        nodes = int(np.clip(n // 64, 256, 1600))
        if n <= nodes:
            return self.cdf(xs)
        order = np.sort(xs)
        idx = np.unique(np.round(np.linspace(0, n - 1, nodes)).astype(int))
        grid = np.unique(order[idx])
        vals = self.cdf(grid)
        vals = np.clip(np.maximum.accumulate(vals), 0.0, 1.0)
        return np.interp(xs, grid, vals)


def target_cdf(spec: TargetSpec, x):
    """P(target <= x) by characteristic-function inversion (x scalar or array)."""
    return TargetLaw(spec).cdf(x)


def kolmogorov_distance(batch, cdf) -> float:
    """One-sample Kolmogorov statistic: sup over the sample of |ECDF - cdf|.

    ``cdf`` is called once with the sorted sample and must return an array
    of the same shape."""
    values = batch.values if isinstance(batch, SampleBatch) else np.asarray(batch, float)
    v = np.sort(values)
    n = len(v)
    if n < 1:
        raise ValueError("need at least one sample")
    F = np.asarray(cdf(v), dtype=float)
    if F.shape != v.shape:
        raise ValueError(f"cdf returned shape {F.shape} for sample points of "
                         f"shape {v.shape}")
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))


def export_csv(batch: SampleBatch, path):
    """Single-column CSV; the header comment carries seed and generator id."""
    with open(path, "w") as fh:
        fh.write(f"# seed={batch.seed} generator_id={batch.generator_id}\n")
        fh.write("value\n")
        for v in batch.values:
            fh.write(f"{float(v)!r}\n")
