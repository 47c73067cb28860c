"""Exact machinery for operators whose diffusion depends on time only:
the accumulated diffusion matrix, the Gaussian transition kernel, the
potential operator, the heat semigroup, mollification, and a Fourier-side
oracle for one space dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coeffspec import _as_node, _eig_bounds_many, sym_eigvals
from .errors import NumericalError, SpecError
from .expr import ExprNode, Num, evaluate, max_x_index, to_string
from .holder import GridFn, SpaceTimeFn, _field_slice, fd_laplacian

__all__ = [
    "TimeMatrixPath", "GaussParams", "accumulate_A", "gauss_kernel",
    "kernel_on_grid", "potential_G", "potential_G_multi", "fourier_oracle_1d",
    "heat_semigroup", "mollify", "heat_solve",
]


@dataclass(frozen=True)
class TimeMatrixPath:
    """Symmetric d x d diffusion matrix a(t) depending on t only, with the
    times of its step discontinuities listed in ``breakpoints``."""

    d: int
    a: Tuple[Tuple[ExprNode, ...], ...]
    breakpoints: Tuple[float, ...] = ()

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise SpecError(f"dimension must be 1, 2, or 3, got {self.d}")
        if len(self.a) != self.d or any(len(r) != self.d for r in self.a):
            raise SpecError("a must be d x d")
        for i in range(self.d):
            for j in range(self.d):
                if max_x_index(self.a[i][j]) > 0:
                    raise SpecError(
                        f"path entry '{to_string(self.a[i][j])}' depends on x")
                if self.a[i][j] != self.a[j][i]:
                    raise SpecError("path matrix must be symmetric")
        if tuple(sorted(self.breakpoints)) != self.breakpoints:
            raise SpecError("breakpoints must be sorted")

    @staticmethod
    def make(d, entries, breakpoints=()):
        a = tuple(tuple(_as_node(entries[i][j]) for j in range(d)) for i in range(d))
        return TimeMatrixPath(d=d, a=a,
                              breakpoints=tuple(sorted(float(b) for b in breakpoints)))

    @staticmethod
    def identity(d):
        rows = [[Num(1.0) if i == j else Num(0.0) for j in range(d)]
                for i in range(d)]
        return TimeMatrixPath(d=d, a=tuple(tuple(r) for r in rows))

    def eval(self, t):
        """a(t); scalar t gives (d, d), array t gives (d, d) + t.shape."""
        rows = [[np.asarray(evaluate(self.a[i][j], t, []))
                 for j in range(self.d)] for i in range(self.d)]
        return np.array(rows)

    def bounds(self, s, t, n_samples=64):
        """Sampled (delta, K) with delta I <= a <= K I between breakpoints."""
        cuts = [s] + [b for b in self.breakpoints if s < b < t] + [t]
        lo, hi = np.inf, 0.0
        for a0, a1 in zip(cuts[:-1], cuts[1:]):
            ts = a0 + (np.arange(n_samples) + 0.5) / n_samples * (a1 - a0)
            lam_min, lam_max = _eig_bounds_many(self.eval(ts))  # (d, d, n)
            lo = min(lo, float(np.min(lam_min)))
            hi = max(hi, float(np.max(lam_max)))
        return lo, hi


# ---------------------------------------------------------------------------
# accumulated diffusion: A(s, t) as a difference of one cumulative integral,
# which makes A(s,t) = A(s,r) + A(r,t) hold to rounding for any r

_CUM_CACHE = {}


def _canonical_edges(path, lo, hi, dt_quad):
    """The midpoint-cell edges in [lo, hi], anchored at 0 and at every
    breakpoint: segments between anchors split evenly, and exact dt_quad
    cells march outwards from the outermost anchors, so every edge depends
    on the path and dt_quad alone."""
    anchors = sorted(set([0.0] + [float(b) for b in path.breakpoints]))
    pieces = []
    for a0, a1 in zip(anchors[:-1], anchors[1:]):
        n_cells = max(1, int(np.ceil((a1 - a0) / dt_quad - 1e-12)))
        pieces.append(a0 + (a1 - a0) * np.arange(n_cells + 1) / n_cells)
    steps = dt_quad * np.arange(int(np.ceil(max(-lo, hi) / dt_quad)) + 2)
    pieces += [anchors[0] - steps, anchors[-1] + steps]
    edges = np.unique(np.concatenate(pieces))
    return edges[(edges >= lo) & (edges <= hi)]


def _grown(span, tau):
    """The least power of two >= max(span, 1) that exceeds |tau|."""
    span = max(span, 1.0)
    while abs(tau) >= span:
        span *= 2.0
    return span


class _Cumulative:
    """F(tau) = integral of a from 0 to tau by composite midpoint on the
    canonical cell lattice; A(s,t) = F(t) - F(s).

    The lattice covers [-neg, pos].  Each end stays 0 until a time on its
    side of 0 is asked for, so nonnegative times alone never evaluate a
    below 0; it then is a power of two >= 1 that doubles when tau reaches
    it, so rising or falling times rebuild the lattice O(log) times.  The
    cumulative sums run outwards from 0, so F(tau) depends on (path,
    dt_quad, tau) alone: not on how far the lattice reaches, nor on which
    calls came before."""

    def __init__(self, path, dt_quad):
        self.path = path
        self.dt = float(dt_quad)
        self.neg = self.pos = 0.0

    def _build(self, neg, pos):
        # below 0, keep the lower edge of the cell holding any tau > -neg
        lo = -(neg + self.dt) * (1 + 1e-12) if neg else 0.0
        edges = _canonical_edges(self.path, lo, pos, self.dt)
        vals = self.path.eval(0.5 * (edges[:-1] + edges[1:]))  # (d, d, m)
        incr = np.moveaxis(vals * np.diff(edges), -1, 0)  # per-cell integrals
        k0 = int(np.searchsorted(edges, 0.0))
        cum = np.zeros((len(edges), self.path.d, self.path.d))
        cum[k0 + 1:] = np.cumsum(incr[k0:], axis=0)
        cum[:k0] = -np.cumsum(incr[:k0][::-1], axis=0)[::-1]
        self.neg, self.pos, self.edges, self.cum = neg, pos, edges, cum

    def value(self, tau):
        tau = float(tau)
        if tau >= self.pos:
            self._build(self.neg, _grown(self.pos, tau))
        elif tau < 0 and -tau >= self.neg:
            self._build(_grown(self.neg, tau), self.pos)
        i = int(np.searchsorted(self.edges, tau, side="right")) - 1
        w = tau - self.edges[i]
        if abs(w) < 1e-15:
            return self.cum[i].copy()
        return self.cum[i] + self.path.eval(self.edges[i] + 0.5 * w) * w


def _cumulative_for(path, dt_quad):
    key = (path, float(dt_quad))
    acc = _CUM_CACHE.get(key)
    if acc is None:
        acc = _Cumulative(path, dt_quad)
        if len(_CUM_CACHE) > 64:
            _CUM_CACHE.clear()
        _CUM_CACHE[key] = acc
    return acc


def _invert(a):
    """Inverse and determinant of the inverse; closed form for d <= 2,
    Gaussian elimination with partial pivoting for d = 3."""
    d = a.shape[0]
    if d == 1:
        det_a = a[0, 0]
        if det_a == 0.0:
            raise NumericalError("accumulated diffusion is singular")
        return np.array([[1.0 / det_a]]), 1.0 / det_a
    if d == 2:
        det_a = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        if det_a == 0.0:
            raise NumericalError("accumulated diffusion is singular")
        inv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det_a
        return inv, 1.0 / det_a
    # d = 3: partial-pivot elimination on [a | I]
    m = np.hstack([a.astype(float).copy(), np.eye(3)])
    det_a = 1.0
    for col in range(3):
        p = col + int(np.argmax(np.abs(m[col:, col])))
        if abs(m[p, col]) < 1e-300:
            raise NumericalError("accumulated diffusion is singular")
        if p != col:
            m[[col, p]] = m[[p, col]]
            det_a = -det_a
        det_a *= m[col, col]
        m[col] = m[col] / m[col, col]
        for row in range(3):
            if row != col:
                m[row] -= m[row, col] * m[col]
    return m[:, 3:], 1.0 / det_a


@dataclass(frozen=True)
class GaussParams:
    """Accumulated diffusion A over (s, t), its inverse B, and det B."""

    d: int
    s: float
    t: float
    A: Optional[np.ndarray]
    B: Optional[np.ndarray]
    detB: float

    @property
    def active(self):
        return self.t > self.s and self.A is not None

    @staticmethod
    def degenerate(d, s, t):
        return GaussParams(d=d, s=float(s), t=float(t), A=None, B=None, detB=0.0)


def accumulate_A(path, s, t, dt_quad=1e-3):
    """A(s,t) = integral of a(r) over (s, t), entrywise composite midpoint
    with cells split at every breakpoint; B by direct inversion.

    The integral is formed as a difference of one cumulative integral, so
    A(s,t) = A(s,r) + A(r,t) holds to rounding for any intermediate r.
    """
    if not -np.inf < s < t < np.inf:
        raise NumericalError(
            f"accumulate_A needs finite s < t, got s={s}, t={t}")
    acc = _cumulative_for(path, dt_quad)
    a_mat = acc.value(t) - acc.value(s)
    a_mat = 0.5 * (a_mat + a_mat.T)
    w = sym_eigvals(a_mat)
    if w[0] <= 0.0:
        raise NumericalError(
            f"accumulated diffusion not positive definite on ({s}, {t}); "
            f"eigenvalues {w}")
    b_mat, det_b = _invert(a_mat)
    b_mat = 0.5 * (b_mat + b_mat.T)
    resid = np.max(np.abs(a_mat @ b_mat - np.eye(path.d)))
    if resid > 1e-12 * max(1.0, float(np.max(np.abs(a_mat)))):
        raise NumericalError(f"inverse check failed, residual {resid}")
    return GaussParams(d=path.d, s=float(s), t=float(t),
                       A=a_mat, B=b_mat, detB=float(det_b))


# ---------------------------------------------------------------------------
# kernel and potential

def gauss_kernel(params, x):
    """Transition density p(s,t,x); identically 0 when t <= s.

    ``x``: array whose last axis has length d (for d = 1 any shape works).
    """
    xa = np.asarray(x, dtype=float)
    if params.d == 1 and (xa.ndim == 0 or xa.shape[-1] != 1):
        xa = xa[..., None]
    if xa.shape[-1] != params.d:
        raise SpecError(f"points must have last axis {params.d}")
    if not params.active:
        return np.zeros(xa.shape[:-1])
    quad_form = np.einsum("...i,ij,...j->...", xa, params.B, xa)
    amp = (4.0 * np.pi) ** (-params.d / 2.0) * np.sqrt(params.detB)
    return amp * np.exp(-quad_form / 4.0)


def kernel_on_grid(params, grid):
    mesh = np.stack(grid.mesh(), axis=-1)
    return GridFn(grid, gauss_kernel(params, mesh))


def _kernel_weights(params, h, max_radius, tail_sigmas=8.0):
    """Discrete convolution weights: the kernel sampled on the node lattice
    inside ``tail_sigmas`` standard deviations, normalized to unit mass."""
    lam_max = float(sym_eigvals(params.A)[-1])
    reach = min(tail_sigmas * np.sqrt(max(lam_max, 0.0)), max_radius)
    m = int(np.floor(reach / h + 1e-12))
    axes = [np.arange(-m, m + 1) * h] * params.d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    w = gauss_kernel(params, mesh) * h ** params.d
    total = float(np.sum(w))
    if total <= 0.0:
        shape = (1,) * params.d
        w = np.ones(shape)
        return w
    return w / total


def _time_cells(lo, hi, breakpoints, n_sub):
    cuts = [lo] + sorted(b for b in set(breakpoints) if lo < b < hi) + [hi]
    mids, widths = [], []
    for a0, a1 in zip(cuts[:-1], cuts[1:]):
        for j in range(n_sub):
            mids.append(a0 + (j + 0.5) * (a1 - a0) / n_sub)
            widths.append((a1 - a0) / n_sub)
    return np.array(mids), np.array(widths)


def _convolve(values, weights):
    """Direct-summation convolution with zero extension, returned on the
    grid of ``values``; ``weights`` is centred, with odd length along every
    axis.  1-D grids use ``np.convolve``.  For d >= 2 the sum runs on BLAS
    as Toeplitz matrix products (``_convolve_planes``); in 3-D one call per
    kernel plane takes every data plane that plane carries onto the grid."""
    if values.ndim == 1:
        m = (len(weights) - 1) // 2
        return np.convolve(values, weights)[m:m + len(values)]
    # crop or zero-pad to half-width n - 1 on every axis: taps beyond it
    # never reach the grid
    w = np.zeros(tuple(2 * n - 1 for n in values.shape))
    src, dst = [], []
    for k, n in zip(weights.shape, values.shape):
        m = (k - 1) // 2
        c = min(m, n - 1)
        src.append(slice(m - c, m + c + 1))
        dst.append(slice(n - 1 - c, n + c))
    w[tuple(dst)] = weights[tuple(src)]
    if values.ndim == 2:
        return _convolve_planes(values, w)
    n0 = len(values)
    out = np.zeros(values.shape)
    for a, plane in enumerate(w):
        # kernel plane a carries data plane p to output plane p + a - n0 + 1
        lo, hi = max(0, n0 - 1 - a), min(n0, 2 * n0 - 1 - a)
        out[lo + a - n0 + 1:hi + a - n0 + 1] += _convolve_planes(
            values[lo:hi], plane)
    return out


def _convolve_planes(values, weights):
    """Convolve the last two axes of ``values``, of size (n0, n1), with
    ``weights`` of shape (2 n0 - 1, 2 n1 - 1), zero extension.  One matrix
    product convolves every data row with every kernel row; output row i
    then adds data row p's result under kernel row i - p + n0 - 1."""
    n0, n1 = values.shape[-2:]
    # toeplitz[a, q', q] = weights[a, q - q' + n1 - 1]
    toeplitz = sliding_window_view(weights, n1, axis=1)[:, ::-1]
    rows = values @ toeplitz.transpose(1, 0, 2).reshape(n1, -1)
    rows = rows.reshape(values.shape[:-1] + (2 * n0 - 1, n1))
    out = np.zeros(values.shape)
    for p in range(n0):
        out += rows[..., p, n0 - 1 - p:2 * n0 - 1 - p, :]
    return out


def potential_G_multi(path, f, times, grid, t_end, n_time_sub=16,
                      f_breakpoints=(), tail_sigmas=8.0, dt_quad=1e-3):
    """The potential (G f)(s, .) at every s in ``times``, as an array of
    shape ``(len(times),) + grid.shape``; see ``potential_G``.

    The cells of all outputs are walked in increasing midpoint order, so f
    is evaluated once per distinct midpoint across all outputs, and each
    output still sums its cells in increasing midpoint order.  The space
    convolution is direct summation: ``np.convolve`` in 1-D, Toeplitz
    matrix products on BLAS for d >= 2 (``_convolve``).
    """
    times = np.asarray(times, dtype=float)
    breaks = tuple(path.breakpoints) + tuple(f_breakpoints)
    # A is computed here, not in the walk: interleaved with the walk's grid
    # evaluations of f, the scalar path evaluations measured 10-18% slower
    cells = []  # (midpoint, output index, width, params)
    for k, s in enumerate(times):
        if t_end <= s:
            continue
        mids, widths = _time_cells(s, t_end, breaks, n_time_sub)
        for r, w in zip(mids, widths):
            if r <= s or w <= 0.0:
                continue
            cells.append((r, k, w, accumulate_A(path, s, r, dt_quad=dt_quad)))
    cells.sort(key=lambda cell: cell[0])  # stable: equal midpoints keep order
    out = np.zeros((len(times),) + grid.shape)
    f_time, f_slice = None, None
    for r, k, w, params in cells:
        if r != f_time:
            f_time, f_slice = r, _field_slice(f, r, grid)
        weights = _kernel_weights(params, grid.h, 2.0 * grid.radius, tail_sigmas)
        out[k] += w * _convolve(f_slice, weights)
    return out


def potential_G(path, f, s, grid, t_end, n_time_sub=16, f_breakpoints=(),
                tail_sigmas=8.0, dt_quad=1e-3):
    """The potential (G f)(s, .) = integral over t in (s, t_end) of
    p(s, t, .) convolved with f(t, .); f must vanish for t >= t_end.

    Time integration is composite midpoint split at the path's and the
    data's breakpoints; the space convolution is direct summation with the
    kernel truncated at ``tail_sigmas`` standard deviations, by
    ``np.convolve`` in 1-D and Toeplitz matrix products for d >= 2.  A call
    for one time; ``potential_G_multi`` takes many at once and evaluates f
    once per distinct cell midpoint across them.
    """
    return GridFn(grid, potential_G_multi(
        path, f, [s], grid, t_end, n_time_sub=n_time_sub,
        f_breakpoints=f_breakpoints, tail_sigmas=tail_sigmas,
        dt_quad=dt_quad)[0])


def fourier_oracle_1d(path, f, t, grid, t_end, n_time_sub=16, f_breakpoints=(),
                      pad_factor=2, dt_quad=1e-3):
    """Frequency-side solution of u_t + a(t) u_xx = f with u -> 0 at large
    times: u-hat(t, xi) = -integral over r > t of exp(-A(t,r) xi^2) f-hat.

    Independent of the space-convolution route; serves as its oracle (the
    result approximates -(G f)(t, .)).  One space dimension only; slices are
    zero-padded to ``pad_factor`` times the box to suppress wrap-around.
    """
    if path.d != 1 or grid.d != 1:
        raise SpecError("the Fourier oracle supports d = 1 only")
    n = grid.n
    m = pad_factor * n
    h = grid.h
    x0 = -grid.radius
    xi = 2.0 * np.pi * np.fft.fftfreq(m, d=h)
    phase = np.exp(-1j * xi * x0)

    mids, widths = _time_cells(t, t_end, tuple(path.breakpoints) + tuple(f_breakpoints),
                               n_time_sub)
    u_hat = np.zeros(m, dtype=complex)
    for r, w in zip(mids, widths):
        if r <= t or w <= 0.0:
            continue
        f_slice = _field_slice(f, r, grid)
        padded = np.zeros(m)
        padded[:n] = f_slice
        f_hat = np.fft.fft(padded) * h * phase
        a_tr = accumulate_A(path, t, r, dt_quad=dt_quad).A[0, 0]
        u_hat -= w * np.exp(-a_tr * xi ** 2) * f_hat
    u_pad = np.fft.ifft(u_hat * np.conj(phase)) / h
    return GridFn(grid, np.real(u_pad[:n]))


# ---------------------------------------------------------------------------
# heat semigroup and mollification

def heat_semigroup(fn, tau):
    """T_tau f: convolution with the unit-diffusion Gaussian kernel at time
    lag tau, realized as separable per-axis direct convolutions with
    weights normalized to unit mass (edge values replicate outwards)."""
    if tau < 0:
        raise SpecError("tau must be nonnegative")
    if tau == 0.0:
        return fn.copy()
    grid = fn.grid
    h = grid.h
    sigma = np.sqrt(2.0 * tau)
    m = int(np.floor(min(8.0 * sigma, 2.0 * grid.radius) / h + 1e-12))
    offsets = np.arange(-m, m + 1) * h
    w = np.exp(-offsets ** 2 / (4.0 * tau))
    w /= np.sum(w)
    out = fn.values
    for axis in range(grid.d):
        pad = [(m, m) if ax == axis else (0, 0) for ax in range(grid.d)]
        out = sliding_window_view(np.pad(out, pad, mode="edge"), 2 * m + 1,
                                  axis=axis) @ w
    return GridFn(grid, out)


def mollify(fn, eps):
    """Convolution with the compactly supported bump exp(-1/(1-|x/eps|^2))
    on |x| < eps, its node weights normalized to unit mass, so constants
    are preserved exactly (edge values replicate outwards).  When eps is
    below the grid spacing the stencil degenerates to the identity.
    """
    if eps <= 0:
        raise SpecError("mollification radius must be positive")
    grid = fn.grid
    h = grid.h
    m = int(np.floor(eps / h))
    axes = [np.arange(-m, m + 1) * h] * grid.d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    r2 = np.sum(mesh ** 2, axis=-1) / eps ** 2
    w = np.zeros(r2.shape)
    inside = r2 < 1.0  # always holds the centre node
    w[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    w /= np.sum(w)
    out = _convolve(np.pad(fn.values, m, mode="edge"), w)
    return GridFn(grid, out[(slice(m, m + grid.n),) * grid.d])


# ---------------------------------------------------------------------------
# heat equation with zero data at the final time

def heat_solve(f, delta, S, grid, times=None, n_time_sub=16, f_breakpoints=(),
               dt_quad=1e-3):
    """Solve u_t + Lap(u) - delta u = f with f vanishing for t >= S and
    u(t, .) = 0 for t >= S, via the unit-diffusion potential:

        u(t, .) = -exp(delta t) G0( exp(-delta .) f )(t, .)

    Fills the stored time derivative from the equation,
    u_t = f - Lap(u) + delta u.
    """
    if delta <= 0:
        raise SpecError("delta must be positive")
    if times is None:
        if not isinstance(f, SpaceTimeFn):
            raise SpecError("give output times unless f is a SpaceTimeFn")
        times = np.asarray(f.times, dtype=float)
    else:
        times = np.asarray(times, dtype=float)
    path = TimeMatrixPath.identity(grid.d)

    def damped(t):
        return np.exp(-delta * t) * _field_slice(f, t, grid)

    g0 = potential_G_multi(path, damped, times, grid, S, n_time_sub=n_time_sub,
                           f_breakpoints=f_breakpoints, dt_quad=dt_quad)
    values = np.zeros((len(times),) + grid.shape)
    dt_vals = np.zeros_like(values)
    for k, t in enumerate(times):
        if t >= S:
            continue  # u and u_t vanish there exactly
        values[k] = -np.exp(delta * t) * g0[k]
        lap = fd_laplacian(GridFn(grid, values[k])).values
        dt_vals[k] = _field_slice(f, t, grid) - lap + delta * values[k]
    return SpaceTimeFn(grid=grid, times=times, values=values, dt_values=dt_vals)
