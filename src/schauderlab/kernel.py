"""Exact machinery for operators whose diffusion depends on time only:
the accumulated diffusion matrix, the Gaussian transition kernel, the
potential operator, the heat semigroup, mollification, and a Fourier-side
oracle for one space dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import ndimage
from scipy.integrate import quad

from .coeffspec import sym_eigvals
from .errors import NumericalError, SpecError
from .expr import (Binary, Call, ExprNode, Num, Unary, Var, evaluate,
                   max_x_index, parse_expr, to_string)

_NODE_TYPES = (Num, Var, Unary, Binary, Call)
from .holder import GridFn, SpaceGrid, SpaceTimeFn, fd_laplacian

__all__ = [
    "TimeMatrixPath", "GaussParams", "accumulate_A", "gauss_kernel",
    "kernel_on_grid", "potential_G", "fourier_oracle_1d", "heat_semigroup",
    "mollify", "heat_solve", "bump_normalizer",
]


def _as_node(e):
    return parse_expr(e) if isinstance(e, str) else e


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
            mats = self.eval(ts)  # (d, d, n)
            for k in range(n_samples):
                w = sym_eigvals(mats[:, :, k])
                lo = min(lo, w[0])
                hi = max(hi, w[-1])
        return float(lo), float(hi)


# ---------------------------------------------------------------------------
# accumulated diffusion: A(s, t) as a difference of one cumulative integral,
# which makes A(s,t) = A(s,r) + A(r,t) hold to rounding for any r

_CUM_CACHE = {}


def _canonical_edges(path, lo, hi, dt_quad):
    """Midpoint-cell edges covering [lo, hi], anchored at 0 and at every
    breakpoint so that the cell decomposition does not depend on the
    requested range."""
    anchors = sorted(set([0.0] + [float(b) for b in path.breakpoints]))
    edges = set(anchors)
    # walk outwards from each anchored segment
    segs = []
    for a0, a1 in zip(anchors[:-1], anchors[1:]):
        segs.append((a0, a1))
    first, last = anchors[0], anchors[-1]
    if lo < first:
        segs.append((lo, first))
    if hi > last:
        segs.append((last, hi))
    for a0, a1 in segs:
        length = a1 - a0
        if length <= 0:
            continue
        n_cells = max(1, int(np.ceil(length / dt_quad - 1e-12)))
        # anchor interior segments on their own ends; outer segments on the
        # anchored end, with exact dt_quad cells marching outwards
        if a0 in anchors and a1 in anchors:
            pts = a0 + (a1 - a0) * np.arange(n_cells + 1) / n_cells
        elif a1 in anchors:  # marching down from a1
            k = int(np.ceil((a1 - lo) / dt_quad - 1e-12))
            pts = a1 - dt_quad * np.arange(k + 1)
        else:  # marching up from a0
            k = int(np.ceil((hi - a0) / dt_quad - 1e-12))
            pts = a0 + dt_quad * np.arange(k + 1)
        edges.update(float(p) for p in pts)
    out = np.array(sorted(e for e in edges if lo - 1e-12 <= e <= hi + 1e-12))
    return out


class _Cumulative:
    """F(tau) = integral of a from 0 to tau by composite midpoint on the
    canonical cell lattice; A(s,t) = F(t) - F(s).

    The lattice is built past the requested top ``hi``: each time ``hi``
    rises beyond it, it is rebuilt over twice the requested span, so a
    rising sequence of times rebuilds it O(log) times.  Edges and cumulative
    sums below ``hi`` do not depend on how far the lattice reaches, and the
    last cell below ``hi`` stretches to ``hi`` as on a lattice built for the
    requested range alone, so F does not depend on the headroom."""

    def __init__(self, path, dt_quad):
        self.path = path
        self.dt = float(dt_quad)
        self.lo = 0.0
        self.hi = 0.0
        self.top = 0.0
        self.edges = np.array([0.0])
        self.cum = np.zeros((1, path.d, path.d))

    def _ensure(self, lo, hi):
        self.hi = max(hi, self.hi)
        if lo >= self.lo and self.hi <= self.top:
            return
        self.lo = min(lo, self.lo)
        if self.hi > self.top:
            self.top = self.hi + (self.hi - self.lo)
        edges = _canonical_edges(self.path, self.lo, self.top, self.dt)
        mids = 0.5 * (edges[:-1] + edges[1:])
        widths = edges[1:] - edges[:-1]
        vals = self.path.eval(mids)                      # (d, d, m)
        incr = vals * widths                              # per-cell integrals
        cum = np.zeros((len(edges), self.path.d, self.path.d))
        cum[1:] = np.cumsum(np.moveaxis(incr, -1, 0), axis=0)
        # shift so that F(0) = 0
        k0 = int(np.searchsorted(edges, 0.0))
        cum -= cum[k0]
        self.edges, self.cum = edges, cum

    def value(self, tau):
        tau = float(tau)
        self._ensure(min(tau, 0.0) - 1e-9, max(tau, 0.0) + 1e-9)
        last = int(np.searchsorted(self.edges, self.hi + 1e-12,
                                   side="right")) - 2
        i = int(np.searchsorted(self.edges, tau, side="right")) - 1
        i = max(min(i, last), 0)
        base = self.cum[i]
        lo_edge = self.edges[i]
        w = tau - lo_edge
        if abs(w) < 1e-15:
            return base.copy()
        mid = lo_edge + 0.5 * w
        return base + self.path.eval(mid) * w


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
    if not t > s:
        raise NumericalError(f"accumulate_A needs t > s, got s={s}, t={t}")
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


def _field_slice(f, t, grid, d):
    """Evaluate a time slice of ``f`` on the grid; f may be an expression,
    a callable t -> array, or a SpaceTimeFn (linear interpolation in t)."""
    if isinstance(f, _NODE_TYPES):
        vals = grid.field(f, t)
    elif isinstance(f, SpaceTimeFn):
        times = f.times
        if t <= times[0]:
            vals = f.values[0].copy()
        elif t >= times[-1]:
            vals = f.values[-1].copy()
        else:
            k = int(np.searchsorted(times, t, side="right")) - 1
            k = min(k, len(times) - 2)
            w = (t - times[k]) / (times[k + 1] - times[k])
            vals = (1.0 - w) * f.values[k] + w * f.values[k + 1]
    elif callable(f):
        vals = np.asarray(f(t), dtype=float) * np.ones(grid.shape)
    else:
        raise SpecError(f"cannot evaluate data of type {type(f)!r}")
    if not np.all(np.isfinite(vals)):
        raise NumericalError(f"data slice at t = {t} contains non-finite values")
    return vals


def _time_cells(lo, hi, breakpoints, n_sub):
    cuts = [lo] + sorted(b for b in set(breakpoints) if lo < b < hi) + [hi]
    mids, widths = [], []
    for a0, a1 in zip(cuts[:-1], cuts[1:]):
        for j in range(n_sub):
            mids.append(a0 + (j + 0.5) * (a1 - a0) / n_sub)
            widths.append((a1 - a0) / n_sub)
    return np.array(mids), np.array(widths)


def potential_G(path, f, s, grid, t_end, n_time_sub=16, f_breakpoints=(),
                tail_sigmas=8.0, dt_quad=1e-3):
    """The potential (G f)(s, .) = integral over t in (s, t_end) of
    p(s, t, .) convolved with f(t, .); f must vanish for t >= t_end.

    Time integration is composite midpoint split at the path's and the
    data's breakpoints; the space convolution is direct summation with the
    kernel truncated at ``tail_sigmas`` standard deviations.
    """
    if t_end <= s:
        return GridFn(grid, np.zeros(grid.shape))
    mids, widths = _time_cells(s, t_end, tuple(path.breakpoints) + tuple(f_breakpoints),
                               n_time_sub)
    out = np.zeros(grid.shape)
    for r, w in zip(mids, widths):
        if r <= s or w <= 0.0:
            continue
        params = accumulate_A(path, s, r, dt_quad=dt_quad)
        weights = _kernel_weights(params, grid.h, 2.0 * grid.radius, tail_sigmas)
        f_slice = _field_slice(f, r, grid, path.d)
        conv = ndimage.convolve(f_slice, weights, mode="constant", cval=0.0)
        out += w * conv
    return GridFn(grid, out)


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
        f_slice = _field_slice(f, r, grid, 1)
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
        out = ndimage.convolve1d(out, w, axis=axis, mode="nearest")
    return GridFn(grid, out)


_BUMP_NORM = {}


def bump_normalizer(d):
    """Constant c_d with integral over the unit ball of
    c_d exp(-1/(1-|x|^2)) equal to 1, by quadrature."""
    if d not in _BUMP_NORM:
        if d == 1:
            val, _ = quad(lambda r: np.exp(-1.0 / (1.0 - r * r)), -1.0, 1.0)
        elif d == 2:
            val, _ = quad(lambda r: 2.0 * np.pi * r * np.exp(-1.0 / (1.0 - r * r)),
                          0.0, 1.0)
        else:
            val, _ = quad(lambda r: 4.0 * np.pi * r * r * np.exp(-1.0 / (1.0 - r * r)),
                          0.0, 1.0)
        _BUMP_NORM[d] = 1.0 / val
    return _BUMP_NORM[d]


def mollify(fn, eps):
    """Convolution with the compactly supported bump
    zeta_eps(x) = eps^(-d) c_d exp(-1/(1-|x/eps|^2)) on |x| < eps.

    Discrete weights are renormalized to unit mass, so constants are
    preserved exactly.  When eps is below the grid spacing the stencil
    degenerates to the identity.
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
    inside = r2 < 1.0
    w[inside] = bump_normalizer(grid.d) * np.exp(-1.0 / (1.0 - r2[inside])) \
        / eps ** grid.d * h ** grid.d
    total = np.sum(w)
    if total <= 0.0:
        return fn.copy()
    w = w / total
    return GridFn(grid, ndimage.convolve(fn.values, w, mode="nearest"))


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
        return np.exp(-delta * t) * _field_slice(f, t, grid, grid.d)

    nt = len(times)
    values = np.zeros((nt,) + grid.shape)
    dt_vals = np.zeros_like(values)
    for k, t in enumerate(times):
        if t >= S:
            continue  # u and u_t vanish there exactly
        g0 = potential_G(path, damped, t, grid, S, n_time_sub=n_time_sub,
                         f_breakpoints=f_breakpoints, dt_quad=dt_quad)
        values[k] = -np.exp(delta * t) * g0.values
        lap = fd_laplacian(GridFn(grid, values[k])).values
        dt_vals[k] = _field_slice(f, t, grid, grid.d) - lap + delta * values[k]
    return SpaceTimeFn(grid=grid, times=times, values=values, dt_values=dt_vals)
