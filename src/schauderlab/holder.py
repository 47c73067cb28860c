"""Grid-sampled functions, finite differences, and Holder-norm estimation.

Holder seminorms are estimated over a structured pair set: every grid node
is an anchor, partners sit at power-of-two node shifts along coordinate and
diagonal directions, capped at pair distance ``max_dist`` (default 1).  A
brute-force all-pairs mode exists for small grids and serves as the oracle
for the structured scan.  NaN values mark missing nodes (for example after
an interpolating shift) and are skipped by all scans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, Optional, Tuple

import numpy as np

from .coeffspec import pair_directions
from .errors import NumericalError, SpecError
from .expr import ExprNode, GridField

__all__ = [
    "SpaceGrid", "GridFn", "SpaceTimeFn", "HolderReport", "ConeSpec",
    "fd_gradient", "fd_hessian", "fd_laplacian", "apply_operator",
    "holder_seminorm", "holder_seminorm_stack", "norm_2alpha", "alpha_norm",
    "check_interpolation", "cone_directions", "cone_matrix_bound",
    "cone_entry_bounds", "embedding_check", "EmbeddingRow", "fd_derivatives",
]

_MAX_FIELDS = 32  # expression evaluators a SpaceGrid keeps


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform box grid on [-radius, radius]^d with n points per axis."""

    d: int
    radius: float
    n: int

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise SpecError(f"dimension must be 1, 2, or 3, got {self.d}")
        if self.n < 5:
            raise SpecError(f"need n >= 5 grid points per axis, got {self.n}")
        if self.radius <= 0:
            raise SpecError("radius must be positive")

    @property
    def h(self):
        return 2.0 * self.radius / (self.n - 1)

    @property
    def shape(self):
        return (self.n,) * self.d

    def axis(self):
        return np.linspace(-self.radius, self.radius, self.n)

    @cached_property
    def _mesh(self):
        mesh = np.meshgrid(*([self.axis()] * self.d), indexing="ij")
        for m in mesh:
            m.flags.writeable = False
        return mesh

    @cached_property
    def _fields(self):
        return {}

    def mesh(self):
        """Coordinate arrays x1..xd, each of shape ``self.shape``; built once
        per grid and read-only."""
        return self._mesh

    def field(self, node, t):
        """Expression ``node`` at time ``t`` on every grid node: a new array
        of shape ``self.shape`` equal to ``evaluate(node, t, self.mesh())``
        broadcast to it, with the same errors.  The grid keeps the
        evaluators (GridField) of up to _MAX_FIELDS expressions."""
        fields = self._fields
        fn = fields.get(node)
        if fn is None:
            if len(fields) >= _MAX_FIELDS:
                fields.clear()
            fn = fields[node] = GridField(node, self)
        return fn(t)

    def nearest_index(self, point):
        pt = np.atleast_1d(np.asarray(point, dtype=float))
        idx = np.clip(np.rint((pt + self.radius) / self.h), 0, self.n - 1)
        return tuple(int(i) for i in idx)


@dataclass
class GridFn:
    """Function sampled on a SpaceGrid. NaN entries mark missing nodes."""

    grid: SpaceGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise SpecError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}")
        if np.any(np.isinf(self.values)):
            raise SpecError("grid function contains infinities")

    @staticmethod
    def from_callable(grid, fn):
        mesh = grid.mesh()
        return GridFn(grid, np.asarray(fn(*mesh), dtype=float)
                      * np.ones(grid.shape))

    def sup(self):
        return float(np.nanmax(np.abs(self.values))) if self.values.size else 0.0

    def copy(self):
        return GridFn(self.grid, self.values.copy())

    def interior(self, margin):
        """Restriction to nodes at least ``margin`` nodes from the boundary."""
        sl = (slice(margin, self.grid.n - margin),) * self.grid.d
        sub = self.values[sl]
        radius = self.grid.radius - margin * self.grid.h
        g = SpaceGrid(self.grid.d, radius, self.grid.n - 2 * margin)
        return GridFn(g, sub.copy())


@dataclass
class SpaceTimeFn:
    """Time-sliced grid function, optionally with a stored generalized
    time derivative (one slice of u_t per stored time)."""

    grid: SpaceGrid
    times: np.ndarray
    values: np.ndarray                 # (nt,) + grid.shape
    dt_values: Optional[np.ndarray] = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or np.any(np.diff(self.times) <= 0):
            raise SpecError("times must be strictly increasing")
        if self.values.shape != (len(self.times),) + self.grid.shape:
            raise SpecError("values shape does not match times x grid")
        if self.dt_values is not None:
            self.dt_values = np.asarray(self.dt_values, dtype=float)
            if self.dt_values.shape != self.values.shape:
                raise SpecError("dt_values shape does not match values")

    @property
    def has_dt(self):
        return self.dt_values is not None

    def slice_fn(self, k):
        return GridFn(self.grid, self.values[k])

    def dt_fn(self, k):
        if self.dt_values is None:
            raise SpecError("no stored time derivative")
        return GridFn(self.grid, self.dt_values[k])

    def nearest_time_index(self, t):
        return int(np.argmin(np.abs(self.times - t)))

    def at(self, t):
        """Slice at time ``t`` as a new array: linear in t between stored
        times, held at the first or last slice outside them."""
        times = self.times
        if t <= times[0]:
            return self.values[0].copy()
        if t >= times[-1]:
            return self.values[-1].copy()
        k = int(np.searchsorted(times, t, side="right")) - 1
        w = (t - times[k]) / (times[k + 1] - times[k])
        return (1.0 - w) * self.values[k] + w * self.values[k + 1]

    def sup(self):
        return float(np.nanmax(np.abs(self.values))) if self.values.size else 0.0


def _field_slice(f, t, grid):
    """Evaluate a time slice of ``f`` on the grid; f may be an expression,
    a callable t -> array, or a SpaceTimeFn (linear interpolation in t)."""
    if isinstance(f, ExprNode):
        vals = grid.field(f, t)
    elif isinstance(f, SpaceTimeFn):
        vals = f.at(t)
    elif callable(f):
        vals = np.asarray(f(t), dtype=float) * np.ones(grid.shape)
    else:
        raise SpecError(f"cannot evaluate data of type {type(f)!r}")
    if not np.all(np.isfinite(vals)):
        raise NumericalError(f"data slice at t = {t} contains non-finite values")
    return vals


# ---------------------------------------------------------------------------
# finite differences

def fd_gradient(fn):
    """First derivatives: central differences inside, second-order one-sided
    at the boundary. Returns one GridFn per axis."""
    h = fn.grid.h
    return tuple(GridFn(fn.grid, np.gradient(fn.values, h, axis=i, edge_order=2))
                 for i in range(fn.grid.d))


def _second_diff(values, h, axis):
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h ** 2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h ** 2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h ** 2
    return np.moveaxis(out, 0, axis)


def fd_hessian(fn, grads=None):
    """Second derivatives as a d x d tuple of GridFns; diagonal entries by
    3-point stencils (one-sided 4-point at the boundary), mixed entries by
    first differences of ``grads``, symmetrized.  ``grads`` is
    fd_gradient(fn); it is taken here when not given and d > 1."""
    d = fn.grid.d
    h = fn.grid.h
    if grads is None and d > 1:
        grads = fd_gradient(fn)
    hess = [[None] * d for _ in range(d)]
    for i in range(d):
        hess[i][i] = GridFn(fn.grid, _second_diff(fn.values, h, i))
        for j in range(i + 1, d):
            m_ij = np.gradient(grads[i].values, h, axis=j, edge_order=2)
            m_ji = np.gradient(grads[j].values, h, axis=i, edge_order=2)
            sym = GridFn(fn.grid, 0.5 * (m_ij + m_ji))
            hess[i][j] = sym
            hess[j][i] = sym
    return tuple(tuple(row) for row in hess)


def fd_derivatives(fn):
    """(fd_gradient(fn), fd_hessian(fn)) from one set of first
    differences."""
    grads = fd_gradient(fn)
    return grads, fd_hessian(fn, grads)


def fd_laplacian(fn):
    d = fn.grid.d
    out = np.zeros_like(fn.values)
    for i in range(d):
        out += _second_diff(fn.values, fn.grid.h, i)
    return GridFn(fn.grid, out)


def apply_operator(fn, a, b=None, c=None):
    """L u = a^ij D_ij u + b^i D_i u - c u as an array, by the stencils of
    fd_hessian and fd_gradient at every node, boundary nodes included.  The
    drift and potential terms are skipped when ``b`` or ``c`` is None.

    ``a[i, j]``, ``b[i]`` and ``c`` are scalars or arrays that broadcast
    against the grid, so coefficient sets stacked on an axis after the
    component axes give one result per set from a single set of stencils.
    """
    grads = fd_gradient(fn) if b is not None else None
    return _operator_sum(fn, grads, fd_hessian(fn, grads), a, b, c)


def _operator_sum(fn, grads, hess, a, b=None, c=None):
    """apply_operator from the caller's fd_derivatives(fn); ``grads`` may
    be None when ``b`` is."""
    d = fn.grid.d
    out = sum(a[i, j] * hess[i][j].values for i in range(d) for j in range(d))
    if b is not None:
        out += sum(b[i] * grads[i].values for i in range(d))
    if c is not None:
        out -= c * fn.values
    return out


# ---------------------------------------------------------------------------
# Holder seminorms

@lru_cache(maxsize=None)
def _integer_directions(d):
    """The pair directions as integer node steps, built once per d and
    kept as read-only arrays."""
    dirs = []
    for u in pair_directions(d):
        scale = np.min(np.abs(u[np.abs(u) > 1e-12]))
        div = np.rint(u / scale).astype(int)
        div.flags.writeable = False
        dirs.append(div)
    return tuple(dirs)


def _shift_counts(kmax):
    ks = []
    k = 1
    while k <= kmax:
        ks.append(k)
        k *= 2
    if kmax >= 1 and kmax not in ks:
        ks.append(kmax)
    return ks


def _pair_scan(stack, grid, alpha, max_dist):
    """Max over the structured pair set of |stack(x)-stack(y)|_2 / |x-y|^alpha.

    ``stack`` has shape (m,) + grid.shape; the difference is measured in the
    Euclidean norm over the m components.  Ties resolve to the value itself;
    NaN entries never win a scan.
    """
    h = grid.h
    best = 0.0
    for div in _integer_directions(grid.d):
        step_len = h * float(np.linalg.norm(div))
        kmax = int(np.floor(max_dist / step_len + 1e-12))
        for k in _shift_counts(kmax):
            src = [slice(None)] * grid.d
            dst = [slice(None)] * grid.d
            for ax, comp in enumerate(div):
                off = int(comp) * k
                if off > 0:
                    src[ax] = slice(0, grid.n - off)
                    dst[ax] = slice(off, grid.n)
                elif off < 0:
                    src[ax] = slice(-off, grid.n)
                    dst[ax] = slice(0, grid.n + off)
            a = stack[(slice(None),) + tuple(src)]
            b = stack[(slice(None),) + tuple(dst)]
            diff = a - b
            mag2 = np.einsum("m...,m...->...", diff, diff)
            if not mag2.size:
                continue
            with np.errstate(invalid="ignore"):
                top = np.nanmax(mag2)
            if np.isnan(top):
                continue
            dist = k * step_len
            q = np.sqrt(top) / dist ** alpha
            if q > best:
                best = q
    return float(best)


def _pair_scan_exact(stack, grid, alpha, max_dist):
    """All pairs with |x - y| <= max_dist; oracle for the structured scan."""
    if grid.n > 64:
        raise SpecError("all-pairs mode is restricted to n <= 64")
    coords = np.stack([m.ravel() for m in grid.mesh()], axis=-1)
    flat = stack.reshape(stack.shape[0], -1).T  # (N, m)
    n_nodes = flat.shape[0]
    best = 0.0
    chunk = max(1, int(2e6 // max(n_nodes, 1)))
    for lo in range(0, n_nodes, chunk):
        hi = min(lo + chunk, n_nodes)
        dx = coords[lo:hi, None, :] - coords[None, :, :]
        dist = np.sqrt(np.sum(dx * dx, axis=-1))
        df = flat[lo:hi, None, :] - flat[None, :, :]
        mag = np.sqrt(np.sum(df * df, axis=-1))
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.where((dist > 1e-14) & (dist <= max_dist + 1e-12),
                         mag / dist ** alpha, 0.0)
        q = np.where(np.isnan(q), 0.0, q)
        top = float(np.max(q)) if q.size else 0.0
        if top > best:
            best = top
    return best


def holder_seminorm(fn, alpha, max_dist=1.0, method="structured"):
    """Estimate the Holder-alpha seminorm of a grid function over pairs with
    |x - y| <= max_dist (0/0 counts as 0)."""
    return holder_seminorm_stack([fn], alpha, max_dist, method)


def holder_seminorm_stack(fns, alpha, max_dist=1.0, method="structured"):
    """Seminorm of a vector- or matrix-valued function given as component
    GridFns; differences are measured in the Euclidean (Frobenius) norm."""
    fns = list(fns)
    if not fns:
        raise SpecError("Holder seminorm needs at least one component")
    if not (0.0 < alpha < 1.0):
        raise SpecError(f"alpha must lie in (0, 1), got {alpha}")
    grid = fns[0].grid
    stack = np.stack([f.values for f in fns])
    if method == "structured":
        return _pair_scan(stack, grid, alpha, max_dist)
    if method == "exact":
        return _pair_scan_exact(stack, grid, alpha, max_dist)
    raise SpecError(f"unknown seminorm method {method!r}")


@dataclass(frozen=True)
class HolderReport:
    """The 2+alpha norm of one grid function and its parts; [u]_alpha,
    which the norm does not contain, is scanned on first access."""

    sup: float
    grad_sup: float
    hess_sup: float
    seminorm_2alpha: float
    norm_2alpha: float
    _scan_alpha: Callable[[], float] = field(repr=False, compare=False)

    @cached_property
    def seminorm_alpha(self):
        return self._scan_alpha()


def _vector_sup(fns):
    sq = np.zeros(fns[0].values.shape)
    for f in fns:
        sq = sq + f.values ** 2
    val = np.sqrt(sq)
    return float(np.nanmax(val)) if val.size else 0.0


def norm_2alpha(fn, alpha, max_dist=1.0, method="structured"):
    """Assemble sup, |Du|, |D^2 u| and [D^2 u]_alpha into the full 2+alpha
    norm report for one grid function; [u]_alpha is scanned only if read."""
    grads, hess = fd_derivatives(fn)
    hess_flat = [e for row in hess for e in row]
    sup = fn.sup()
    grad_sup = _vector_sup(grads)
    hess_sup = _vector_sup(hess_flat)
    sem_2a = holder_seminorm_stack(hess_flat, alpha, max_dist, method)
    return HolderReport(sup=sup, grad_sup=grad_sup, hess_sup=hess_sup,
                        seminorm_2alpha=sem_2a,
                        norm_2alpha=sup + grad_sup + hess_sup + sem_2a,
                        _scan_alpha=partial(holder_seminorm, fn, alpha,
                                            max_dist, method))


def alpha_norm(fn, alpha, max_dist=1.0):
    """sup + Holder seminorm (the C^alpha norm of a slice)."""
    return fn.sup() + holder_seminorm(fn, alpha, max_dist)


def check_interpolation(fns, alpha, eps_list):
    """For each eps, the least N such that every member v of the family
    satisfies |v|_2 <= N |v|_0 + eps [v]_{2+alpha}; rows (eps, N, finite)."""
    if any(e <= 0 for e in eps_list):
        raise SpecError("interpolation epsilons must be positive")
    stats = []
    for v in fns:
        rep = norm_2alpha(v, alpha)
        norm2 = rep.sup + rep.grad_sup + rep.hess_sup
        stats.append((rep.sup, norm2, rep.seminorm_2alpha))
    rows = []
    for eps in eps_list:
        need = 0.0
        finite = True
        for sup, norm2, sem in stats:
            lhs = norm2 - eps * sem
            if lhs <= 0.0:
                continue
            if sup == 0.0:
                finite = False
                continue
            need = max(need, lhs / sup)
        rows.append((float(eps), float(need), finite))
    return rows


# ---------------------------------------------------------------------------
# cone lemma

@dataclass(frozen=True)
class ConeSpec:
    """Convex closed round cone with vertex at the origin; every unit ball
    inside it has center at distance >= gamma, so the half angle is
    arcsin(1/gamma)."""

    axis: Tuple[float, ...]
    gamma: float
    h: float

    def __post_init__(self):
        v = np.asarray(self.axis, dtype=float)
        if not np.isfinite(self.gamma) or self.gamma < 1.0:
            raise SpecError("cone parameter gamma must satisfy gamma >= 1")
        if self.h <= 0:
            raise SpecError("cone truncation height must be positive")
        nrm = np.linalg.norm(v)
        if nrm < 1e-14:
            raise SpecError("cone axis must be a nonzero vector")
        if abs(nrm - 1.0) > 1e-9:
            raise SpecError("cone axis must be a unit vector")

    @property
    def half_angle(self):
        return float(np.arcsin(1.0 / self.gamma))


def _frame(axis):
    d = len(axis)
    a = np.asarray(axis, dtype=float)
    basis = [a]
    for e in np.eye(d):
        w = e - sum(np.dot(e, b) * b for b in basis)
        nw = np.linalg.norm(w)
        if nw > 1e-9:
            basis.append(w / nw)
    return np.stack(basis)  # rows: axis, then an orthonormal complement


def cone_directions(cone, n_dirs, d):
    """Deterministic unit vectors inside the cone."""
    theta = cone.half_angle
    frame = _frame(cone.axis)
    if d == 1:
        return [np.asarray(cone.axis, dtype=float)]
    if d == 2:
        angles = np.linspace(-theta, theta, max(n_dirs, 2))
        return [np.cos(p) * frame[0] + np.sin(p) * frame[1] for p in angles]
    dirs = []
    golden = np.pi * (3.0 - np.sqrt(5.0))
    n = max(n_dirs, 3)
    for k in range(n):
        c = 1.0 - (1.0 - np.cos(theta)) * (k + 0.5) / n  # cos of polar angle
        s = np.sqrt(max(0.0, 1.0 - c * c))
        phi = k * golden
        dirs.append(c * frame[0]
                    + s * np.cos(phi) * frame[1]
                    + s * np.sin(phi) * frame[2])
    return dirs


def cone_matrix_bound(m, cone, n_dirs):
    """max over sampled unit xi in the cone of |xi^T M xi|."""
    m = np.asarray(m, dtype=float)
    if not np.allclose(m, m.T, atol=1e-12):
        raise SpecError("matrix must be symmetric")
    d = m.shape[0]
    best = 0.0
    for xi in cone_directions(cone, n_dirs, d):
        q = abs(float(xi @ m @ xi))
        if q > best:
            best = q
    return best


def cone_entry_bounds(m, cone, n_dirs):
    """Recover the matrix entries from quadratic forms along cone directions
    by least squares (polarization), and the factor N(gamma, d) with
    |M^ij| <= N * max_{xi in cone} |xi^T M xi|.

    Returns (recovered matrix, N, entrywise bound).
    """
    m = np.asarray(m, dtype=float)
    d = m.shape[0]
    dirs = cone_directions(cone, max(n_dirs, d * (d + 1)), d)
    idx = [(i, j) for i in range(d) for j in range(i, d)]
    rows = []
    for xi in dirs:
        rows.append([xi[i] * xi[j] * (1.0 if i == j else 2.0) for i, j in idx])
    phi = np.asarray(rows)
    if np.linalg.matrix_rank(phi) < len(idx):
        raise SpecError("cone too degenerate to resolve matrix entries; "
                        "increase n_dirs or widen the cone")
    pinv = np.linalg.pinv(phi)
    q = np.array([xi @ m @ xi for xi in dirs])
    entries = pinv @ q
    rec = np.zeros((d, d))
    for (i, j), v in zip(idx, entries):
        rec[i, j] = v
        rec[j, i] = v
    n_factor = float(np.max(np.sum(np.abs(pinv), axis=1)))
    bound = n_factor * cone_matrix_bound(m, cone, len(dirs))
    return rec, n_factor, bound


# ---------------------------------------------------------------------------
# time-Holder embedding check

@dataclass(frozen=True)
class EmbeddingRow:
    h_requested: float
    h_used: float
    r1: float
    r2: float
    I_h: float


def _ratio(num, ih, power, h):
    if num == 0.0 and ih == 0.0:
        return 0.0
    if ih == 0.0:
        return np.inf
    return num / (ih * h ** power)


def embedding_check(u, alpha, anchor, h_list, max_dist=1.0):
    """Parabolic time-regularity ratios at a space-time anchor.

    For each h the pair of times (t - h^2, t) is snapped to stored slices,
    and the check reports

        r2 = |D^2 u(t, x) - D^2 u(t - h^2, x)| / (I_h h^alpha)
        r1 = |D u(t, x) - D u(t - h^2, x)| / (I_h h^(1+alpha))

    with I_h the max over stored slices r in [t - h^2, t] of
    [u_t(r, .)]_alpha + [D^2 u(r, .)]_alpha.  Ratios with zero numerator and
    zero I_h count as 0.
    """
    if not u.has_dt:
        raise SpecError("embedding check needs the stored time derivative")
    t_anchor, x_anchor = anchor
    kt = u.nearest_time_index(t_anchor)
    t0 = float(u.times[kt])
    node = u.grid.nearest_index(x_anchor)

    d = u.grid.d
    cache = {}

    def derivs(k):
        """Du, D^2 u and [u_t]_alpha + [D^2 u]_alpha of slice k."""
        if k not in cache:
            grads, hess = fd_derivatives(u.slice_fn(k))
            flat = [e for row in hess for e in row]
            cache[k] = (grads, hess,
                        holder_seminorm(u.dt_fn(k), alpha, max_dist)
                        + holder_seminorm_stack(flat, alpha, max_dist))
        return cache[k]

    rows = []
    for h in h_list:
        target = t0 - h * h
        if target < u.times[0] - 1e-12:
            raise SpecError(f"t - h^2 = {target} below the stored time range")
        ks = u.nearest_time_index(target)
        h_used = float(np.sqrt(max(t0 - u.times[ks], 0.0)))
        if h_used == 0.0:
            rows.append(EmbeddingRow(h, h_used, 0.0, 0.0, 0.0))
            continue
        g1, hs1, _ = derivs(kt)
        g0, hs0, _ = derivs(ks)
        dgrad = np.sqrt(sum((g1[i].values[node] - g0[i].values[node]) ** 2
                            for i in range(d)))
        dhess = np.sqrt(sum((hs1[i][j].values[node] - hs0[i][j].values[node]) ** 2
                            for i in range(d) for j in range(d)))
        in_window = [k for k in range(len(u.times))
                     if u.times[ks] - 1e-12 <= u.times[k] <= t0 + 1e-12]
        ih = max(derivs(k)[2] for k in in_window)
        rows.append(EmbeddingRow(
            h_requested=float(h), h_used=h_used,
            r1=float(_ratio(dgrad, ih, 1.0 + alpha, h_used)),
            r2=float(_ratio(dhess, ih, alpha, h_used)),
            I_h=float(ih)))
    return rows
