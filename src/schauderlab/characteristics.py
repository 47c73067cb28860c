"""Localization toolkit: the drift flow, coefficients frozen along it, the
particular solution of the frozen zero-order equation, gauge transforms, and
the moving cutoff."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SpecError
from .expr import evaluate
from .holder import GridFn, SpaceTimeFn, fd_gradient

__all__ = [
    "FlowPath", "FrozenOperator", "flow", "freeze", "particular_u0",
    "gauge_translate", "gauge_exp", "cutoff_eta", "smoothstep_bump",
    "smoothstep_bump_gradient",
]


@dataclass
class FlowPath:
    """Integral curve of x' = b(t, x) through (t0, x0), stored on an
    ascending time lattice together with the drift along it."""

    t0: float
    x0: np.ndarray
    times: np.ndarray       # ascending
    points: np.ndarray      # (nt, d)
    velocities: np.ndarray  # (nt, d), b(t, x(t))
    stats: dict

    def interp(self, t):
        """x(t) by linear interpolation; t scalar or array."""
        t = np.asarray(t, dtype=float)
        out = np.stack([np.interp(t, self.times, self.points[:, i])
                        for i in range(self.points.shape[1])], axis=-1)
        return out

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.interp(t, self.times, self.velocities[:, i])
                         for i in range(self.velocities.shape[1])], axis=-1)


def _eval_b(spec, t, x):
    return np.array([float(evaluate(bi, t, list(np.atleast_1d(x))))
                     for bi in spec.b])


def flow(spec, t0, x0, t1, step, cap=1e8):
    """Integrate x' = b(t, x) from t0 to t1 (either direction) with the
    classical 4th-order one-step method, splitting steps at coefficient
    breakpoints.  Aborts with a diagnostic if |x| exceeds ``cap``."""
    if step <= 0:
        raise SpecError("step must be positive")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if t1 == t0:
        v = _eval_b(spec, t0, x0)
        return FlowPath(t0, x0, np.array([t0]), x0[None].copy(), v[None],
                        {"n_steps": 0, "max_drift": float(np.linalg.norm(v))})
    sign = 1.0 if t1 > t0 else -1.0
    lo, hi = min(t0, t1), max(t0, t1)
    cuts = [lo] + [b for b in spec.t_breakpoints if lo < b < hi] + [hi]
    edges = []
    seg_of = {}
    for a0, a1 in zip(cuts[:-1], cuts[1:]):
        n = max(1, int(np.ceil((a1 - a0) / step - 1e-12)))
        for e in a0 + (a1 - a0) * np.arange(n) / n:
            edges.append(e)
            seg_of[e] = (a0, a1)
    edges.append(hi)
    seg_of[hi] = (cuts[-2], hi)
    edges = np.array(edges)
    if sign < 0:
        edges = edges[::-1]

    ts = [edges[0]]
    xs = [x0.copy()]
    vs = [_eval_b(spec, edges[0], x0)]
    x = x0.copy()
    max_drift = float(np.linalg.norm(vs[0]))
    for ta, tb in zip(edges[:-1], edges[1:]):
        dt = tb - ta
        seg = seg_of.get(ta if sign > 0 else tb, (lo, hi))
        # stage times stay strictly inside the breakpoint segment so that a
        # step discontinuity never leaks across its edge
        nudge = 1e-9 * (seg[1] - seg[0])

        def at(t):
            return min(max(t, seg[0] + nudge), seg[1] - nudge)

        k1 = _eval_b(spec, at(ta), x)
        k2 = _eval_b(spec, at(ta + dt / 2), x + dt / 2 * k1)
        k3 = _eval_b(spec, at(ta + dt / 2), x + dt / 2 * k2)
        k4 = _eval_b(spec, at(tb), x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > cap:
            raise NumericalError(
                f"characteristic through ({t0}, {x0}) exceeded |x| = {cap} "
                f"near t = {tb}; drift grows too fast for this window")
        v = _eval_b(spec, tb, x)
        max_drift = max(max_drift, float(np.linalg.norm(v)))
        ts.append(tb)
        xs.append(x.copy())
        vs.append(v)

    ts = np.array(ts)
    xs = np.array(xs)
    vs = np.array(vs)
    if sign < 0:
        ts, xs, vs = ts[::-1], xs[::-1], vs[::-1]
    return FlowPath(t0=t0, x0=x0, times=ts, points=xs, velocities=vs,
                    stats={"n_steps": len(ts) - 1, "max_drift": max_drift})


@dataclass
class FrozenOperator:
    """Time-only coefficients a0, b0, c0, f0 obtained by evaluating the
    operator's fields along a drift characteristic."""

    spec: "object"
    path: FlowPath

    def _xs(self, t):
        pts = self.path.interp(t)
        return [pts[..., i] for i in range(self.spec.d)]

    def a0(self, t):
        return self.spec.eval_a(t, self._xs(t))

    def b0(self, t):
        return self.spec.eval_b(t, self._xs(t))

    def c0(self, t):
        return self.spec.eval_c(t, self._xs(t))

    def f0(self, t):
        return self.spec.eval_f(t, self._xs(t))

    def deviation_report(self, eps, bigK, F_alpha, n_times=16, n_offsets=32,
                         rng_seed=0):
        """Frozen-coefficient deviations over the tube |x - x(t)| <= 2 eps,
        each compared with its structural bound 2^alpha K eps^alpha (times d
        for the drift vector, with F_alpha in place of K for the data)."""
        alpha = self.spec.alpha
        d = self.spec.d
        lo, hi = self.path.times[0], self.path.times[-1]
        ts = np.linspace(lo, hi, n_times)
        rng = np.random.default_rng(rng_seed)
        dirs = rng.normal(size=(n_offsets, d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = 2.0 * eps * rng.uniform(0.0, 1.0, size=n_offsets) ** (1.0 / d)
        worst = {"a": 0.0, "b": 0.0, "c": 0.0, "f": 0.0}
        for t in ts:
            xc = self.path.interp(t)
            pts = xc[None, :] + radii[:, None] * dirs
            xs = [pts[:, i] for i in range(d)]
            a_dev = np.abs(self.spec.eval_a(t, xs) - self.a0(t)[..., None])
            b_dev = np.abs(self.spec.eval_b(t, xs) - self.b0(t)[..., None])
            c_dev = np.abs(self.spec.eval_c(t, xs) - self.c0(t))
            f_dev = np.abs(self.spec.eval_f(t, xs) - self.f0(t))
            worst["a"] = max(worst["a"], float(np.max(a_dev)))
            worst["b"] = max(worst["b"], float(np.max(np.linalg.norm(b_dev, axis=0))))
            worst["c"] = max(worst["c"], float(np.max(c_dev)))
            worst["f"] = max(worst["f"], float(np.max(f_dev)))
        scale = 2.0 ** alpha * eps ** alpha
        bounds = {"a": bigK * scale, "b": bigK * scale * d,
                  "c": bigK * scale, "f": F_alpha * scale}
        ok = all(worst[k] <= bounds[k] + 1e-12 for k in worst)
        return {"deviation": worst, "bound": bounds, "ok": ok}


def freeze(spec, path):
    return FrozenOperator(spec=spec, path=path)


def particular_u0(frozen, t, tol, delta, f0_sup=None, n_per_unit=None,
                  horizon_cap=None):
    """u0(t) = -integral over s > t of f0(s) exp(-integral of c0 over (t,s)),
    truncated at the horizon Delta = log(F0/tol)/delta so the dropped tail
    is at most tol; the midpoint cell count scales with tol so quadrature
    error stays below it too.  Requires c0 >= delta > 0 along the range.
    ``horizon_cap`` ends the integral early where the data are known to
    vanish (final-value problems have f = 0 past the final time).

    The cumulative exponent uses the same midpoint cells as the outer sum,
    which keeps the computed value within the bound |u0| <= F0 exactly.
    """
    if delta <= 0:
        raise SpecError("particular_u0 needs a positive lower bound delta")
    end = np.inf if horizon_cap is None else float(horizon_cap)
    if end <= t:
        return 0.0
    if f0_sup is None:
        reach = min(10.0 / delta, end - t)
        probe = t + np.linspace(0.0, reach, 128)
        f0_sup = float(np.max(np.abs(frozen.f0(probe))))
    if f0_sup <= tol:
        return 0.0
    if n_per_unit is None:
        n_per_unit = max(256, int(np.ceil(np.sqrt(1.0 / (12.0 * tol)))))
    horizon = min(np.log(f0_sup / tol) / delta, end - t)
    spec = frozen.spec
    cuts = [t] + [b for b in spec.t_breakpoints if t < b < t + horizon] + [t + horizon]
    mids, widths = [], []
    for a0, a1 in zip(cuts[:-1], cuts[1:]):
        n = max(1, int(np.ceil((a1 - a0) * n_per_unit)))
        mids.append(a0 + (np.arange(n) + 0.5) * (a1 - a0) / n)
        widths.append(np.full(n, (a1 - a0) / n))
    mids = np.concatenate(mids)
    widths = np.concatenate(widths)
    c_vals = np.asarray(frozen.c0(mids))
    if np.any(c_vals < delta - 1e-9):
        raise NumericalError("frozen potential drops below delta along the path")
    f_vals = np.asarray(frozen.f0(mids))
    c_edges = np.concatenate([[0.0], np.cumsum(c_vals * widths)])
    c_mid = c_edges[:-1] + 0.5 * c_vals * widths
    return float(-np.sum(f_vals * np.exp(-c_mid) * widths))


# ---------------------------------------------------------------------------
# gauge transforms

def _drift_profile(b0, d):
    """Normalize b0 into (is_constant, vector_or_callable)."""
    if callable(b0):
        return False, lambda t: np.atleast_1d(np.asarray(b0(t), dtype=float))
    arr = np.atleast_1d(np.asarray(b0, dtype=float))
    if arr.shape != (d,):
        raise SpecError(f"constant drift must have shape ({d},)")
    return True, arr


def _cumulative(values_at, times, n_per_unit=512):
    """Integrals over (0, t) for every t in ``times`` by composite midpoint,
    sign-aware.  The knots are the sorted {0} U times; each gap between
    them gets ceil(length * n_per_unit) cells, ``values_at`` maps all the
    midpoints at once to values of shape (n,) or (n, d), and the gap
    integrals are summed outwards from 0."""
    times = np.asarray(times, dtype=float)
    knots = np.unique(np.append(times, 0.0))
    lengths = np.diff(knots)
    counts = np.ceil(lengths * n_per_unit).astype(int)
    starts = np.cumsum(counts) - counts
    gap = np.repeat(np.arange(len(counts)), counts)
    widths = lengths / counts
    mids = knots[gap] + (np.arange(gap.size) - starts[gap] + 0.5) * widths[gap]
    vals = np.asarray(values_at(mids), dtype=float)
    incr = np.add.reduceat(vals, starts, axis=0) \
        * widths.reshape((-1,) + (1,) * (vals.ndim - 1))
    k0 = int(np.searchsorted(knots, 0.0))
    cum = np.zeros((len(knots),) + vals.shape[1:])
    cum[k0 + 1:] = np.cumsum(incr[k0:], axis=0)
    cum[:k0] = -np.cumsum(incr[:k0][::-1], axis=0)[::-1]
    return cum[np.searchsorted(knots, times)]


def _shift_slice(values, shift_nodes, grid):
    """values(x + shift) by linear interpolation one axis at a time; a node
    whose source position leaves [0, n - 1] on some axis becomes NaN.  When
    every shift is within 1e-9 of a whole node they are all rounded, so the
    step re-indexes bitwise."""
    shift = np.asarray(shift_nodes, dtype=float)
    if np.all(np.abs(shift - np.rint(shift)) < 1e-9):
        shift = np.rint(shift)
    n = grid.n
    out = values
    for ax in range(grid.d):
        pos = np.arange(n) + shift[ax]
        lo = np.clip(np.floor(pos), 0, n - 1).astype(int)
        col = (n,) + (1,) * (grid.d - 1 - ax)  # broadcasts along axis ax
        w = (pos - lo).reshape(col)
        a = np.take(out, lo, axis=ax)
        b = np.take(out, np.minimum(lo + 1, n - 1), axis=ax)
        inside = ((pos >= 0) & (pos <= n - 1)).reshape(col)
        out = np.where(inside, np.where(w == 0.0, a, (1.0 - w) * a + w * b),
                       np.nan)
    return out


def gauge_translate(u, b0, n_per_unit=512):
    """v(t, x) = u(t, x + B(t)) with B(t) the cumulative drift from 0.

    Grid-aligned shifts re-index bitwise; others interpolate linearly one
    axis at a time, and nodes whose shifted position leaves the box are
    marked missing (NaN).  A callable b0 is integrated once for all slices.
    The stored derivative transforms as v_t = (u_t + b0 . Du)(t, x + B(t)).
    """
    d = u.grid.d
    is_const, prof = _drift_profile(b0, d)
    times = np.asarray(u.times, dtype=float)
    if is_const:
        shifts = prof * times[:, None]
    else:
        shifts = _cumulative(
            lambda mids: np.reshape([prof(float(m)) for m in mids], (-1, d)),
            times, n_per_unit)
    values = np.empty_like(u.values)
    dt_vals = np.empty_like(u.values) if u.has_dt else None
    for k, t in enumerate(times):
        shift_nodes = shifts[k] / u.grid.h
        values[k] = _shift_slice(u.values[k], shift_nodes, u.grid)
        if dt_vals is not None:
            b_here = prof if is_const else prof(float(t))
            slice_fn = GridFn(u.grid, u.values[k])
            grads = fd_gradient(slice_fn)
            w = u.dt_values[k] + sum(b_here[i] * grads[i].values for i in range(d))
            dt_vals[k] = _shift_slice(w, shift_nodes, u.grid)
    return SpaceTimeFn(grid=u.grid, times=u.times.copy(), values=values,
                       dt_values=dt_vals)


def gauge_exp(u, c0, n_per_unit=512):
    """v(t, .) = exp(-C(t)) u(t, .) with C(t) the cumulative potential from 0;
    requires c0 >= 0.  The stored derivative becomes exp(-C)(u_t - c0 u)."""
    if callable(c0):
        c_at = lambda t: float(np.asarray(c0(t), dtype=float))
        c_arr = lambda ts: np.asarray(c0(ts), dtype=float)
    else:
        c_val = float(c0)
        c_at = lambda t: c_val
        c_arr = lambda ts: np.full(np.asarray(ts).shape, c_val)
    probe = c_arr(np.asarray(u.times))
    if np.any(np.asarray(probe) < -1e-12):
        raise SpecError("exponential gauge needs a nonnegative potential")
    values = np.empty_like(u.values)
    dt_vals = np.empty_like(u.values) if u.has_dt else None
    times = np.asarray(u.times, dtype=float)
    big_c = (_cumulative(c_arr, times, n_per_unit) if callable(c0)
             else c_val * times)
    for k, t in enumerate(times):
        scale = np.exp(-big_c[k])
        values[k] = scale * u.values[k]
        if dt_vals is not None:
            dt_vals[k] = scale * (u.dt_values[k] - c_at(float(t)) * u.values[k])
    return SpaceTimeFn(grid=u.grid, times=u.times.copy(), values=values,
                       dt_values=dt_vals)


# ---------------------------------------------------------------------------
# moving cutoff

def smoothstep_bump(r, eps):
    """Radial bump of class C^2: 1 on r <= eps, 0 on r >= 2 eps, quintic
    smoothstep transition in between."""
    r = np.asarray(r, dtype=float)
    s = np.clip((r - eps) / eps, 0.0, 1.0)
    return 1.0 - s ** 3 * (10.0 - 15.0 * s + 6.0 * s ** 2)


def smoothstep_bump_gradient(y, eps):
    """Gradient of smoothstep_bump(|y|, eps) with respect to y."""
    y = np.asarray(y, dtype=float)
    r = np.sqrt(np.sum(y ** 2, axis=-1))
    s = np.clip((r - eps) / eps, 0.0, 1.0)
    dzeta = -30.0 * s ** 2 * (s - 1.0) ** 2 / eps
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(r[..., None] > 0.0, y / np.maximum(r, 1e-300)[..., None], 0.0)
    return dzeta[..., None] * unit


def cutoff_eta(center_path, eps, grid, times=None):
    """eta(t, x) = zeta(x - x(t)) with zeta the C^2 radial bump; the stored
    derivative is the transport value -grad(zeta) . x'(t), so
    eta_t + b0 . D eta = 0 holds along the frozen drift."""
    if not (0.0 < eps < 0.5):
        raise SpecError("cutoff radius must satisfy 0 < eps < 1/2")
    if 2.0 * eps > grid.radius:
        raise SpecError("cutoff support 2 eps exceeds the box radius")
    if times is None:
        times = center_path.times
    times = np.asarray(times, dtype=float)
    mesh = np.stack(grid.mesh(), axis=-1)
    values = np.empty((len(times),) + grid.shape)
    dt_vals = np.empty_like(values)
    for k, t in enumerate(times):
        y = mesh - center_path.interp(t)
        r = np.sqrt(np.sum(y ** 2, axis=-1))
        values[k] = smoothstep_bump(r, eps)
        grad = smoothstep_bump_gradient(y, eps)
        vel = center_path.velocity(t)
        dt_vals[k] = -np.einsum("...i,i->...", grad, vel)
    return SpaceTimeFn(grid=grid, times=times, values=values, dt_values=dt_vals)
