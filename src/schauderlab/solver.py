"""Backward-in-time solvers for u_t + L u = f with a final condition.

The spatial operator is discretized with second-order centered stencils;
the drift term upwinds where the cell Peclet number |b| h / (2 a_ii)
exceeds one, blending back to centered elsewhere.  Time stepping is a
theta-scheme (Crank-Nicolson by default) with coefficients sampled at the
scheme time, and step edges inserted at every coefficient breakpoint.

Each step solves (I - theta dt L) x = rhs directly, with one sparse LU
factorization of the step matrix.  When a, b and c do not depend on t the
operator and its factorization are built once per step length and reused
for the whole march, whatever the data f do; otherwise each step assembles
and factors its own matrix.  The relative residual ||A x - rhs|| / ||rhs||
of every solve is checked against the problem's ``lin_tol``.

The truncated box needs an artificial lateral boundary condition; the mode
"dirichlet-final" evolves each boundary node by the zero-order equation
u_t - c u = f seeded with the final value, which both reduces to the exact
dynamics for spatially constant data and stays within rounding of the held
value whenever the data vanish near the boundary.  "dirichlet-zero" pins
boundary nodes to zero instead.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coeffspec import OperatorSpec, check_hypotheses
from .errors import NumericalError, SpecError
from .expr import Binary, Call, Num, Var, clamp
# evaluate is not called here, but perfbench's tracer self-test patches
# it under this name
from .expr import evaluate  # noqa: F401
from .holder import (GridFn, SpaceGrid, SpaceTimeFn, _field_slice,
                     alpha_norm_slices, apply_operator, fd_laplacian,
                     norm_2alpha_slices)
from .kernel import heat_solve

__all__ = [
    "CauchyProblem", "SolveResult", "truncate_coeffs", "solve_cauchy",
    "extend_final_condition", "solve_degenerate_c", "continuation_solve",
    "solve_elliptic", "EllipticResult", "semigroup_T", "time_grid",
    "build_operator_matrix", "eval_coefficients",
]

BOUNDARY_MODES = ("dirichlet-final", "dirichlet-zero")


@dataclass
class CauchyProblem:
    """Final-value problem u_t + L u = f on [T, S] x box, u(S, .) = g."""

    spec: OperatorSpec
    g: GridFn
    grid: SpaceGrid
    n_time: int
    n_trunc: int = 0
    boundary_mode: str = "dirichlet-final"
    theta: float = 0.5
    blend_override: Optional[float] = None
    lin_tol: float = 1e-10
    strict: bool = False

    def __post_init__(self):
        if self.n_time < 2:
            raise SpecError("need at least 2 time steps")
        if self.g.grid != self.grid:
            raise SpecError("final condition lives on a different grid")
        if self.boundary_mode not in BOUNDARY_MODES:
            raise SpecError(f"unknown boundary mode {self.boundary_mode!r}")
        if not np.all(np.isfinite(self.g.values)):
            raise SpecError("final condition must be finite")
        if self.n_trunc < 0:
            raise SpecError("truncation level must be nonnegative")


@dataclass
class SolveResult:
    u: SpaceTimeFn
    residual_report: dict
    boundary_influence: float
    iterations: dict
    diagnostics: dict = field(default_factory=dict)


def truncate_coeffs(spec, n):
    """Clamp b, c, f componentwise to [-n, n] via min/max nodes; a is left
    alone.  The clamp is 1-Lipschitz, so K and F_alpha never increase; the
    ratio bound F0 is preserved when F0 >= 1 and otherwise can only rise to
    min(F0 c, n) / min(c, n) <= 1."""
    if n < 1:
        raise SpecError("truncation level must be at least 1")
    return spec.with_fields(
        b=tuple(clamp(bi, -float(n), float(n)) for bi in spec.b),
        c=clamp(spec.c, -float(n), float(n)),
        f=clamp(spec.f, -float(n), float(n)),
    )


def time_grid(window, n_time, breakpoints=()):
    T, S = window
    base = np.linspace(T, S, n_time + 1)
    extra = [b for b in breakpoints if T < b < S]
    ts = np.union1d(base, extra)
    keep = [ts[0]]
    for t in ts[1:]:
        if t - keep[-1] > 1e-12 * max(1.0, abs(S - T)):
            keep.append(t)
    keep[-1] = S
    return np.asarray(keep)


def eval_coefficients(spec, grid, t):
    """Coefficient arrays on the grid at time t: a (d,d,shape), b (d,shape),
    c (shape)."""
    a = np.array([[grid.field(spec.a[i][j], t) for j in range(spec.d)]
                  for i in range(spec.d)])
    b = np.array([grid.field(bi, t) for bi in spec.b])
    c = grid.field(spec.c, t)
    return {"a": a, "b": b, "c": c}


def _heat_coefficients(grid, delta):
    """Coefficient arrays of Lap - delta: identity diffusion, no drift and
    the constant potential delta."""
    d = grid.d
    eye = np.array([[np.ones(grid.shape) if i == j else np.zeros(grid.shape)
                     for j in range(d)] for i in range(d)])
    return {"a": eye, "b": np.zeros((d,) + grid.shape),
            "c": np.full(grid.shape, delta)}


def _stack_coefficients(first, second):
    """Two coefficient dicts stacked on one axis, so that one apply_operator
    call applies both operators from a single set of stencils."""
    return (np.stack([first["a"], second["a"]], axis=2),
            np.stack([first["b"], second["b"]], axis=1),
            np.stack([first["c"], second["c"]]))


def _strides(shape):
    d = len(shape)
    out = [1] * d
    for ax in range(d - 2, -1, -1):
        out[ax] = out[ax + 1] * shape[ax + 1]
    return out


def _interior_mask(grid):
    """True at nodes off the box boundary."""
    interior = np.ones(grid.shape, dtype=bool)
    for ax in range(grid.d):
        sl = [slice(None)] * grid.d
        sl[ax] = 0
        interior[tuple(sl)] = False
        sl[ax] = grid.n - 1
        interior[tuple(sl)] = False
    return interior


def build_operator_matrix(coeffs, grid, boundary_mode="dirichlet-final",
                          blend_override=None):
    """Sparse matrix of L u = a^ij D_ij u + b^i D_i u - c u on the flattened
    grid.  Interior rows use the blended scheme; boundary rows carry only
    the zero-order part (-c) in "dirichlet-final" mode and are zero in
    "dirichlet-zero" mode."""
    d = grid.d
    h = grid.h
    shape = grid.shape
    size = int(np.prod(shape))
    strides = _strides(shape)
    a, b, c = coeffs["a"], coeffs["b"], coeffs["c"]

    idx = np.arange(size).reshape(shape)
    interior = _interior_mask(grid)
    int_flat = idx[interior]

    rows, cols, vals = [], [], []

    def add(r, cc, v):
        rows.append(r)
        cols.append(cc)
        vals.append(v)

    c_int = c[interior]
    add(int_flat, int_flat, -c_int)

    for ax in range(d):
        s_ax = strides[ax]
        a_ii = a[ax, ax][interior]
        add(int_flat, int_flat + s_ax, a_ii / h ** 2)
        add(int_flat, int_flat - s_ax, a_ii / h ** 2)
        add(int_flat, int_flat, -2.0 * a_ii / h ** 2)

        b_i = b[ax][interior]
        if blend_override is None:
            with np.errstate(divide="ignore", invalid="ignore"):
                pe = np.abs(b_i) * h / (2.0 * np.maximum(a_ii, 1e-300))
            omega = np.where(pe > 1.0, 1.0 - 1.0 / np.maximum(pe, 1.0), 0.0)
        else:
            omega = np.full(b_i.shape, float(blend_override))
        cen = (1.0 - omega) * b_i / (2.0 * h)
        add(int_flat, int_flat + s_ax, cen)
        add(int_flat, int_flat - s_ax, -cen)
        b_pos = omega * np.maximum(b_i, 0.0) / h
        b_neg = omega * np.minimum(b_i, 0.0) / h
        add(int_flat, int_flat + s_ax, b_pos)
        add(int_flat, int_flat, -b_pos)
        add(int_flat, int_flat, b_neg)
        add(int_flat, int_flat - s_ax, -b_neg)

        for ax2 in range(ax + 1, d):
            s2 = strides[ax2]
            a_ij = a[ax, ax2][interior]
            w = 2.0 * a_ij / (4.0 * h ** 2)
            add(int_flat, int_flat + s_ax + s2, w)
            add(int_flat, int_flat - s_ax - s2, w)
            add(int_flat, int_flat + s_ax - s2, -w)
            add(int_flat, int_flat - s_ax + s2, -w)

    if boundary_mode == "dirichlet-final":
        bnd_flat = idx[~interior]
        add(bnd_flat, bnd_flat, -c[~interior])

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    return mat, ~interior


class _StepSolver:
    """Direct solve of (I - theta dt L) x = rhs: one sparse LU factorization
    of the step matrix, reused for every right-hand side.  Each solve checks
    its relative residual ||A x - rhs|| / ||rhs|| against ``tol``.  The
    stencils give A a sparsity pattern that is symmetric up to the boundary
    rows, so the fill-reducing ordering is a minimum-degree ordering of
    A^T + A; on 2-D grids it halves the fill of the default column
    ordering."""

    def __init__(self, mat, tol):
        self.mat = mat.tocsr()
        self.tol = tol
        try:
            self.lu = spla.splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise NumericalError(f"step matrix factorization failed: {exc}")

    def solve(self, rhs):
        """Returns (x, relative residual)."""
        x = self.lu.solve(rhs)
        r_norm = float(np.linalg.norm(self.mat @ x - rhs))
        b_norm = float(np.linalg.norm(rhs))
        rel = r_norm / b_norm if b_norm > 0.0 else r_norm
        if not rel <= self.tol:
            raise NumericalError(
                f"linear solve reached relative residual {rel:.3e}, above "
                f"lin_tol = {self.tol:.3e}")
        return x, rel


def _boundary_ring_gap(values, grid):
    """Max |u(one node in) - u(adjacent boundary node)| over stored slices."""
    n = grid.n
    d = grid.d
    worst = 0.0
    for ax in range(d):
        for side, inner in ((0, 1), (n - 1, n - 2)):
            sl_b = [slice(None)] * d
            sl_i = [slice(None)] * d
            sl_b[ax] = side
            sl_i[ax] = inner
            gap = np.abs(values[(slice(None),) + tuple(sl_i)]
                         - values[(slice(None),) + tuple(sl_b)])
            if gap.size:
                worst = max(worst, float(np.nanmax(gap)))
    return worst


def solve_cauchy(problem, f_override=None, coeff_override=None,
                 hypothesis_counts=(5, 2, 3)):
    """Backward theta-scheme march of u_t + L u = f from u(S, .) = g.

    ``f_override``: callable t -> grid array replacing the spec's f (used by
    the extension and continuation machinery).  ``coeff_override``: callable
    t -> coefficient dict replacing the spec's a, b, c.
    Returns the solution with its generalized time derivative filled from
    the discrete equation, u_t = f - L u per stored slice.  ``iterations``
    counts the step-matrix ``factorizations`` and the step ``solves`` and
    holds ``linear_residual_max``, the worst relative residual of a solve.
    """
    spec = problem.spec
    if problem.n_trunc >= 1:
        spec = truncate_coeffs(spec, problem.n_trunc)
    grid = problem.grid
    T, S = spec.time_window

    hyp = None
    if coeff_override is None and f_override is None:
        ns, ntm, npair = hypothesis_counts
        hyp = check_hypotheses(spec, grid.radius, ns, ntm, npair)
        if hyp.delta <= 0 or hyp.violations:
            msg = (f"hypothesis violations on the truncated box: delta = "
                   f"{hyp.delta}, {len(hyp.violations)} records")
            if problem.strict:
                raise NumericalError(msg)
            warnings.warn(msg)

    times = time_grid((T, S), problem.n_time, spec.t_breakpoints)
    nt = len(times)
    shape = grid.shape
    size = int(np.prod(shape))

    t_indep = spec.coefficients_time_independent() and coeff_override is None

    def coeffs_at(t):
        if coeff_override is not None:
            return coeff_override(t)
        return eval_coefficients(spec, grid, t)

    data = spec.f if f_override is None else f_override

    def f_at(t):
        return _field_slice(data, t, grid)

    def assemble(t):
        mat, _ = build_operator_matrix(coeffs_at(t), grid,
                                       problem.boundary_mode,
                                       problem.blend_override)
        return mat

    const_L = assemble(T) if t_indep else None

    def matrix_at(t):
        return const_L if const_L is not None else assemble(t)

    values = np.zeros((nt,) + shape)
    values[-1] = problem.g.values
    eye = sp.identity(size, format="csr")
    theta = problem.theta

    solver_cache = {}  # step length -> factorization, constant L only
    n_factor = 0
    n_solves = 0
    worst_resid = 0.0
    bnd_flat = ~_interior_mask(grid).ravel()
    zero_boundary = problem.boundary_mode == "dirichlet-zero"

    for k in range(nt - 2, -1, -1):
        dt = times[k + 1] - times[k]
        te = theta * times[k] + (1.0 - theta) * times[k + 1]
        mat_L = matrix_at(te)
        key = round(float(dt), 14)
        step = solver_cache.get(key) if t_indep else None
        if step is None:
            step = _StepSolver(eye - theta * dt * mat_L, problem.lin_tol)
            n_factor += 1
            if t_indep:
                solver_cache[key] = step
        u_next = values[k + 1].ravel()
        rhs = u_next + (1.0 - theta) * dt * (mat_L @ u_next) - dt * f_at(te).ravel()
        if zero_boundary:
            rhs[bnd_flat] = 0.0
        x, rel = step.solve(rhs)
        worst_resid = max(worst_resid, rel)
        n_solves += 1
        values[k] = x.reshape(shape)

    # generalized time derivative from the discrete equation
    dt_vals = np.zeros_like(values)
    for k in range(nt):
        flat = f_at(times[k]).ravel() - matrix_at(times[k]) @ values[k].ravel()
        if zero_boundary:
            flat[bnd_flat] = 0.0
        dt_vals[k] = flat.reshape(shape)

    u = SpaceTimeFn(grid=grid, times=times, values=values, dt_values=dt_vals)

    # internal consistency: u(t) - u(s) vs the trapezoid of the stored u_t
    scale = max(float(np.max(np.abs(values))), 1e-300)
    incr = values[1:] - values[:-1]
    trap = 0.5 * (dt_vals[1:] + dt_vals[:-1]) \
        * (times[1:] - times[:-1]).reshape((-1,) + (1,) * grid.d)
    resid = float(np.max(np.abs(incr - trap))) if nt > 1 else 0.0
    residual_report = {"sup_abs": resid, "sup_rel": resid / scale,
                       "scale": scale}

    result = SolveResult(
        u=u,
        residual_report=residual_report,
        boundary_influence=_boundary_ring_gap(values, grid),
        iterations={"factorizations": n_factor,
                    "linear_residual_max": worst_resid, "solves": n_solves},
        diagnostics={"hypotheses": hyp, "time_independent": t_indep},
    )
    return result


def extend_final_condition(spec, f, g, S, delta):
    """Extension of the problem past the final time: the operator switches
    to Lap - delta for t > S and the data continue as
    exp(S - t) (Lap g - (1 + delta) g), so the extended solution equals
    exp(S - t) g(x) for t >= S.

    Returns (extended spec fields as a coefficient callable, extended data
    callable); both plug into solve_cauchy via the override hooks.
    """
    lap_g = fd_laplacian(g).values
    gv = g.values

    def coeff_at(t, _spec=spec, _S=float(S), _delta=float(delta)):
        grid = g.grid
        if t <= _S:
            return eval_coefficients(_spec, grid, t)
        return _heat_coefficients(grid, _delta)

    def f_at(t, _spec=spec, _S=float(S), _delta=float(delta)):
        if t <= _S:
            return g.grid.field(_spec.f, t)
        return np.exp(_S - t) * (lap_g - (1.0 + _delta) * gv)

    return coeff_at, f_at


def solve_degenerate_c(problem, delta_shift=1.0):
    """Cauchy solve with a merely nonnegative potential: solve
    u_t + L u - u = exp(t - S) f with the potential raised by one, then
    undo the substitution with v(t, .) = exp(S - t) u(t, .)."""
    spec = problem.spec
    T, S = spec.time_window
    c_shifted = Binary("+", spec.c, Num(float(delta_shift)))
    f_scaled = Binary("*", spec.f,
                      Call("exp", (Binary("-", Var("t"), Num(float(S))),)))
    shifted = spec.with_fields(c=c_shifted, f=f_scaled)
    inner_problem = CauchyProblem(
        spec=shifted, g=problem.g, grid=problem.grid, n_time=problem.n_time,
        n_trunc=problem.n_trunc, boundary_mode=problem.boundary_mode,
        theta=problem.theta, blend_override=problem.blend_override,
        lin_tol=problem.lin_tol, strict=problem.strict)
    res = solve_cauchy(inner_problem)
    uu = res.u
    scale = np.exp(S - uu.times).reshape((-1,) + (1,) * uu.grid.d)
    v_vals = scale * uu.values
    v_dt = scale * (uu.dt_values - uu.values)
    v = SpaceTimeFn(grid=uu.grid, times=uu.times, values=v_vals, dt_values=v_dt)
    res.diagnostics["inflation_max"] = float(np.exp(S - uu.times[0]))
    res.diagnostics["inner_sup"] = float(np.max(np.abs(uu.values)))
    res.diagnostics["outer_sup"] = float(np.max(np.abs(v_vals)))
    res.u = v
    return res


# ---------------------------------------------------------------------------
# method of continuity

def _frak_norm(u, alpha):
    """sup_t |u_t(t,.)|_alpha + sup_t |u(t,.)|_(2+alpha), finite maxima over
    the stored slices."""
    if not u.has_dt:
        raise SpecError("no stored time derivative")
    worst_dt = max([0.0] + alpha_norm_slices(u.dt_values, u.grid, alpha))
    worst_u = max([0.0] + [r.norm_2alpha for r in
                           norm_2alpha_slices(u.values, u.grid, alpha)])
    return worst_dt + worst_u


def _blend_spec(spec, lam0, delta):
    """lam0 L + (1 - lam0)(Lap - delta) as a spec with the same data f."""
    lam = Num(lam0)

    def blend(node, rest):
        return Binary("+", Binary("*", lam, node), Num((1.0 - lam0) * rest))

    n = range(spec.d)
    return OperatorSpec.make(
        spec.d, [[blend(spec.a[i][j], float(i == j)) for j in n] for i in n],
        [Binary("*", lam, bi) for bi in spec.b], blend(spec.c, delta),
        spec.f, spec.alpha, spec.time_window, spec.t_breakpoints)


def continuation_solve(problem, lambda_step=0.1, picard_tol=1e-8,
                       max_picard=40, delta=None, heat_n_time_sub=8):
    """March lambda from 0 to 1 through the operator family
    lambda L + (1 - lambda)(Lap - delta), solving each step by Picard
    iteration around the previous level; the level-zero solves go through
    the Gaussian potential.  Requires bounded coefficients (truncate first)
    and a zero final condition; reports the observed contraction factors.
    """
    if float(np.max(np.abs(problem.g.values))) != 0.0:
        raise SpecError("continuation solves the zero-final-condition problem")
    spec = problem.spec
    if problem.n_trunc >= 1:
        spec = truncate_coeffs(spec, problem.n_trunc)
    grid = problem.grid
    T, S = spec.time_window
    alpha = spec.alpha

    if delta is None:
        delta = min(float(np.min(grid.field(spec.c, t)))
                    for t in np.linspace(T, S, 9))
    if delta <= 0:
        raise SpecError("continuation needs a positive potential floor")

    times = time_grid((T, S), problem.n_time, spec.t_breakpoints)

    def f_expr_at(t):
        return grid.field(spec.f, t)

    # Lap - delta stacked with L at each slice time, for the gap operator
    heat = _heat_coefficients(grid, delta)
    if spec.coefficients_time_independent():
        gap_coeffs = [_stack_coefficients(
            heat, eval_coefficients(spec, grid, 0.5 * (T + S)))] * len(times)
    else:
        gap_coeffs = [_stack_coefficients(heat, eval_coefficients(spec, grid, t))
                      for t in times]

    n_levels = int(np.ceil(1.0 / lambda_step - 1e-12))
    lambdas = [min(1.0, (k + 1) * lambda_step) for k in range(n_levels)]

    def solve_at_level(lam0, rhs_callable):
        """Solve u_t + [lam0 L + (1 - lam0)(Lap - delta)] u = rhs, u(S) = 0."""
        if lam0 == 0.0:
            f_stf = SpaceTimeFn(grid=grid, times=times,
                                values=np.stack([rhs_callable(t) for t in times]))
            return heat_solve(f_stf, delta, S, grid, times=times,
                              n_time_sub=heat_n_time_sub,
                              f_breakpoints=spec.t_breakpoints)

        sub = CauchyProblem(spec=_blend_spec(spec, lam0, delta),
                            g=problem.g, grid=grid,
                            n_time=problem.n_time,
                            boundary_mode=problem.boundary_mode,
                            theta=problem.theta, blend_override=0.0,
                            lin_tol=problem.lin_tol)
        res = solve_cauchy(sub, f_override=rhs_callable)
        lin["factorizations"] += res.iterations["factorizations"]
        lin["linear_residual_max"] = max(lin["linear_residual_max"],
                                         res.iterations["linear_residual_max"])
        return res.u

    lin = {"factorizations": 0, "linear_residual_max": 0.0}

    lam_prev = 0.0
    current = solve_at_level(0.0, f_expr_at)
    contraction = []
    total_picard = 0
    for lam in lambdas:
        gap = lam - lam_prev
        v = current
        prev_diff = None
        factors = []
        for it in range(max_picard):
            w = SpaceTimeFn(grid=grid, times=times,
                            values=np.empty_like(v.values))
            for k in range(len(times)):
                lap, lu = apply_operator(v.slice_fn(k), *gap_coeffs[k])
                w.values[k] = lap - lu

            def rhs_at(t, _w=w):
                return f_expr_at(t) + gap * _w.at(t)

            new = solve_at_level(lam_prev, rhs_at)
            diff = SpaceTimeFn(grid=grid, times=times,
                               values=new.values - v.values,
                               dt_values=new.dt_values - v.dt_values)
            dn = _frak_norm(diff, alpha)
            total_picard += 1
            if prev_diff is not None and prev_diff > 0:
                factors.append(dn / prev_diff)
                if len(factors) >= 2 and min(factors[-2:]) >= 1.0:
                    raise NumericalError(
                        f"contraction factor {factors[-1]:.3f} >= 1 at lambda "
                        f"step {gap}; shrink lambda_step")
            v = new
            if dn < picard_tol * max(1.0, _frak_norm(v, alpha)):
                break
            prev_diff = dn
        contraction.append({"lambda": lam, "factors": factors,
                            "iterations": it + 1})
        current = v
        lam_prev = lam

    resid = {"sup_abs": 0.0, "sup_rel": 0.0, "scale": current.sup()}
    return SolveResult(u=current, residual_report=resid,
                       boundary_influence=0.0,
                       iterations={"picard_total": total_picard, **lin},
                       diagnostics={"contraction": contraction,
                                    "delta": delta})


# ---------------------------------------------------------------------------
# elliptic problems and the semigroup

@dataclass
class EllipticResult:
    u: GridFn
    u_march: Optional[GridFn]
    route_gap: float
    stationary: bool
    horizon_used: float


def _check_time_independent(spec, grid):
    if spec.is_time_independent():
        return
    T, S = spec.time_window
    probes = np.linspace(T, S, 5)
    for node in spec.all_fields():
        vals = [grid.field(node, t) for t in probes]
        for v in vals[1:]:
            if not np.allclose(v, vals[0], rtol=1e-12, atol=1e-12):
                raise SpecError("elliptic solve needs time-independent data")


def solve_elliptic(spec, grid, tol_stat=1e-8, n_time=64, max_horizon=40.0,
                   march_check=True, lin_tol=1e-10,
                   boundary_mode="dirichlet-final"):
    """Solve a^ij D_ij u + b^i D_i u - c u = f with time-independent data.

    Route one marches the final-value problem backward from zero data until
    the solution stops changing over a unit time gap; route two solves the
    stationary sparse system directly.  Boundary rows follow the parabolic
    convention: the zero-order balance -c u = f in "dirichlet-final" mode
    (exact for spatially constant solutions), u = 0 in "dirichlet-zero".
    The direct route is the primary output, the march is the cross-check.
    """
    _check_time_independent(spec, grid)
    T, S = spec.time_window
    t_ref = 0.5 * (T + S)
    coeffs = eval_coefficients(spec, grid, t_ref)
    mat, bnd = build_operator_matrix(coeffs, grid, boundary_mode)
    f_vec = grid.field(spec.f, t_ref).ravel()
    if boundary_mode == "dirichlet-zero":
        rows = np.where(bnd.ravel())[0]
        mat = mat.tolil()
        for r in rows:
            mat.rows[r] = [r]
            mat.data[r] = [1.0]
        mat = mat.tocsr()
        f_vec[rows] = 0.0
    u_direct = spla.spsolve(mat.tocsr(), f_vec).reshape(grid.shape)
    direct = GridFn(grid, u_direct)

    if not march_check:
        return EllipticResult(u=direct, u_march=None, route_gap=np.nan,
                              stationary=False, horizon_used=0.0)

    # stationarity march: repeated unit-window solves continuing downward
    horizon = 0.0
    g_now = GridFn(grid, np.zeros(grid.shape))
    prev_slice = None
    stationary = False
    while horizon < max_horizon:
        win_spec = replace(spec, time_window=(-(horizon + 1.0), -horizon))
        prob = CauchyProblem(spec=win_spec, g=g_now, grid=grid, n_time=n_time,
                             boundary_mode=boundary_mode, lin_tol=lin_tol)
        res = solve_cauchy(prob)
        new_slice = res.u.values[0]
        horizon += 1.0
        if prev_slice is not None:
            if float(np.max(np.abs(new_slice - prev_slice))) < tol_stat:
                stationary = True
                prev_slice = new_slice
                break
        prev_slice = new_slice
        g_now = GridFn(grid, new_slice.copy())
    march = GridFn(grid, prev_slice)
    gap = float(np.max(np.abs(march.values - direct.values)))
    return EllipticResult(u=direct, u_march=march, route_gap=gap,
                          stationary=stationary, horizon_used=horizon)


def semigroup_T(spec, g, duration, grid, dt=1.0 / 64.0, **solver_kwargs):
    """T_t g: the time-reversed final-value problem solved over ``duration``
    with data f = 0, so only a, b and c must be time-independent;
    T_0 g = g exactly."""
    spec = spec.with_fields(f=Num(0.0))
    _check_time_independent(spec, grid)
    if duration < 0:
        raise SpecError("duration must be nonnegative")
    if duration == 0.0:
        return g.copy()
    n_time = max(2, int(np.ceil(duration / dt - 1e-12)))
    win_spec = replace(spec, time_window=(-float(duration), 0.0))
    prob = CauchyProblem(spec=win_spec, g=g, grid=grid, n_time=n_time,
                         **solver_kwargs)
    res = solve_cauchy(prob)
    return GridFn(grid, res.u.values[0].copy())
