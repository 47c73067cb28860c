"""Auditors that turn a priori estimates into measured ratios and bounds.

Claims of the form "the constant does not depend on the magnitude of the
lower-order coefficients" are restated as bounded spread of a measured
ratio across a sweep (factor two by default); suprema over continuous time
become maxima over stored slices.  Every audit is deterministic given its
configuration and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .characteristics import (FlowPath, _shift_slice, cutoff_eta, flow,
                              freeze, particular_u0)
from .coeffspec import check_hypotheses
from .errors import NumericalError, SpecError
from .holder import (GridFn, SpaceTimeFn, _field_slice, _operator_sum,
                     apply_operator, embedding_check, fd_derivatives,
                     fd_hessian, holder_seminorm_slices,
                     holder_seminorm_stack, norm_2alpha, norm_2alpha_slices)
from .kernel import potential_G_multi
from .solver import (_stack_coefficients, eval_coefficients, solve_cauchy,
                     truncate_coeffs)

__all__ = [
    "AuditReport", "audit_max_principle", "audit_schauder",
    "audit_time_holder", "audit_integral_residual",
    "audit_gauge_independence", "audit_localization", "audit_embedding",
    "model_solution", "model_schauder_ratio", "loglog_slope",
]


@dataclass(frozen=True)
class AuditReport:
    """One audit outcome: measured values (label, value), a threshold with
    pass iff every value is at most the threshold, and worst-case details."""

    name: str
    measured: Tuple[Tuple[str, float], ...]
    threshold: float
    passed: bool
    details: dict = field(default_factory=dict)


def _finish(name, measured, threshold, details=None):
    values = [v for (_, v) in measured]
    ok = all(np.isfinite(v) and v <= threshold for v in values)
    return AuditReport(name=name, measured=tuple(measured),
                       threshold=float(threshold), passed=bool(ok),
                       details=details or {})


def loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x); pairs with y = 0 drop."""
    pts = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    return float(np.polyfit(lx, ly, 1)[0])


# ---------------------------------------------------------------------------
# model solutions through the potential

def model_solution(path, f, times, grid, t_end, n_time_sub=16,
                   f_breakpoints=(), dt_quad=1e-3):
    """u(t, .) = -(G f)(t, .) from one multi-time potential, with the time
    derivative filled from the equation u_t = f - a(t) : D^2 u."""
    times = np.asarray(times, dtype=float)
    values = -potential_G_multi(path, f, times, grid, t_end,
                                n_time_sub=n_time_sub,
                                f_breakpoints=f_breakpoints, dt_quad=dt_quad)
    dt_vals = np.zeros_like(values)
    for k, t in enumerate(times):
        l0 = apply_operator(GridFn(grid, values[k]), path.eval(t))
        dt_vals[k] = _field_slice(f, t, grid) - l0
    return SpaceTimeFn(grid=grid, times=times, values=values, dt_values=dt_vals)


def _model_ratio_parts(u, path, alpha, measure_index, max_dist):
    """(u_t + a(s):D^2 u)(s,.) for stored s >= t = times[measure_index] as
    one stack of slices, [D^2 u(t,.)]_alpha and the max of the former's
    alpha seminorms, from one Hessian per slice."""
    ks = range(measure_index, len(u.times))
    hess = [fd_hessian(u.slice_fn(k)) for k in ks]
    ops = np.stack([u.dt_values[k] + _operator_sum(
                        u.slice_fn(k), None, hs, path.eval(float(u.times[k])))
                    for k, hs in zip(ks, hess)])
    num = holder_seminorm_stack([e for row in hess[0] for e in row], alpha,
                                max_dist)
    den = max(holder_seminorm_slices(ops, u.grid, alpha, max_dist))
    return ops, num, den


def model_schauder_ratio(u, path, alpha, measure_index=0, max_dist=1.0):
    """[D^2 u(t,.)]_alpha divided by the sup over stored s >= t of
    [(u_t + a(s):D^2 u)(s,.)]_alpha, the model-operator regularity ratio."""
    _, num, denom = _model_ratio_parts(u, path, alpha, measure_index,
                                       max_dist)
    if denom == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return num / denom


# ---------------------------------------------------------------------------
# maximum principle

def audit_max_principle(result, report, threshold=1.01):
    """sup |u| / F0 over stored slices (or sup |u| itself when F0 = 0,
    expected to vanish)."""
    sup_u = float(np.nanmax(np.abs(result.u.values)))
    if report.F0 > 0.0:
        measured = [("sup_ratio", sup_u / report.F0)]
    else:
        measured = [("sup_abs", 0.0 if sup_u <= 1e-12 else np.inf)]
    k_flat = int(np.nanargmax(np.abs(result.u.values)))
    idx = np.unravel_index(k_flat, result.u.values.shape)
    details = {"sup_u": sup_u, "F0": report.F0,
               "argmax": {"time_index": int(idx[0]),
                          "node": tuple(int(i) for i in idx[1:])}}
    return _finish("max_principle", measured, threshold, details)


# ---------------------------------------------------------------------------
# Schauder-constant spread

def audit_schauder(problems, alpha, threshold=2.0, hyp_counts=(7, 2, 4),
                   include_g_norm=True, max_dist=1.0):
    """Empirical Schauder ratios across a sweep of problems.

    For each (label, CauchyProblem): N_emp = sup over stored slices of the
    full 2+alpha norm of u(t, .), divided by F0 + F_alpha (+ the 2+alpha
    norm of g when ``include_g_norm``); the headline figure is the spread
    max/min of N_emp across the sweep.
    """
    per_problem = []
    details = {}
    for label, prob in problems:
        spec = prob.spec if prob.n_trunc < 1 else truncate_coeffs(prob.spec, prob.n_trunc)
        rep = check_hypotheses(spec, prob.grid.radius, *hyp_counts)
        res = solve_cauchy(prob)
        worst = max([0.0] + [r.norm_2alpha for r in norm_2alpha_slices(
            res.u.values, res.u.grid, alpha, max_dist)])
        denom = rep.F0 + rep.Falpha
        if include_g_norm:
            denom += norm_2alpha(prob.g, alpha, max_dist).norm_2alpha
        if denom == 0.0:
            n_emp = 0.0 if worst == 0.0 else np.inf
        else:
            n_emp = worst / denom
        per_problem.append((label, n_emp))
        details[label] = {"sup_norm_2alpha": worst, "F0": rep.F0,
                          "Falpha": rep.Falpha, "denominator": denom}
    positive = [v for (_, v) in per_problem if v > 0.0 and np.isfinite(v)]
    if any(not np.isfinite(v) for (_, v) in per_problem):
        spread = np.inf
    elif len(positive) >= 2:
        spread = max(positive) / min(positive)
    else:
        spread = 1.0
    measured = [("spread", spread)]
    details["ratios"] = dict(per_problem)
    return _finish("schauder", measured, threshold, details)


# ---------------------------------------------------------------------------
# time-Holder ratios

def _ball_mask(grid, radius):
    mesh = grid.mesh()
    r2 = sum(m ** 2 for m in mesh)
    return r2 <= radius ** 2 + 1e-12


def audit_time_holder(result, alpha, window, ball_radius, slope_tol=0.15,
                      n_gaps=5, pairs_per_gap=16):
    """Ratios |u(s,x)-u(t,x)| / |t-s|, |Du .| / |t-s|^((1+alpha)/2) and
    |D^2 u .| / |t-s|^(alpha/2) over dyadic time gaps inside ``window`` and
    nodes |x| <= ball_radius; passes when no ratio blows up as the gap
    shrinks (log-log slope >= -slope_tol)."""
    u = result.u
    if not u.has_dt:
        raise SpecError("time-Holder audit needs stored derivatives")
    lo, hi = window
    ks = [k for k, t in enumerate(u.times) if lo - 1e-12 <= t <= hi + 1e-12]
    if len(ks) < 3:
        raise SpecError("window contains fewer than 3 stored slices")
    mask = _ball_mask(u.grid, ball_radius)

    deriv_cache = {}

    def derivs(k):
        if k not in deriv_cache:
            grads, hess = fd_derivatives(u.slice_fn(k))
            deriv_cache[k] = (np.stack([g.values for g in grads]),
                              np.stack([e.values for row in hess for e in row]))
        return deriv_cache[k]

    span = u.times[ks[-1]] - u.times[ks[0]]
    gaps = [span * 2.0 ** (-m) for m in range(n_gaps)]
    rows = {"value": [], "gradient": [], "hessian": []}
    used_gaps = []
    for gap in gaps:
        sup0 = sup1 = sup2 = 0.0
        found = False
        stride = max(1, len(ks) // pairs_per_gap)
        for k_lo in ks[::stride]:
            t_lo = u.times[k_lo]
            k_hi = int(np.argmin(np.abs(u.times - (t_lo + gap))))
            if k_hi <= k_lo or k_hi not in ks:
                continue
            real_gap = float(u.times[k_hi] - u.times[k_lo])
            if real_gap < 0.25 * gap:
                continue
            found = True
            dv = np.abs(u.values[k_hi] - u.values[k_lo])[mask]
            sup0 = max(sup0, float(np.nanmax(dv)) / real_gap)
            g1, h1 = derivs(k_hi)
            g0, h0 = derivs(k_lo)
            dg = np.sqrt(np.sum((g1 - g0) ** 2, axis=0))[mask]
            dh = np.sqrt(np.sum((h1 - h0) ** 2, axis=0))[mask]
            sup1 = max(sup1, float(np.nanmax(dg)) / real_gap ** ((1 + alpha) / 2))
            sup2 = max(sup2, float(np.nanmax(dh)) / real_gap ** (alpha / 2))
        if found:
            used_gaps.append(gap)
            rows["value"].append(sup0)
            rows["gradient"].append(sup1)
            rows["hessian"].append(sup2)
    measured = []
    details = {"gaps": used_gaps, "sup_ratios": rows}
    for key in ("value", "gradient", "hessian"):
        slope = loglog_slope(used_gaps, rows[key])
        # blow-up as the gap shrinks appears as a negative slope
        measured.append((f"{key}_blowup", max(0.0, -slope)))
        details[f"{key}_slope"] = slope
    return _finish("time_holder", measured, slope_tol, details)


# ---------------------------------------------------------------------------
# integral-form residual

def audit_integral_residual(result, spec, threshold=0.01, margin=1,
                            gap_fracs=(1, 4, 2, 0)):
    """Residual of the integral form: for stored s < t and interior x,
    r = |u(t,x) - u(s,x) - trapz(f - L u)| with L u by centered stencils;
    reported relative to sup |u|."""
    u = result.u
    nt = len(u.times)
    grid = u.grid
    integrand = np.empty_like(u.values)
    for k, t in enumerate(u.times):
        coeffs = eval_coefficients(spec, grid, float(t))
        f_slice = grid.field(spec.f, float(t))
        integrand[k] = f_slice - apply_operator(u.slice_fn(k), **coeffs)
    cum = np.zeros_like(u.values)
    dt = np.diff(u.times).reshape((-1,) + (1,) * grid.d)
    cum[1:] = np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * dt, axis=0)

    inner = (slice(margin, grid.n - margin),) * grid.d
    scale = max(float(np.nanmax(np.abs(u.values))), 1e-300)
    worst = 0.0
    worst_pair = None
    pairs = set()
    for frac in gap_fracs:
        gap = max(1, nt // frac) if frac else nt - 1
        for i in range(0, nt - gap, max(1, gap)):
            pairs.add((i, i + gap))
    for i, j in sorted(pairs):
        r = np.abs(u.values[j] - u.values[i] - (cum[j] - cum[i]))[inner]
        top = float(np.nanmax(r))
        if top > worst:
            worst, worst_pair = top, (i, j)
    measured = [("sup_rel_residual", worst / scale)]
    details = {"sup_abs": worst, "scale": scale, "worst_pair": worst_pair}
    return _finish("integral_residual", measured, threshold, details)


# ---------------------------------------------------------------------------
# gauge independence of the model ratio

def audit_gauge_independence(path, b0_levels, c0_levels, f, times, grid,
                             t_end, alpha, n_time_sub=16, f_breakpoints=(),
                             threshold=1e-12, max_dist=1.0, measure_index=0):
    """Measured model regularity ratio under constant drift translations and
    exponential potential gauges.

    Translating by a constant drift b0 turns u into v(t,x) = u(t, x - b0 t);
    the drifted operator value (v_t + b0 . Dv + a : D^2 v) equals the
    drift-free one evaluated at the translated point, so for grid-aligned
    shifts both sides of the measured ratio are re-indexed copies of the
    same arrays and the ratio must come out bit-identical.  Potential
    levels c0 >= 0 must not increase the ratio beyond rounding.  Measured
    values are relative deviations, hence the tiny default threshold.
    """
    u = model_solution(path, f, times, grid, t_end, n_time_sub=n_time_sub,
                       f_breakpoints=f_breakpoints)
    m_idx = measure_index

    # drift-free operator value u_t + a(t) : D^2 u per slice from m_idx on
    denom_slices, base_num, base_den = _model_ratio_parts(
        u, path, alpha, m_idx, max_dist)
    if base_den == 0.0:
        raise SpecError("gauge audit needs a nonzero data family")
    base_ratio = base_num / base_den

    measured = []
    details = {"base_ratio": base_ratio, "per_level": {}}

    for b0 in b0_levels:
        b0 = np.atleast_1d(np.asarray(b0, dtype=float))
        shift_m = -b0 * float(u.times[m_idx]) / grid.h
        hess = fd_hessian(GridFn(grid, _shift_slice(u.values[m_idx], shift_m,
                                                    grid)))
        num = holder_seminorm_stack([e for row in hess for e in row], alpha,
                                    max_dist)
        shifted = np.stack([
            _shift_slice(op, -b0 * float(u.times[k]) / grid.h, grid)
            for k, op in enumerate(denom_slices, m_idx)])
        den = max([0.0] + holder_seminorm_slices(shifted, grid, alpha,
                                                 max_dist))
        ratio = num / den if den > 0 else np.inf
        rel = abs(ratio - base_ratio) / base_ratio
        label = "b0=" + ",".join(f"{v:g}" for v in b0)
        measured.append((label, rel))
        details["per_level"][label] = {"ratio": ratio}

    for c0 in c0_levels:
        c0 = float(c0)
        den = max([0.0] + holder_seminorm_slices(
            denom_slices - c0 * u.values[m_idx:], grid, alpha, max_dist))
        ratio = base_num / den if den > 0 else np.inf
        excess = max(0.0, ratio / base_ratio - 1.0)
        label = f"c0={c0:g}"
        measured.append((label, excess))
        details["per_level"][label] = {"ratio": ratio}

    return _finish("gauge_independence", measured, threshold, details)


# ---------------------------------------------------------------------------
# localization identity

def audit_localization(spec, result, eps, report, threshold=0.05,
                       u0_tol=1e-10, flow_step=1e-3, margin=2):
    """Executable check of the localization algebra: with v = (u - u0) eta
    along a characteristic through a worst-curvature point,

        v_t + L0 v = eta (f - f0) + eta (L0 - L) u
                     + (u - u0) a0 : D^2 eta + 2 a0^ij eta_i u_j

    is evaluated with centered stencils on both sides; the report carries
    the relative residual and the size of the frozen-deviation terms."""
    if not (0.0 < eps < 0.5):
        raise SpecError("localization needs eps in (0, 1/2)")
    u = result.u
    grid = u.grid
    d = grid.d
    nt = len(u.times)
    T, S = float(u.times[0]), float(u.times[-1])

    km = nt // 2
    hess_m = fd_hessian(u.slice_fn(km))
    mag = np.sqrt(sum(hess_m[i][j].values ** 2 for i in range(d) for j in range(d)))
    inner = (slice(margin, grid.n - margin),) * d
    sub = np.full(mag.shape, -np.inf)
    sub[inner] = mag[inner]
    node = np.unravel_index(int(np.argmax(sub)), mag.shape)
    x0 = np.array([grid.axis()[i] for i in node])
    t0 = float(u.times[km])

    details = {"anchor": {"t": t0, "x": [float(v) for v in x0]}}
    try:
        back = flow(spec, t0, x0, T, flow_step)
        fwd = flow(spec, t0, x0, S, flow_step)
    except NumericalError as exc:
        return AuditReport(name="localization", measured=(("residual_rel", np.inf),),
                           threshold=threshold, passed=False,
                           details={"error": str(exc), **details})
    times_path = np.concatenate([back.times[:-1], fwd.times])
    pts = np.concatenate([back.points[:-1], fwd.points])
    vels = np.concatenate([back.velocities[:-1], fwd.velocities])
    path = FlowPath(t0=t0, x0=x0, times=times_path, points=pts,
                    velocities=vels, stats={})
    if float(np.max(np.abs(pts))) > grid.radius:
        details["characteristic_exited_box"] = True
    frozen = freeze(spec, path)

    u0 = np.array([particular_u0(frozen, float(t), u0_tol, report.delta,
                                 horizon_cap=S)
                   for t in u.times])
    c0_t = np.array([float(frozen.c0(float(t))) for t in u.times])
    f0_t = np.array([float(frozen.f0(float(t))) for t in u.times])
    du0 = f0_t + c0_t * u0

    eta = cutoff_eta(path, eps, grid, times=u.times)

    sup_resid = 0.0
    sup_dev = 0.0
    scale = 0.0
    ones = np.ones(grid.shape)
    for k, t in enumerate(u.times):
        t = float(t)
        a0 = frozen.a0(t)
        b0 = frozen.b0(t)
        c0 = c0_t[k]
        w = u.values[k] - u0[k]
        v_t = (u.dt_values[k] - du0[k]) * eta.values[k] + w * eta.dt_values[k]
        lhs = v_t + apply_operator(GridFn(grid, w * eta.values[k]), a0, b0, c0)

        f_slice = grid.field(spec.f, t)
        # one derivative pass of u gives L u, L0 u and the cross term
        u_fn = u.slice_fn(k)
        grads_u, hess_u = fd_derivatives(u_fn)
        frozen_k = {"a": np.multiply.outer(a0, ones),
                    "b": np.multiply.outer(b0, ones), "c": c0 * ones}
        lu, l0u = _operator_sum(u_fn, grads_u, hess_u, *_stack_coefficients(
            eval_coefficients(spec, grid, t), frozen_k))
        eta_fn = GridFn(grid, eta.values[k])
        grad_eta, hess_eta = fd_derivatives(eta_fn)
        dev_term = eta.values[k] * (f_slice - f0_t[k]) \
            + eta.values[k] * (l0u - lu)
        rhs = dev_term \
            + w * _operator_sum(eta_fn, None, hess_eta, a0) \
            + 2.0 * sum(a0[i, j] * grad_eta[i].values * grads_u[j].values
                        for i in range(d) for j in range(d))
        r = np.abs(lhs - rhs)[inner]
        sup_resid = max(sup_resid, float(np.nanmax(r)))
        sup_dev = max(sup_dev, float(np.nanmax(np.abs(dev_term))))
        scale = max(scale, float(np.nanmax(np.abs(rhs))),
                    float(np.nanmax(np.abs(lhs))))
    scale = max(scale, 1e-300)
    measured = [("residual_rel", sup_resid / scale)]
    details.update({"sup_residual": sup_resid, "scale": scale,
                    "frozen_deviation_sup": sup_dev, "eps": eps})
    return _finish("localization", measured, threshold, details)


# ---------------------------------------------------------------------------
# embedding ratios as an audit

def audit_embedding(u, alpha, anchors, h_list, slope_tol=0.15, max_dist=1.0):
    """Wraps the kinematic embedding check: the envelope of the ratios r1,
    r2 over the given anchors must show no growth trend across the h values
    (log-log slope of the envelope within ``slope_tol`` of zero).

    ``anchors``: one (t, x) anchor or a list of them; per h the envelope
    takes the largest ratio over the anchors.
    """
    if isinstance(anchors, tuple):
        anchors = [anchors]
    per_anchor = [embedding_check(u, alpha, a, h_list, max_dist=max_dist)
                  for a in anchors]
    n_rows = len(per_anchor[0])
    env_rows = []
    for i in range(n_rows):
        h_used = per_anchor[0][i].h_used
        env_rows.append({
            "h_requested": per_anchor[0][i].h_requested,
            "h_used": h_used,
            "r1": max(rows[i].r1 for rows in per_anchor),
            "r2": max(rows[i].r2 for rows in per_anchor),
            "I_h": max(rows[i].I_h for rows in per_anchor),
        })
    hs = [r["h_used"] for r in env_rows if r["h_used"] > 0]
    r1s = [r["r1"] for r in env_rows if r["h_used"] > 0]
    r2s = [r["r2"] for r in env_rows if r["h_used"] > 0]
    s1 = loglog_slope(hs, r1s)
    s2 = loglog_slope(hs, r2s)
    measured = [("r1_slope_abs", abs(s1)), ("r2_slope_abs", abs(s2))]
    details = {"rows": env_rows, "r1_slope": s1, "r2_slope": s2,
               "n_anchors": len(anchors)}
    return _finish("embedding", measured, slope_tol, details)
