"""Drift flows, frozen coefficients, gauges, and the moving cutoff."""

import numpy as np
import pytest
from scipy import ndimage

from schauderlab import characteristics
from schauderlab.characteristics import (cutoff_eta, flow, freeze,
                                         gauge_exp, gauge_translate,
                                         particular_u0, smoothstep_bump)
from schauderlab.coeffspec import OperatorSpec
from schauderlab.errors import NumericalError, SpecError
from schauderlab.holder import (GridFn, SpaceGrid, SpaceTimeFn, fd_gradient,
                                holder_seminorm_stack, fd_hessian)


def make_spec(d=1, b=None, c="1", f="0", a=None, breaks=()):
    if a is None:
        a = [["1" if i == j else "0" for j in range(d)] for i in range(d)]
    if b is None:
        b = ["0"] * d
    return OperatorSpec.make(d, a, b, c, f, 0.5, (-10.0, 10.0), breaks)


# -- flow ---------------------------------------------------------------------

def test_flow_zero_drift_stays_put():
    path = flow(make_spec(), 0.0, [0.7], 2.0, 0.01)
    assert np.allclose(path.points, 0.7, atol=0.0)


def test_flow_constant_drift():
    spec = make_spec(d=2, b=["1", "0"])
    path = flow(spec, 0.0, [0.0, 0.0], 2.0, 0.01)
    assert np.allclose(path.interp(2.0), [2.0, 0.0], atol=1e-12)


def test_flow_exponential_decay_oracle():
    spec = make_spec(b=["-x1"])
    path = flow(spec, 0.0, [1.0], 2.0, 1e-3)
    assert abs(float(path.interp(2.0)[0]) - np.exp(-2.0)) <= 1e-8


def test_flow_backward_in_time():
    spec = make_spec(b=["-x1"])
    path = flow(spec, 0.0, [1.0], -1.0, 1e-3)
    assert abs(float(path.interp(-1.0)[0]) - np.exp(1.0)) <= 1e-7


def test_flow_composition():
    spec = make_spec(b=["sin(x1)+0.5"])
    p1 = flow(spec, 0.0, [0.2], 1.0, 1e-3)
    mid = p1.interp(1.0)
    p2 = flow(spec, 1.0, mid, 2.0, 1e-3)
    direct = flow(spec, 0.0, [0.2], 2.0, 1e-3)
    assert np.allclose(p2.interp(2.0), direct.interp(2.0), atol=1e-10)


def test_flow_blowup_guard():
    spec = make_spec(b=["x1^2"])  # superlinear growth escapes in finite time
    with pytest.raises(NumericalError):
        flow(spec, 0.0, [3.0], 5.0, 1e-3, cap=1e6)


def test_flow_splits_at_breakpoints():
    spec = make_spec(b=["step(t-1)"], breaks=(1.0,))
    path = flow(spec, 0.0, [0.0], 2.0, 0.25)
    # x(t) = max(t - 1, 0): piecewise-linear, exactly integrated
    assert abs(float(path.interp(2.0)[0]) - 1.0) <= 1e-12
    assert abs(float(path.interp(1.0)[0])) <= 1e-12


# -- frozen coefficients ------------------------------------------------------

def test_freeze_constant_coefficients():
    spec = make_spec(c="3", f="2")
    path = flow(spec, 0.0, [0.5], 1.0, 0.01)
    fr = freeze(spec, path)
    assert float(fr.c0(0.3)) == 3.0
    assert float(fr.f0(0.9)) == 2.0


def test_freeze_along_exponential_flow():
    spec = make_spec(b=["x1"], f="x1")
    path = flow(spec, 0.0, [1.0], 1.0, 1e-3)
    fr = freeze(spec, path)
    ts = np.linspace(0.0, 1.0, 7)
    assert np.allclose(fr.f0(ts), np.exp(ts), atol=1e-7)


def test_freeze_deviation_zero_for_x_independent():
    spec = make_spec(c="1+0.5*sin(t)", f="cos(t)")
    path = flow(spec, 0.0, [0.0], 1.0, 0.01)
    fr = freeze(spec, path)
    rep = fr.deviation_report(0.2, bigK=1.0, F_alpha=0.0)
    assert rep["deviation"]["a"] <= 1e-12
    assert rep["deviation"]["f"] <= 1e-12
    assert rep["ok"]


def test_freeze_deviation_within_structural_bound():
    spec = make_spec(b=["x1"], c="1+abs(x1)", f="sin(x1)")
    path = flow(spec, 0.0, [0.0], 1.0, 1e-3)
    fr = freeze(spec, path)
    rep = fr.deviation_report(0.2, bigK=1.0, F_alpha=1.0)
    assert rep["ok"], rep


# -- particular solution of the frozen equation -------------------------------

def test_u0_constant_data():
    spec = make_spec(c="1", f="1")
    path = flow(spec, 0.0, [0.0], 1.0, 0.01)
    fr = freeze(spec, path)
    val = particular_u0(fr, 0.0, 1e-8, delta=1.0)
    assert val == pytest.approx(-1.0, abs=1e-7)


def test_u0_bounded_by_f0():
    spec = make_spec(c="1+0.5*sin(t)", f="1.5*(1+0.5*sin(t))*cos(3*t)")
    path = flow(spec, 0.0, [0.0], 1.0, 0.01)
    fr = freeze(spec, path)
    # |f0| <= 1.5 c0, so the particular solution never exceeds 1.5
    val = particular_u0(fr, 0.0, 1e-10, delta=0.5)
    assert abs(val) <= 1.5


def test_u0_tail_cutoff_selfcheck():
    spec = make_spec(c="1", f="cos(t)")
    path = flow(spec, 0.0, [0.0], 1.0, 0.01)
    fr = freeze(spec, path)
    tol = 1e-6
    v1 = particular_u0(fr, 0.0, tol, delta=1.0, f0_sup=1.0)
    v2 = particular_u0(fr, 0.0, tol * tol, delta=1.0, f0_sup=1.0)  # ~2x horizon
    assert abs(v1 - v2) <= tol + 1e-9


# -- gauges -------------------------------------------------------------------

def bump_spacetime(grid, times):
    mesh = np.stack(grid.mesh(), axis=-1)
    r2 = np.sum(mesh ** 2, axis=-1)
    vals = np.stack([np.exp(-t) * np.exp(-4.0 * r2) for t in times])
    dts = np.stack([-np.exp(-t) * np.exp(-4.0 * r2) for t in times])
    return SpaceTimeFn(grid=grid, times=np.asarray(times, dtype=float),
                       values=vals, dt_values=dts)


def test_gauge_translate_zero_is_identity():
    g = SpaceGrid(1, 4.0, 65)
    u = bump_spacetime(g, [0.0, 0.5, 1.0])
    v = gauge_translate(u, np.array([0.0]))
    assert np.array_equal(v.values, u.values)


def test_gauge_translate_grid_aligned_is_bitwise():
    g = SpaceGrid(1, 4.0, 65)  # h = 0.125
    times = [0.0, 0.5, 1.0]
    u = bump_spacetime(g, times)
    b0 = np.array([0.5])  # B(t) = t/2: 2h at t = 0.5, 4h at t = 1
    v = gauge_translate(u, b0)
    for k, t in enumerate(times):
        m = int(round(b0[0] * t / g.h))
        if m == 0:
            assert np.array_equal(v.values[k], u.values[k])
        else:
            assert np.array_equal(v.values[k][:-m], u.values[k][m:])
            assert np.all(np.isnan(v.values[k][-m:]))


def test_gauge_translate_preserves_seminorms_on_support():
    g = SpaceGrid(1, 4.0, 65)
    u = bump_spacetime(g, [0.0, 0.5, 1.0])
    v = gauge_translate(u, np.array([0.5]))
    for k in (1, 2):
        hu = fd_hessian(u.slice_fn(k))
        hv = fd_hessian(v.slice_fn(k))
        su = holder_seminorm_stack([hu[0][0]], 0.5)
        sv = holder_seminorm_stack([hv[0][0]], 0.5)
        assert sv == su


def test_gauge_exp_scales_values_and_seminorms():
    g = SpaceGrid(1, 4.0, 65)
    u = bump_spacetime(g, [0.0, 1.0])
    v = gauge_exp(u, 1.0)
    assert np.array_equal(v.values[0], u.values[0])  # C(0) = 0
    assert np.allclose(v.values[1], np.exp(-1.0) * u.values[1], rtol=1e-15)
    hu = fd_hessian(u.slice_fn(1))
    hv = fd_hessian(v.slice_fn(1))
    su = holder_seminorm_stack([hu[0][0]], 0.5)
    sv = holder_seminorm_stack([hv[0][0]], 0.5)
    assert sv == pytest.approx(np.exp(-1.0) * su, rel=1e-12)


def test_gauge_exp_rejects_negative_potential():
    g = SpaceGrid(1, 4.0, 65)
    u = bump_spacetime(g, [0.0, 1.0])
    with pytest.raises(SpecError):
        gauge_exp(u, -1.0)


def test_gauge_dt_transforms():
    # v = e^{-C} u has v_t = e^{-C} (u_t - c0 u)
    g = SpaceGrid(1, 4.0, 65)
    u = bump_spacetime(g, [0.0, 1.0])
    v = gauge_exp(u, 2.0)
    expect = np.exp(-2.0) * (u.dt_values[1] - 2.0 * u.values[1])
    assert np.allclose(v.dt_values[1], expect, atol=1e-15)


@pytest.mark.parametrize("d", [1, 2])
def test_gauges_callable_constant_matches_constant(d):
    # the callable branches integrate b0 and c0 from 0 by composite midpoint
    g = SpaceGrid(d, 2.0, 33)  # h = 0.125
    u = bump_spacetime(g, [-0.5, 0.0, 0.5, 1.0])
    b0 = np.array([0.5, -0.25][:d])
    for const, fn, gauge in [
            (b0, lambda t: b0, gauge_translate),
            (2.0, lambda t: np.full(np.shape(t), 2.0), gauge_exp)]:
        want, got = gauge(u, const), gauge(u, fn)
        np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.dt_values, want.dt_values, rtol=0,
                                   atol=1e-12)


CUMULATIVE_TIMES = {
    "33-slices": np.linspace(0.0, 4.0, 33),
    "both-signs": np.array([-0.5, 0.0, 0.5, 1.0]),
    "no-zero": np.array([-1.3, -0.31, 0.07, 0.77, 2.1]),
    "zero-only": np.array([0.0]),
}


@pytest.mark.parametrize("case", list(CUMULATIVE_TIMES))
def test_gauge_translate_integrates_callable_drift_once(case):
    # one midpoint lattice over the knots {0} U times serves every slice
    times = CUMULATIVE_TIMES[case]
    g = SpaceGrid(1, 4.0, 65)
    u = bump_spacetime(g, times)
    u = SpaceTimeFn(grid=g, times=u.times, values=u.values)
    calls = []

    def b0(t):
        calls.append(t)
        return 0.5 + 0.25 * t

    v = gauge_translate(u, b0, n_per_unit=512)
    span = max(times.max(), 0.0) - min(times.min(), 0.0)
    assert len(calls) <= int(np.ceil(512 * span)) + len(times)
    # midpoint sums are exact for a linear drift: B(t) = t/2 + t^2/8
    exact = 0.5 * times + 0.125 * times ** 2
    got = characteristics._cumulative(
        lambda mids: np.reshape([b0(m) for m in mids], (-1, 1)), times)
    np.testing.assert_allclose(got[:, 0], exact, rtol=0, atol=1e-12)
    for k in range(len(times)):
        np.testing.assert_array_equal(v.values[k], characteristics._shift_slice(
            u.values[k], got[k] / g.h, g))


SHIFT_CASES = [
    (1, (3.0,)), (1, (-2.0,)), (1, (70.0,)), (1, (1e-12,)), (1, (0.5,)),
    (1, (-3.25,)), (1, (8.999,)),
    (2, (2.0, -3.0)), (2, (0.5, -1.25)), (2, (0.3, 40.0)), (2, (-1.0, 0.75)),
    (3, (1.0, -2.0, 0.0)), (3, (1e-12, 0.5, 0.5)), (3, (-0.75, 0.25, 1.5)),
    (3, (1e-12, -1.0, 2.0 + 1e-11)),
]


@pytest.mark.parametrize("d, shift", SHIFT_CASES)
def test_shift_slice_matches_map_coordinates(d, shift):
    # linear interpolation one axis at a time against scipy's multilinear
    # map_coordinates; nodes whose source leaves the box are NaN in both
    n = {1: 17, 2: 11, 3: 9}[d]
    g = SpaceGrid(d, 2.0, n)
    rng = np.random.default_rng(n)
    values = rng.normal(size=g.shape)
    shift = np.array(shift)
    got = characteristics._shift_slice(values, shift, g)
    whole = np.all(np.abs(shift - np.rint(shift)) < 1e-9)
    if whole:
        shift = np.rint(shift)  # shifts within 1e-9 of whole nodes re-index
    coords = np.meshgrid(*[np.arange(n, dtype=float)] * d, indexing="ij")
    ref = ndimage.map_coordinates(
        values, [c + s for c, s in zip(coords, shift)], order=1,
        mode="constant", cval=np.nan)
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    if whole:
        # every value is a bitwise copy of a source node
        src = (np.stack(coords, axis=-1) + shift).astype(int)
        ok = ~np.isnan(got)
        assert got[ok].tobytes() == values[tuple(src[ok].T)].tobytes()
    else:
        ok = ~np.isnan(ref)
        assert np.max(np.abs(got[ok] - ref[ok]), initial=0.0) <= 1e-14


# -- moving cutoff ------------------------------------------------------------

def test_cutoff_plateau_and_support():
    spec = make_spec(b=["0.3"])
    path = flow(spec, 0.0, [0.0], 1.0, 0.01)
    g = SpaceGrid(1, 4.0, 257)
    eps = 0.4
    eta = cutoff_eta(path, eps, g, times=[0.0, 1.0])
    x = g.axis()
    c0 = path.interp(0.0)[0]
    inside = np.abs(x - c0) <= eps
    outside = np.abs(x - c0) >= 2.0 * eps
    assert np.all(eta.values[0][inside] == 1.0)
    assert np.all(eta.values[0][outside] == 0.0)
    c1 = path.interp(1.0)[0]
    assert np.all(eta.values[1][np.abs(x - c1) <= eps] == 1.0)


def test_cutoff_c2_profile():
    eps = 0.4
    # cubic approach of the plateau edges: 1 - z ~ 10 (d/eps)^3 near r = eps
    # and z ~ 10 (d/eps)^3 near r = 2 eps, the signature of a C^2 junction
    for d in (1e-2, 1e-3):
        s = d / eps
        assert abs(1.0 - smoothstep_bump(eps + d, eps)) <= 11.0 * s ** 3
        assert smoothstep_bump(2.0 * eps - d, eps) <= 11.0 * s ** 3
    # bounded second differences under refinement (fails for C^1-only kinks)
    curv = []
    for n in (2001, 4001, 8001):
        r = np.linspace(0.0, 1.0, n)
        h = r[1] - r[0]
        z = smoothstep_bump(r, eps)
        curv.append(np.max(np.abs(z[2:] - 2.0 * z[1:-1] + z[:-2])) / h ** 2)
    assert max(curv) <= 1.2 * min(curv)


def test_cutoff_transport_residual_second_order():
    # discrete time differences of eta against the exact spatial gradient:
    # the residual of eta_t + b . D eta decays at second order in dt
    from schauderlab.characteristics import smoothstep_bump_gradient
    spec = make_spec(b=["0.4+0.2*sin(t)"])
    g = SpaceGrid(1, 4.0, 513)
    path = flow(spec, 0.3, [0.1], 1.0, 1e-4)
    mesh = np.stack(g.mesh(), axis=-1)
    sups = []
    for dt in (0.04, 0.02, 0.01):
        times = np.array([0.5 - dt, 0.5, 0.5 + dt])
        eta = cutoff_eta(path, 0.4, g, times=times)
        ddt = (eta.values[2] - eta.values[0]) / (2.0 * dt)
        y = mesh - path.interp(0.5)
        grad = smoothstep_bump_gradient(y, 0.4)[..., 0]
        b_mid = path.velocity(0.5)[0]
        sups.append(np.max(np.abs(ddt + b_mid * grad)))
    assert sups[2] <= sups[1] / 3.0 <= sups[0] / 9.0


def test_cutoff_rejects_bad_radius():
    spec = make_spec()
    path = flow(spec, 0.0, [0.0], 1.0, 0.01)
    g = SpaceGrid(1, 0.5, 33)
    with pytest.raises(SpecError):
        cutoff_eta(path, 0.45, g)
