"""Accumulated diffusion, Gaussian kernel, potential, semigroup, mollifier."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import ndimage
from scipy.integrate import quad

from schauderlab import kernel
from schauderlab.errors import NumericalError, SpecError
from schauderlab.expr import parse_expr
from schauderlab.holder import GridFn, SpaceGrid, SpaceTimeFn, holder_seminorm
from schauderlab.kernel import (GaussParams, TimeMatrixPath, accumulate_A,
                                fourier_oracle_1d, gauss_kernel,
                                heat_semigroup, heat_solve, kernel_on_grid,
                                mollify, potential_G)
from schauderlab.verify import model_schauder_ratio, model_solution

# frozen oracle: integral over (0,1) of (1+4t)^(-1/2), the closed-form value
# of the Gaussian-against-Gaussian potential at the origin
GAUSS_GAUSS_ORACLE = 0.6180339887498949


def random_path_1d(rng, breaks=True):
    c0 = rng.uniform(1.0, 3.0)
    c1 = rng.uniform(0.0, 0.8)
    w = rng.uniform(0.5, 4.0)
    entry = f"{c0}+{c1}*sin({w}*t)"
    bps = ()
    if breaks:
        b = round(rng.uniform(0.3, 0.7), 3)
        entry = f"({entry})*(1+0.5*step(t-{b}))"
        bps = (b,)
    return TimeMatrixPath.make(1, [[entry]], bps)


# -- accumulated diffusion --------------------------------------------------

def test_accumulate_constant_identity():
    p = accumulate_A(TimeMatrixPath.identity(2), 0.0, 2.0)
    assert np.allclose(p.A, 2.0 * np.eye(2), atol=1e-12)
    assert np.allclose(p.B, 0.5 * np.eye(2), atol=1e-12)


def test_accumulate_piecewise_constant():
    path = TimeMatrixPath.make(1, [["1+2*step(t-1)"]], [1.0])
    p = accumulate_A(path, 0.0, 2.0)
    assert p.A[0, 0] == pytest.approx(4.0, abs=1e-12)


def test_accumulate_analytic_quadrature():
    path = TimeMatrixPath.make(1, [["2+sin(t)"]])
    p = accumulate_A(path, 0.0, np.pi, dt_quad=2e-5)
    assert p.A[0, 0] == pytest.approx(2.0 * np.pi + 2.0, abs=1e-10)


def test_accumulate_rejects_reversed_times():
    # non-finite times too: the lattice would double its span forever
    for s, t in [(1.0, 1.0), (0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0)]:
        with pytest.raises(NumericalError):
            accumulate_A(TimeMatrixPath.identity(1), s, t)


def test_additivity_to_rounding():
    rng = np.random.default_rng(11)
    for _ in range(5):
        path = random_path_1d(rng)
        s, r, t = sorted(rng.uniform(-1.0, 2.0, size=3))
        if t - s < 1e-3 or r - s < 1e-4 or t - r < 1e-4:
            continue
        whole = accumulate_A(path, s, t).A
        parts = accumulate_A(path, s, r).A + accumulate_A(path, r, t).A
        assert np.max(np.abs(whole - parts)) <= 1e-12


# a path with breakpoints on both sides of 0
PATH_2D_BREAKS = TimeMatrixPath.make(
    2, [["1.2+0.3*sin(2*t)+0.5*step(t+0.3)", "0.4*cos(t)"],
        ["0.4*cos(t)", "(1+0.2*t^2)*(1+step(t-0.6))"]], [-0.3, 0.6])
HISTORY_PATHS = [
    TimeMatrixPath.make(1, [["1.5+0.5*sin(3*t)"]]),
    TimeMatrixPath.make(1, [["(1.5+0.5*sin(3*t))*(1+step(t-0.7))"]], [0.7]),
    PATH_2D_BREAKS,
]
history_time = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(HISTORY_PATHS),
       st.lists(st.tuples(history_time, history_time), max_size=12),
       st.tuples(history_time, history_time))
def test_accumulated_diffusion_does_not_depend_on_earlier_calls(
        path, history, query):
    # A(s, t) from a cold cache equals, byte for byte, A(s, t) after any
    # sequence of earlier calls: rising, falling or negative times
    s, t = sorted(query)
    assume(t - s > 1e-9)
    with patch.dict(kernel._CUM_CACHE, clear=True):
        cold = accumulate_A(path, s, t)
    with patch.dict(kernel._CUM_CACHE, clear=True):
        for a, b in history:
            if abs(b - a) > 1e-9:
                accumulate_A(path, min(a, b), max(a, b))
        warm = accumulate_A(path, s, t)
    assert warm.A.tobytes() == cold.A.tobytes()
    assert warm.B.tobytes() == cold.B.tobytes()


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["rising", "falling"])
def test_lattice_rebuilds_rarely(monkeypatch, sign):
    # the lattice doubles its span when |tau| reaches it, at both ends
    builds = []
    build = kernel._canonical_edges
    monkeypatch.setattr(kernel, "_canonical_edges",
                        lambda *args: builds.append(args) or build(*args))
    monkeypatch.setattr(kernel, "_CUM_CACHE", {})
    ts = np.linspace(0.01, 2.5, 300)
    for t in ts:
        s, r = sorted((0.4 * sign * t, sign * t))
        accumulate_A(PATH_2D_BREAKS, s, r)
    assert len(builds) <= np.log2(ts[-1] / ts[0]) + 2


def test_path_undefined_below_zero_serves_nonnegative_times():
    # sqrt(t) fails below 0, so nonnegative times must never evaluate a
    # there; the midpoint error near the sqrt singularity is O(dt^1.5)
    path = TimeMatrixPath.make(1, [["1+sqrt(t)"]])
    assert accumulate_A(path, 0.0, 1.0).A[0, 0] == pytest.approx(5.0 / 3.0,
                                                                 abs=1e-5)
    u = model_solution(path, parse_expr("exp(-x1^2)"), [0.0, 0.5],
                       SpaceGrid(1, 6.0, 33), 1.0, n_time_sub=4)
    assert np.all(np.isfinite(u.values))


def test_accumulated_bounds():
    path = TimeMatrixPath.make(1, [["1.5+0.5*sin(3*t)"]])
    delta, big_k = path.bounds(0.0, 2.0)
    p = accumulate_A(path, 0.0, 2.0)
    val = p.A[0, 0]
    assert delta * 2.0 - 1e-9 <= val <= big_k * 2.0 + 1e-9


# -- kernel -----------------------------------------------------------------

def test_kernel_point_value():
    p = accumulate_A(TimeMatrixPath.identity(1), 0.0, 1.0)
    assert gauss_kernel(p, 0.0) == pytest.approx((4.0 * np.pi) ** -0.5,
                                                 abs=1e-12)


def test_kernel_zero_when_time_reversed():
    p = GaussParams.degenerate(1, 1.0, 0.5)
    assert gauss_kernel(p, np.array([0.3])) == 0.0


def test_kernel_unit_mass_random_paths():
    rng = np.random.default_rng(12)
    for _ in range(4):
        path = random_path_1d(rng)
        s, t = 0.0, rng.uniform(0.5, 1.5)
        p = accumulate_A(path, s, t)
        big_k = path.bounds(s, t)[1]
        radius = 8.0 * np.sqrt(big_k * (t - s))
        grid = SpaceGrid(1, radius, 2049)
        mass = np.sum(kernel_on_grid(p, grid).values) * grid.h
        assert mass == pytest.approx(1.0, abs=1e-6)


def test_chapman_kolmogorov():
    path = random_path_1d(np.random.default_rng(13))
    s, r, t = 0.0, 0.4, 1.0
    grid = SpaceGrid(1, 20.0, 2049)
    y = grid.axis()
    x, z = 0.3, -0.5
    p_sr = accumulate_A(path, s, r)
    p_rt = accumulate_A(path, r, t)
    p_st = accumulate_A(path, s, t)
    conv = np.sum(gauss_kernel(p_sr, x - y) * gauss_kernel(p_rt, y - z)) * grid.h
    assert conv == pytest.approx(float(gauss_kernel(p_st, x - z)), abs=1e-8)


# -- potential --------------------------------------------------------------

def test_potential_of_unit_data():
    grid = SpaceGrid(1, 12.0, 257)
    gf = potential_G(TimeMatrixPath.identity(1), parse_expr("1"), 0.0, grid,
                     1.0, n_time_sub=32)
    c = grid.n // 2
    assert gf.values[c] == pytest.approx(1.0, abs=1e-6)


def test_potential_gaussian_closed_form():
    grid = SpaceGrid(1, 12.0, 257)
    gf = potential_G(TimeMatrixPath.identity(1), parse_expr("exp(-x1^2)"),
                     0.0, grid, 1.0, n_time_sub=256)
    c = grid.n // 2
    oracle, err = quad(lambda t: (1.0 + 4.0 * t) ** -0.5, 0.0, 1.0)
    assert abs(oracle - GAUSS_GAUSS_ORACLE) < 1e-12
    assert gf.values[c] == pytest.approx(GAUSS_GAUSS_ORACLE, abs=2e-5)


def manufactured_1d(grid, S=1.0):
    xx = grid.axis()
    psi = np.exp(-xx ** 2)
    d2psi = (4.0 * xx ** 2 - 2.0) * np.exp(-xx ** 2)

    def phi(t):
        return np.sin(np.pi * t / S) ** 2 if 0.0 < t < S else 0.0

    def dphi(t):
        if not 0.0 < t < S:
            return 0.0
        return 2.0 * np.pi / S * np.sin(np.pi * t / S) * np.cos(np.pi * t / S)

    return psi, d2psi, phi, dphi


def test_representation_identity():
    grid = SpaceGrid(1, 12.0, 257)
    path = TimeMatrixPath.identity(1)
    psi, d2psi, phi, dphi = manufactured_1d(grid)

    def f_cb(t):
        return dphi(t) * psi + phi(t) * d2psi

    for t_test in (0.0, 0.3, 0.7):
        gf = potential_G(path, f_cb, t_test, grid, 1.0, n_time_sub=64)
        u_true = phi(t_test) * psi
        assert np.max(np.abs(u_true + gf.values)) <= 0.02 * max(np.max(np.abs(psi)), 1e-12)


def test_potential_rejects_unbounded_data():
    grid = SpaceGrid(1, 4.0, 65)
    with pytest.raises(NumericalError):
        potential_G(TimeMatrixPath.identity(1), lambda t: np.full(65, np.inf),
                    0.0, grid, 1.0)


# -- multi-time potential ---------------------------------------------------

# data with breakpoints, so the outputs share the cells above 0.6 and 0.8
MULTI_F = "exp(-x1^2)*(1+step(t-0.6)-0.5*step(t-0.8))*cos(3*t)*step(1-t)"
MULTI_BREAKS = (0.6, 0.8)
MULTI_TIMES = (0.1, 0.25, 0.4, 0.55)


def multi_case(d):
    if d == 1:
        path = TimeMatrixPath.make(1, [["1.5+0.5*sin(3*t)"]])
        return path, SpaceGrid(1, 3.0, 33), parse_expr(MULTI_F)
    if d == 2:
        path = TimeMatrixPath.make(2, [["1.2+0.3*sin(2*t)", "0.4*cos(t)"],
                                       ["0.4*cos(t)", "1+0.2*t"]])
        return path, SpaceGrid(2, 3.0, 17), parse_expr(MULTI_F + "*exp(-x2^2)")
    path = TimeMatrixPath.make(3, [["1.2+0.3*sin(2*t)", "0.4*cos(t)", "0.1"],
                                   ["0.4*cos(t)", "1+0.2*t", "0.2*sin(t)"],
                                   ["0.1", "0.2*sin(t)", "1.1"]])
    return path, SpaceGrid(3, 3.0, 9), parse_expr(
        MULTI_F + "*exp(-x2^2-x3^2)")


def multi_cells(path, times, t_end, n_sub):
    """(output index, s, midpoint, width) of every active cell."""
    breaks = tuple(path.breakpoints) + MULTI_BREAKS
    for k, s in enumerate(times):
        mids, widths = kernel._time_cells(s, t_end, breaks, n_sub)
        for r, w in zip(mids, widths):
            if r > s and w > 0.0:
                yield k, s, r, w


@pytest.mark.parametrize("d", [1, 2, 3])
def test_potential_multi_matches_per_cell_ndimage_sum(d):
    path, grid, f = multi_case(d)
    got = kernel.potential_G_multi(path, f, MULTI_TIMES, grid, 1.0,
                                   n_time_sub=3, f_breakpoints=MULTI_BREAKS)
    ref = np.zeros((len(MULTI_TIMES),) + grid.shape)
    for k, s, r, w in multi_cells(path, MULTI_TIMES, 1.0, 3):
        weights = kernel._kernel_weights(accumulate_A(path, s, r), grid.h,
                                         2.0 * grid.radius)
        ref[k] += w * ndimage.convolve(grid.field(f, r), weights,
                                       mode="constant", cval=0.0)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_potential_multi_equals_per_time_potential_bitwise():
    path, grid, f = multi_case(2)
    multi = kernel.potential_G_multi(path, f, MULTI_TIMES, grid, 1.0,
                                     n_time_sub=3, f_breakpoints=MULTI_BREAKS)
    single = np.stack([potential_G(path, f, s, grid, 1.0, n_time_sub=3,
                                   f_breakpoints=MULTI_BREAKS).values
                       for s in MULTI_TIMES])
    assert multi.tobytes() == single.tobytes()


def test_potential_multi_evaluates_data_once_per_midpoint():
    path, grid, _ = multi_case(1)
    calls = []

    def f_cb(t):
        calls.append(float(t))
        return np.exp(-grid.axis() ** 2) * (t < 1.0)

    kernel.potential_G_multi(path, f_cb, MULTI_TIMES, grid, 1.0, n_time_sub=3,
                             f_breakpoints=MULTI_BREAKS)
    cells = list(multi_cells(path, MULTI_TIMES, 1.0, 3))
    distinct = {float(r) for _, _, r, _ in cells}
    assert len(distinct) < len(cells)
    assert sorted(calls) == sorted(distinct)


@pytest.mark.parametrize("n_signal, n_taps", [(5, 13), (9, 1)])
def test_convolve_1d_matches_ndimage(n_signal, n_taps):
    rng = np.random.default_rng(n_signal)
    values = rng.normal(size=n_signal)
    weights = rng.uniform(0.1, 1.0, size=n_taps)
    got = kernel._convolve(values, weights)
    ref = ndimage.convolve(values, weights, mode="constant", cval=0.0)
    assert got.shape == ref.shape
    assert np.allclose(got, ref, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("d, n", [(2, 7), (3, 5)])
@pytest.mark.parametrize("half_width", ["unit", "short", "reach", "beyond"])
def test_convolve_matches_ndimage(d, n, half_width):
    # the kernel is cropped or zero-padded to half-width n - 1 on every axis
    m = {"unit": 0, "short": n // 2, "reach": n - 1, "beyond": n + 2}[half_width]
    rng = np.random.default_rng(10 * d + m)
    values = rng.normal(size=(n,) * d)
    weights = rng.uniform(0.1, 1.0, size=(2 * m + 1,) * d)
    got = kernel._convolve(values, weights)
    ref = ndimage.convolve(values, weights, mode="constant", cval=0.0)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


# -- Fourier oracle ---------------------------------------------------------

def test_fourier_zero_data():
    grid = SpaceGrid(1, 4.0, 65)
    out = fourier_oracle_1d(TimeMatrixPath.identity(1), parse_expr("0"),
                            0.0, grid, 1.0)
    assert np.allclose(out.values, 0.0, atol=1e-14)


def test_fourier_empty_range():
    grid = SpaceGrid(1, 4.0, 65)
    f = parse_expr("exp(-x1^2)*step(1-t)")
    out = fourier_oracle_1d(TimeMatrixPath.identity(1), f, 1.0, grid, 1.0)
    assert np.allclose(out.values, 0.0, atol=1e-14)


def test_fourier_matches_negative_potential():
    grid = SpaceGrid(1, 12.0, 257)
    path = TimeMatrixPath.make(1, [["1.3+0.4*sin(2*t)"]])
    rng = np.random.default_rng(21)
    xx = grid.axis()
    band = sum(rng.normal() * np.cos(k * xx) + rng.normal() * np.sin(k * xx)
               for k in range(1, 6))
    envelope = np.exp(-xx ** 2 / 8.0)

    def f_cb(t):
        return band * envelope * (np.sin(np.pi * t) ** 2 if 0 < t < 1 else 0.0)

    gf = potential_G(path, f_cb, 0.0, grid, 1.0, n_time_sub=64)
    fo = fourier_oracle_1d(path, f_cb, 0.0, grid, 1.0, n_time_sub=64)
    rel = np.max(np.abs(fo.values + gf.values)) / np.max(np.abs(gf.values))
    assert rel <= 1e-3


# -- heat semigroup and mollifier --------------------------------------------

def test_semigroup_preserves_constants():
    g = SpaceGrid(2, 4.0, 33)
    out = heat_semigroup(GridFn(g, np.ones(g.shape)), 0.7)
    assert np.max(np.abs(out.values - 1.0)) <= 1e-14


def test_semigroup_gaussian_widening():
    g = SpaceGrid(2, 8.0, 65)
    sig, tau = 0.5, 0.3
    h0 = GridFn.from_callable(g, lambda x, y: np.exp(-(x ** 2 + y ** 2)
                                                     / (4.0 * sig)))
    out = heat_semigroup(h0, tau)
    x, y = g.mesh()
    exact = (sig / (sig + tau)) * np.exp(-(x ** 2 + y ** 2)
                                         / (4.0 * (sig + tau)))
    assert np.max(np.abs(out.values - exact)) <= 1e-10


def test_semigroup_small_time_identity():
    g = SpaceGrid(1, 4.0, 257)
    h0 = GridFn.from_callable(g, lambda x: np.exp(-x ** 2))
    gaps = [np.max(np.abs(heat_semigroup(h0, tau).values - h0.values))
            for tau in (1e-2, 1e-3, 1e-4)]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] <= 1e-3


def test_mollify_constant_exact():
    g = SpaceGrid(1, 2.0, 129)
    out = mollify(GridFn(g, np.full(g.shape, 2.5)), 0.3)
    assert np.max(np.abs(out.values - 2.5)) <= 1e-13


def test_mollify_sup_distance_bounded_by_holder():
    g = SpaceGrid(1, 2.0, 257)
    fn = GridFn.from_callable(g, lambda x: np.abs(np.sin(3.0 * x)) ** 0.5)
    alpha = 0.5
    sem = holder_seminorm(fn, alpha)
    for eps in (0.1, 0.2, 0.4):
        out = mollify(fn, eps)
        m = int(np.floor(eps / g.h)) + 1
        inner = slice(m, g.n - m)
        gap = np.max(np.abs(out.values[inner] - fn.values[inner]))
        assert gap <= sem * eps ** alpha + 1e-12


def test_mollify_contracts_seminorm_interior():
    g = SpaceGrid(1, 2.0, 257)
    rng = np.random.default_rng(31)
    fn = GridFn(g, rng.normal(size=g.shape))
    eps = 0.2
    out = mollify(fn, eps)
    m = int(np.floor(eps / g.h)) + 1
    sem_in = holder_seminorm(GridFn(g, np.where(
        np.abs(g.axis()) <= g.radius - m * g.h, out.values, np.nan)), 0.5)
    sem_f = holder_seminorm(fn, 0.5)
    assert sem_in <= sem_f + 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("op, scale", [("heat", 0.01), ("heat", 1.0),
                                       ("mollify", 0.7), ("mollify", 0.05)])
def test_smoothers_match_ndimage_nearest(d, op, scale):
    # edge-replicating references: per-axis convolve1d for the separable
    # semigroup, one d-dimensional convolve for the bump
    g = SpaceGrid(d, 2.0, {1: 65, 2: 33, 3: 13}[d])
    fn = GridFn(g, np.random.default_rng(d).normal(size=g.shape))
    if op == "heat":
        got = heat_semigroup(fn, scale).values
        m = int(np.floor(min(8.0 * np.sqrt(2.0 * scale), 2.0 * g.radius)
                         / g.h + 1e-12))
        w = np.exp(-(np.arange(-m, m + 1) * g.h) ** 2 / (4.0 * scale))
        ref = fn.values
        for axis in range(d):
            ref = ndimage.convolve1d(ref, w / np.sum(w), axis=axis,
                                     mode="nearest")
    else:
        got = mollify(fn, scale).values
        m = int(np.floor(scale / g.h))
        offsets = np.meshgrid(*[np.arange(-m, m + 1) * g.h] * d, indexing="ij")
        r2 = sum(o ** 2 for o in offsets) / scale ** 2
        w = np.zeros(r2.shape)
        w[r2 < 1.0] = np.exp(-1.0 / (1.0 - r2[r2 < 1.0]))
        ref = ndimage.convolve(fn.values, w / np.sum(w), mode="nearest")
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


# -- heat equation ----------------------------------------------------------

def test_heat_solve_zero_data():
    grid = SpaceGrid(1, 4.0, 65)
    u = heat_solve(parse_expr("0"), 1.0, 1.0, grid,
                   times=np.linspace(0, 1, 5))
    assert np.all(u.values == 0.0)


def test_heat_solve_manufactured_and_final_zero():
    grid = SpaceGrid(1, 12.0, 257)
    psi, d2psi, phi, dphi = manufactured_1d(grid)
    delta, S = 1.0, 1.0

    def f_cb(t):
        return dphi(t) * psi + phi(t) * d2psi - delta * phi(t) * psi

    times = np.linspace(0.0, 1.2, 13)
    u = heat_solve(f_cb, delta, S, grid, times=times, n_time_sub=48)
    err = max(np.max(np.abs(u.values[k] - (phi(t) if t < S else 0.0) * psi))
              for k, t in enumerate(times))
    assert err <= 0.01
    assert np.all(u.values[times >= S - 1e-12] == 0.0)
    assert u.has_dt


# -- model regularity ratio across the ellipticity sweep ----------------------

def test_model_schauder_ratio_bounded_across_k_sweep():
    grid = SpaceGrid(1, 6.0, 161)
    f = parse_expr("exp(-4*x1^2)*step(1-t)*step(t)")
    times = np.linspace(0.0, 0.96, 13)
    sups = {}
    for K in (1.0, 4.0, 16.0):
        entry = f"1+{K - 1}*(0.5+0.5*sin(18.849555921538759*t))^4"
        path = TimeMatrixPath.make(1, [[entry]])
        u = model_solution(path, f, times, grid, 1.0, n_time_sub=24)
        sups[K] = max(model_schauder_ratio(u, path, 0.5, measure_index=k)
                      for k in range(len(times)))
    spread = max(sups.values()) / min(sups.values())
    assert spread <= 2.0, sups


def test_model_time_increment_ratio_bounded():
    # second derivatives move at most like |t - s|^(alpha/2) relative to the
    # data seminorm, across the same ellipticity sweep
    from schauderlab.holder import fd_hessian
    grid = SpaceGrid(1, 6.0, 161)
    f = parse_expr("exp(-4*x1^2)*step(1-t)*step(t)")
    times = np.array([0.1, 0.225, 0.35, 0.6, 0.85])
    alpha = 0.5
    worst = {}
    for K in (1.0, 4.0):
        entry = f"1+{K - 1}*(0.5+0.5*sin(18.849555921538759*t))^4"
        path = TimeMatrixPath.make(1, [[entry]])
        u = model_solution(path, f, times, grid, 1.0, n_time_sub=24)
        sem_f = holder_seminorm(
            GridFn(grid, np.exp(-4.0 * grid.axis() ** 2)), alpha)
        hs = [fd_hessian(u.slice_fn(k))[0][0].values for k in range(len(times))]
        ratios = []
        for i in range(len(times)):
            for j in range(i + 1, len(times)):
                gap = float(times[j] - times[i])
                num = np.max(np.abs(hs[j] - hs[i]))
                ratios.append(num / (sem_f * gap ** (alpha / 2.0)))
        worst[K] = max(ratios)
    assert max(worst.values()) <= 4.0, worst
