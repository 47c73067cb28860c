"""Cauchy, degenerate, continuation, elliptic and semigroup solvers."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from schauderlab.coeffspec import OperatorSpec, check_hypotheses
from schauderlab.errors import NumericalError, SpecError
from schauderlab.expr import eval_field, parse_expr
from schauderlab.holder import GridFn, SpaceGrid
from schauderlab.kernel import heat_semigroup
from schauderlab.solver import (CauchyProblem, _StepSolver,
                                build_operator_matrix, continuation_solve,
                                eval_coefficients, extend_final_condition,
                                semigroup_T, solve_cauchy, solve_degenerate_c,
                                solve_elliptic, truncate_coeffs)


def spec_1d(a="1", b="0", c="1", f="0", window=(0.0, 1.0), alpha=0.5,
            breaks=()):
    return OperatorSpec.make(1, [[a]], [b], c, f, alpha, window, breaks)


OU_F = "(6*x1^2 - 2)*exp(t-1)*exp(-x1^2)"  # from w = e^(t-1) exp(-x^2)


def ou_problem(n=129, n_time=64, radius=5.0):
    spec = spec_1d(b="-x1", f=OU_F)
    grid = SpaceGrid(1, radius, n)
    g = GridFn(grid, np.exp(-grid.axis() ** 2))
    return CauchyProblem(spec=spec, g=g, grid=grid, n_time=n_time), spec, grid


def ou_exact(grid, t):
    return np.exp(t - 1.0) * np.exp(-grid.axis() ** 2)


# -- truncation ---------------------------------------------------------------

def test_truncate_clamps():
    spec = spec_1d(b="x1")
    tr = truncate_coeffs(spec, 5)
    assert eval_field(tr.b[0], 0.0, [10.0]) == 5.0
    assert eval_field(tr.b[0], 0.0, [-10.0]) == -5.0
    assert eval_field(tr.b[0], 0.0, [3.0]) == 3.0


def test_truncate_noop_when_bounded():
    spec = spec_1d(b="sin(x1)", c="2", f="cos(x1)")
    tr = truncate_coeffs(spec, 5)
    xs = np.linspace(-4, 4, 41)
    for node_tr, node in zip((tr.b[0], tr.c, tr.f), (spec.b[0], spec.c, spec.f)):
        got = [eval_field(node_tr, 0.3, [x]) for x in xs]
        want = [eval_field(node, 0.3, [x]) for x in xs]
        assert got == want


def test_truncate_keeps_structural_constants():
    # F0 >= 1 here, the regime where the clamp preserves the ratio bound
    spec = spec_1d(b="4*x1", c="1+2*abs(x1)", f="2*(1+2*abs(x1))*cos(x1)")
    rep = check_hypotheses(spec, 3.0, 9, 2, 4)
    assert rep.F0 >= 1.0
    rep_tr = check_hypotheses(truncate_coeffs(spec, 3), 3.0, 9, 2, 4)
    assert rep_tr.F0 <= rep.F0 + 1e-12
    assert rep_tr.Falpha <= rep.Falpha + 1e-12
    assert rep_tr.bigK <= rep.bigK + 1e-12
    assert rep_tr.delta >= min(rep.delta, 3.0) - 1e-12


# -- Cauchy solver ------------------------------------------------------------

def test_spatially_constant_data_reduces_to_ode():
    spec = spec_1d(a="1+0.5*sin(x1)", b="2*x1", c="1", f="0")
    grid = SpaceGrid(1, 8.0, 129)
    g = GridFn(grid, np.ones(grid.shape))
    res = solve_cauchy(CauchyProblem(spec=spec, g=g, grid=grid, n_time=256))
    u = res.u
    for k in range(len(u.times)):
        assert np.max(u.values[k]) - np.min(u.values[k]) <= 1e-12
    exact = np.exp(u.times - 1.0)
    err = max(abs(u.values[k][3] - exact[k]) for k in range(len(u.times)))
    assert err <= 1e-5


def test_final_condition_exact():
    prob, _, grid = ou_problem(n=65, n_time=16)
    res = solve_cauchy(prob)
    assert np.array_equal(res.u.values[-1], prob.g.values)


def test_heat_semigroup_oracle():
    # L = Lap - 1, f = 0, g Gaussian: u(t) = e^{-(S-t)} T_{S-t} g
    spec = spec_1d()
    grid = SpaceGrid(1, 10.0, 257)
    sig = 0.5
    g = GridFn.from_callable(grid, lambda x: np.exp(-x ** 2 / (4.0 * sig)))
    res = solve_cauchy(CauchyProblem(spec=spec, g=g, grid=grid, n_time=128))
    u = res.u
    for k in (0, len(u.times) // 2):
        lag = 1.0 - u.times[k]
        exact = np.exp(-lag) * heat_semigroup(g, lag).values
        assert np.max(np.abs(u.values[k] - exact)) <= 0.01 * np.max(np.abs(g.values))


def test_ou_manufactured():
    prob, _, grid = ou_problem()
    res = solve_cauchy(prob)
    u = res.u
    err = max(np.max(np.abs(u.values[k] - ou_exact(grid, t)))
              for k, t in enumerate(u.times))
    assert err <= 0.01


def test_dt_slices_consistent():
    prob, spec, grid = ou_problem(n=65, n_time=32)
    res = solve_cauchy(prob)
    assert res.u.has_dt
    assert res.residual_report["sup_rel"] <= 1e-4


def test_breakpoints_enter_time_grid():
    spec = spec_1d(c="1+step(t-0.37)", breaks=(0.37,))
    grid = SpaceGrid(1, 4.0, 33)
    g = GridFn(grid, np.ones(grid.shape))
    res = solve_cauchy(CauchyProblem(spec=spec, g=g, grid=grid, n_time=16))
    assert np.any(np.abs(res.u.times - 0.37) < 1e-12)


# -- step solver ----------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2]), n=st.integers(5, 9),
       radius=st.floats(0.5, 4.0), theta=st.floats(0.0, 1.0),
       dt=st.floats(1e-4, 0.5), seed=st.integers(0, 2 ** 32 - 1),
       boundary_mode=st.sampled_from(["dirichlet-final", "dirichlet-zero"]))
def test_step_solve_matches_dense(d, n, radius, theta, dt, seed,
                                  boundary_mode):
    rng = np.random.default_rng(seed)
    grid = SpaceGrid(d, radius, n)
    shape = grid.shape
    a = np.zeros((d, d) + shape)
    for i in range(d):
        a[i, i] = rng.uniform(0.5, 2.0, shape)
    if d == 2:
        a[0, 1] = a[1, 0] = rng.uniform(-0.25, 0.25, shape)
    coeffs = {"a": a, "b": rng.uniform(-5.0, 5.0, (d,) + shape),
              "c": rng.uniform(0.0, 3.0, shape)}
    mat, _ = build_operator_matrix(coeffs, grid, boundary_mode)
    a_mat = sp.identity(mat.shape[0], format="csr") - theta * dt * mat
    rhs = rng.normal(size=mat.shape[0])
    x, resid = _StepSolver(a_mat, 1e-10).solve(rhs)
    dense = np.linalg.solve(a_mat.toarray(), rhs)
    assert np.linalg.norm(x - dense) <= 1e-10 * np.linalg.norm(dense)
    assert resid <= 1e-10


def test_constant_coefficients_factor_once():
    # f depends on t, a, b and c do not: one factorization serves every step
    prob, spec, _ = ou_problem(n=65, n_time=32)
    assert not spec.is_time_independent()
    assert spec.coefficients_time_independent()
    it = solve_cauchy(prob).iterations
    assert it["factorizations"] == 1
    assert it["solves"] == 32
    assert 0.0 <= it["linear_residual_max"] <= prob.lin_tol


def test_time_dependent_coefficients_factor_every_step():
    spec = spec_1d(c="1+t", f="exp(-x1^2)")
    grid = SpaceGrid(1, 4.0, 33)
    g = GridFn(grid, np.zeros(grid.shape))
    it = solve_cauchy(CauchyProblem(spec=spec, g=g, grid=grid,
                                    n_time=16)).iterations
    assert it["factorizations"] == it["solves"] == 16


def test_lin_tol_is_checked():
    prob, _, _ = ou_problem(n=65, n_time=8)
    prob.lin_tol = 1e-300
    with pytest.raises(NumericalError):
        solve_cauchy(prob)


# -- M-matrix mode ------------------------------------------------------------

def test_full_upwind_matrix_is_m_matrix():
    spec = spec_1d(b="20*x1", c="1+abs(x1)")
    grid = SpaceGrid(1, 6.0, 129)
    coeffs = eval_coefficients(spec, grid, 0.5)
    mat, _ = build_operator_matrix(coeffs, grid, blend_override=1.0)
    import scipy.sparse as sp
    dt, theta = 0.01, 1.0
    a_mat = (sp.identity(mat.shape[0]) - theta * dt * mat).tocsr()
    coo = a_mat.tocoo()
    off = coo.data[coo.row != coo.col]
    assert np.all(off <= 1e-14)
    assert np.all(a_mat.diagonal() > 0)


def test_full_upwind_sup_bound_no_tolerance():
    # |f| <= F0 c with theta = 1 and full upwinding: sup |u| <= max(F0, |g|)
    spec = spec_1d(b="20*x1", c="1+abs(x1)", f="0.7*(1+abs(x1))*cos(3*x1)")
    grid = SpaceGrid(1, 6.0, 129)
    g = GridFn.from_callable(grid, lambda x: np.cos(2.0 * x) * 0.9)
    res = solve_cauchy(CauchyProblem(spec=spec, g=g, grid=grid, n_time=64,
                                     theta=1.0, blend_override=1.0))
    assert np.max(np.abs(res.u.values)) <= max(0.7, 0.9) + 1e-8


# -- extension past the final time ---------------------------------------------

def test_extension_zero_g_keeps_f():
    spec = spec_1d(f="sin(x1)")
    grid = SpaceGrid(1, 4.0, 65)
    g = GridFn(grid, np.zeros(grid.shape))
    coeff_at, f_at = extend_final_condition(spec, spec.f, g, 1.0, 1.0)
    x = grid.mesh()[0]
    assert np.allclose(f_at(0.5), np.sin(x), atol=1e-14)
    assert np.allclose(f_at(1.5), 0.0, atol=1e-14)


def test_extension_marches_exponential_decay():
    # on [S, S + 1] the extended problem continues as e^{S - t} g
    spec = spec_1d(b="-x1", f=OU_F)
    grid = SpaceGrid(1, 6.0, 129)
    gv = np.exp(-grid.axis() ** 2)
    g = GridFn(grid, gv)
    S, delta = 1.0, 1.0
    coeff_at, f_at = extend_final_condition(spec, spec.f, g, S, delta)
    from dataclasses import replace
    win = replace(spec, time_window=(S, S + 1.0))
    final = GridFn(grid, np.exp(-1.0) * gv)  # e^{S - t} g at t = S + 1
    prob = CauchyProblem(spec=win, g=final, grid=grid, n_time=64)
    res = solve_cauchy(prob, f_override=f_at, coeff_override=coeff_at)
    u = res.u
    err = max(np.max(np.abs(u.values[k] - np.exp(S - t) * gv))
              for k, t in enumerate(u.times))
    assert err <= 5e-3


# -- degenerate potential -------------------------------------------------------

def test_degenerate_heat_max_principle():
    spec = spec_1d(c="0", f="0")
    grid = SpaceGrid(1, 8.0, 129)
    g = GridFn.from_callable(grid, lambda x: np.exp(-x ** 2) * np.cos(3 * x))
    prob = CauchyProblem(spec=spec, g=g, grid=grid, n_time=64)
    res = solve_degenerate_c(prob)
    assert np.max(np.abs(res.u.values)) <= np.max(np.abs(g.values)) + 1e-8
    assert np.array_equal(res.u.values[-1], g.values)


def test_degenerate_matches_direct_when_c_positive():
    prob, spec, grid = ou_problem(n=65, n_time=64)
    direct = solve_cauchy(prob)
    via = solve_degenerate_c(prob)
    gap = np.max(np.abs(direct.u.values - via.u.values))
    assert gap <= 2e-3


def test_degenerate_scalar_ode_oracle():
    # c = 0, f = 1, g = 0, b = 0, a = I on a unit window: v(T,.) = -1
    spec = spec_1d(c="0", f="1")
    grid = SpaceGrid(1, 8.0, 65)
    g = GridFn(grid, np.zeros(grid.shape))
    prob = CauchyProblem(spec=spec, g=g, grid=grid, n_time=64)
    res = solve_degenerate_c(prob)
    # independent scalar oracle for the substituted equation
    sol = solve_ivp(lambda t, y: y + np.exp(t - 1.0), (1.0, 0.0), [0.0],
                    rtol=1e-10, atol=1e-12)
    v_oracle = np.exp(1.0 - 0.0) * sol.y[0, -1]
    center = grid.n // 2
    assert res.u.values[0][center] == pytest.approx(-1.0, abs=1e-4)
    assert res.u.values[0][center] == pytest.approx(v_oracle, abs=1e-4)


# -- continuation ----------------------------------------------------------------

def bounded_problem(n=97, n_time=32):
    spec = spec_1d(a="1+0.3*sin(x1)", b="sin(x1)", c="1+0.5*cos(x1)",
                   f="exp(-x1^2)")
    grid = SpaceGrid(1, 6.0, n)
    g = GridFn(grid, np.zeros(grid.shape))
    return CauchyProblem(spec=spec, g=g, grid=grid, n_time=n_time), spec, grid


def test_continuation_matches_direct():
    prob, spec, grid = bounded_problem()
    direct = solve_cauchy(CauchyProblem(spec=spec, g=prob.g, grid=grid,
                                        n_time=prob.n_time,
                                        blend_override=0.0))
    cont = continuation_solve(prob, lambda_step=0.25, picard_tol=1e-7)
    scale = np.max(np.abs(direct.u.values))
    gap = np.max(np.abs(direct.u.values - cont.u.values))
    assert gap <= 0.02 * scale
    factors = [f for lvl in cont.diagnostics["contraction"]
               for f in lvl["factors"]]
    assert factors and max(factors) < 1.0


def test_continuation_contraction_scales_with_step():
    prob, spec, grid = bounded_problem(n=65, n_time=16)

    def worst_factor(step):
        out = continuation_solve(
            CauchyProblem(spec=spec, g=prob.g, grid=grid, n_time=16),
            lambda_step=step, picard_tol=1e-6)
        fs = [f for lvl in out.diagnostics["contraction"] for f in lvl["factors"]]
        return max(fs)

    big = worst_factor(0.5)
    small = worst_factor(0.25)
    assert small < 1.0 and big < 1.0
    assert 0.25 <= small / big <= 0.85  # roughly linear in the step


def test_continuation_data_time_dependence_keeps_slicewise_result():
    # with t only in f the gap operator is applied once; adding a zero
    # multiple of t to a forces the slice-by-slice route it replaces
    fields = dict(a="1+0.3*sin(x1)", b="sin(x1)", c="1+0.5*cos(x1)",
                  f="exp(-x1^2)*(1+0.5*sin(3*t))")
    once = spec_1d(**fields)
    sliced = spec_1d(**dict(fields, a="1+0.3*sin(x1)+0*t"))
    assert once.coefficients_time_independent()
    assert not sliced.coefficients_time_independent()
    grid = SpaceGrid(1, 6.0, 65)
    g = GridFn(grid, np.zeros(grid.shape))
    sols = [continuation_solve(CauchyProblem(spec=s, g=g, grid=grid,
                                             n_time=16),
                               lambda_step=0.5, picard_tol=1e-6)
            for s in (once, sliced)]
    scale = np.max(np.abs(sols[1].u.values))
    assert np.max(np.abs(sols[0].u.values - sols[1].u.values)) <= 1e-12 * scale
    for key in ("picard_total", "linear_residual_max"):
        assert sols[0].iterations[key] == sols[1].iterations[key]
    # constant a, b, c: one factorization per level solve; t in a: one per step
    assert sols[0].iterations["factorizations"] == 8
    assert sols[1].iterations["factorizations"] == 16 * 8


@pytest.mark.parametrize("d", [1, 2])
def test_continuation_constant_coefficients_factor_once_per_solve(d):
    if d == 1:
        prob, spec, grid = bounded_problem(n=65, n_time=16)
    else:
        spec = OperatorSpec.make(2, [["1", "0.2"], ["0.2", "1.3"]],
                                 ["sin(x1)", "-0.5*x2/(1+x2^2)"],
                                 "1+0.3*cos(x1)", "exp(-(x1^2+x2^2))",
                                 0.5, (0.0, 1.0))
        grid = SpaceGrid(2, 3.0, 17)
        prob = CauchyProblem(spec=spec, g=GridFn(grid, np.zeros(grid.shape)),
                             grid=grid, n_time=8)
    res = continuation_solve(prob, lambda_step=0.5, picard_tol=1e-6)
    # the first level's Picard solves sit at lambda = 0 (the heat potential)
    levels = res.diagnostics["contraction"]
    above_zero = res.iterations["picard_total"] - levels[0]["iterations"]
    assert above_zero > 0
    assert res.iterations["factorizations"] == above_zero


def test_continuation_requires_zero_final_condition():
    prob, spec, grid = bounded_problem(n=65, n_time=16)
    bad = CauchyProblem(spec=spec, g=GridFn(grid, np.ones(grid.shape)),
                        grid=grid, n_time=16)
    with pytest.raises(SpecError):
        continuation_solve(bad)


# -- elliptic ---------------------------------------------------------------------

def test_elliptic_constant_solution():
    spec = spec_1d(c="1", f="-1", window=(0.0, 1.0))
    grid = SpaceGrid(1, 6.0, 65)
    out = solve_elliptic(spec, grid, tol_stat=1e-7, n_time=32)
    assert np.max(np.abs(out.u.values - 1.0)) <= 1e-10
    assert out.stationary
    assert out.route_gap <= 1e-6


def test_elliptic_ou_manufactured_two_routes():
    # u = exp(-x^2/2) solves u'' - x u' - u = 2 (x^2 - 1) exp(-x^2/2)
    spec = spec_1d(b="-x1", c="1", f="(2*x1^2 - 2)*exp(-x1^2/2)")
    grid = SpaceGrid(1, 6.0, 129)
    out = solve_elliptic(spec, grid, tol_stat=1e-6, n_time=64)
    exact = np.exp(-grid.axis() ** 2 / 2.0)
    assert np.max(np.abs(out.u.values - exact)) <= 0.01
    assert np.max(np.abs(out.u_march.values - exact)) <= 0.01
    assert out.route_gap <= 0.01


def test_elliptic_rejects_time_dependence():
    spec = spec_1d(c="1+t")
    with pytest.raises(SpecError):
        solve_elliptic(spec, SpaceGrid(1, 4.0, 33))


# -- semigroup ---------------------------------------------------------------------

def test_semigroup_identity_at_zero():
    spec = spec_1d(b="-x1", c="1")
    grid = SpaceGrid(1, 6.0, 65)
    g = GridFn.from_callable(grid, lambda x: np.sin(x) * np.exp(-x ** 2))
    out = semigroup_T(spec, g, 0.0, grid)
    assert np.array_equal(out.values, g.values)


def test_semigroup_ignores_time_dependent_data():
    # T_t g solves with f = 0, so a t-dependent f is no reason to refuse
    grid = SpaceGrid(1, 6.0, 65)
    g = GridFn.from_callable(grid, lambda x: np.exp(-x ** 2))
    with_f = semigroup_T(spec_1d(b="-x1", f="exp(-x1^2)*t"), g, 0.5, grid)
    no_f = semigroup_T(spec_1d(b="-x1"), g, 0.5, grid)
    assert np.array_equal(with_f.values, no_f.values)
    with pytest.raises(SpecError):
        semigroup_T(spec_1d(b="-x1", c="1+t"), g, 0.5, grid)


def test_semigroup_contracts_and_composes():
    spec = spec_1d(b="-x1", c="1")
    grid = SpaceGrid(1, 8.0, 129)
    rng = np.random.default_rng(17)
    x = grid.axis()
    g_vals = sum(rng.normal() * np.exp(-(x - c) ** 2)
                 for c in rng.uniform(-2, 2, 4))
    g = GridFn(grid, g_vals)
    t1, s1 = 0.25, 0.5
    tg = semigroup_T(spec, g, t1 + s1, grid)
    two = semigroup_T(spec, semigroup_T(spec, g, s1, grid), t1, grid)
    assert np.max(np.abs(tg.values)) <= np.max(np.abs(g_vals)) + 1e-8
    assert np.max(np.abs(tg.values - two.values)) <= 0.01 * np.max(np.abs(g_vals))


# -- truncation locality -------------------------------------------------------------

def test_truncation_locality():
    spec = spec_1d(b="4*x1", c="1+2*abs(x1)", f="exp(-x1^2)")
    grid = SpaceGrid(1, 6.0, 129)
    g = GridFn(grid, np.zeros(grid.shape))
    sols = {}
    for n in (8, 16):
        prob = CauchyProblem(spec=spec, g=g, grid=grid, n_time=64, n_trunc=n)
        sols[n] = solve_cauchy(prob).u
    # coefficients agree where |4 x| and 1 + 2|x| stay below 8: |x| <= 2
    x = grid.axis()
    inner = np.abs(x) <= 2.0
    gap = np.max(np.abs(sols[8].values[:, inner] - sols[16].values[:, inner]))
    scale = max(np.max(np.abs(sols[16].values)), 1e-300)
    assert gap <= 0.02 * scale
