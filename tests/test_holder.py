"""Grids, finite differences, Holder seminorms, cone lemma, embedding."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schauderlab import holder
from schauderlab.errors import SpecError
from schauderlab.holder import (ConeSpec, GridFn, SpaceGrid, SpaceTimeFn,
                                alpha_norm, alpha_norm_slices,
                                apply_operator, check_interpolation,
                                cone_entry_bounds,
                                cone_matrix_bound, embedding_check,
                                fd_gradient, fd_hessian, holder_seminorm,
                                holder_seminorm_slices,
                                holder_seminorm_stack, norm_2alpha,
                                norm_2alpha_slices)


def grid1(radius=1.0, n=129):
    return SpaceGrid(1, radius, n)


# -- finite differences -----------------------------------------------------

def test_gradient_of_constant_is_zero():
    fn = GridFn(grid1(), np.full(129, 3.7))
    assert np.allclose(fd_gradient(fn)[0].values, 0.0, atol=1e-12)


def test_gradient_linear_exact():
    g = grid1()
    fn = GridFn.from_callable(g, lambda x: x)
    assert np.allclose(fd_gradient(fn)[0].values, 1.0, atol=1e-13)


def test_gradient_sin_second_order_bound():
    g = SpaceGrid(1, 1.0, 41)  # h = 0.05
    fn = GridFn.from_callable(g, lambda x: np.sin(x))
    err = np.abs(fd_gradient(fn)[0].values - np.cos(g.axis()))
    # interior central differences: |error| <= h^2/6 max|sin'''|
    assert np.max(err[1:-1]) <= g.h ** 2 / 6.0 + 1e-12
    # one-sided boundary stencils carry the larger h^2/3 constant
    assert np.max(err) <= g.h ** 2 / 3.0 + 1e-12


def test_hessian_quadratic_exact():
    g = grid1(n=33)
    fn = GridFn.from_callable(g, lambda x: x ** 2)
    assert np.allclose(fd_hessian(fn)[0][0].values, 2.0, atol=1e-10)

    g2 = SpaceGrid(2, 1.0, 33)
    fn2 = GridFn.from_callable(g2, lambda x, y: x * y)
    hess = fd_hessian(fn2)
    assert np.allclose(hess[0][1].values, 1.0, atol=1e-10)
    assert np.allclose(hess[0][1].values, hess[1][0].values, atol=0.0)


def test_hessian_all_quadratics_machine_exact():
    g2 = SpaceGrid(2, 2.0, 17)
    x, y = g2.mesh()
    fn = GridFn(g2, 1.0 + 0.5 * x - y + 2.0 * x * y + 3.0 * x ** 2 - y ** 2)
    hess = fd_hessian(fn)
    assert np.allclose(hess[0][0].values, 6.0, atol=1e-10)
    assert np.allclose(hess[1][1].values, -2.0, atol=1e-10)
    assert np.allclose(hess[0][1].values, 2.0, atol=1e-10)


def test_hessian_richardson_order():
    errs = []
    hs = []
    for n in (33, 65, 129):
        g2 = SpaceGrid(2, 1.0, n)
        fn = GridFn.from_callable(g2, lambda x, y: np.exp(x + y))
        hess = fd_hessian(fn)
        x, y = g2.mesh()
        exact = np.exp(x + y)
        inner = (slice(1, n - 1),) * 2
        err = max(np.max(np.abs(hess[i][j].values[inner] - exact[inner]))
                  for i in range(2) for j in range(2))
        errs.append(err)
        hs.append(g2.h)
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.7 <= order <= 2.3


@pytest.mark.parametrize("d", [1, 2])
def test_apply_operator_quadratic_exact(d):
    # every stencil (3-point, one-sided 4-point, edge_order=2 gradients) is
    # exact for quadratics, so L u matches its analytic value at every node
    g = SpaceGrid(d, 1.5, 9)
    xs = g.mesh()
    rng = np.random.default_rng(11)
    q = rng.normal(size=(d, d))
    p = rng.normal(size=d)
    u = 0.7 + sum(p[i] * xs[i] for i in range(d)) \
        + sum(q[i, j] * xs[i] * xs[j] for i in range(d) for j in range(d))
    hess = q + q.T
    grad = [p[i] + sum(hess[i, j] * xs[j] for j in range(d))
            for i in range(d)]
    a = np.array([[1.5 + np.sin(xs[0]) if i == j else 0.3 * np.cos(xs[-1])
                   for j in range(d)] for i in range(d)])
    b = np.array([-(i + 1.0) * xs[i] for i in range(d)])
    c = 1.0 + sum(x ** 2 for x in xs)
    a_part = sum(a[i, j] * hess[i, j] for i in range(d) for j in range(d))
    drift = sum(b[i] * grad[i] for i in range(d))
    fn = GridFn(g, u)
    for args, exact in (((a, b, c), a_part + drift - c * u),
                        ((a,), a_part),
                        ((a, None, c), a_part - c * u),
                        ((a, b), a_part + drift)):
        got = apply_operator(fn, *args)
        assert got.shape == g.shape
        assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("d, calls", [(1, 1), (2, 4)])
def test_one_derivative_pass_per_slice(monkeypatch, d, calls):
    # d first differences feed both D u and the mixed terms of D^2 u, which
    # take one more difference per pair i < j
    g = SpaceGrid(d, 1.5, 9)
    fn = GridFn(g, np.exp(-sum(x ** 2 for x in g.mesh())))
    a = np.eye(d)
    b = np.ones(d)
    counted = []
    gradient = np.gradient

    def counting(*args, **kwargs):
        counted.append(1)
        return gradient(*args, **kwargs)

    monkeypatch.setattr(np, "gradient", counting)
    for run in (lambda: apply_operator(fn, a, b, 1.0),
                lambda: norm_2alpha(fn, 0.5)):
        counted.clear()
        run()
        assert len(counted) == calls


# -- Holder seminorms -------------------------------------------------------

def test_seminorm_stack_validates_inputs():
    fn = GridFn.from_callable(grid1(n=33), lambda x: x)
    for alpha in (1.5, 0.0, 1.0, -0.5):
        with pytest.raises(SpecError, match="alpha"):
            holder_seminorm_stack([fn], alpha)
        with pytest.raises(SpecError, match="alpha"):
            holder_seminorm(fn, alpha)
    with pytest.raises(SpecError):
        holder_seminorm_stack([], 0.5)
    with pytest.raises(SpecError, match="method"):
        holder_seminorm_stack([fn], 0.5, method="dense")


@pytest.mark.parametrize("d, count", [(1, 1), (2, 4), (3, 13)])
def test_integer_directions_built_once_read_only(d, count):
    from schauderlab.holder import _integer_directions
    dirs = _integer_directions(d)
    assert _integer_directions(d) is dirs
    assert len(dirs) == count
    for div in dirs:
        assert div.dtype.kind == "i" and not div.flags.writeable
        assert np.min(np.abs(div[div != 0])) == 1


def test_seminorm_constant_zero():
    fn = GridFn(grid1(), np.ones(129))
    assert holder_seminorm(fn, 0.5) == 0.0


def test_seminorm_linear_attained_at_cap():
    fn = GridFn.from_callable(grid1(), lambda x: x)
    assert holder_seminorm(fn, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_seminorm_abs_power_approaches_one():
    vals = []
    for n in (65, 129, 257):
        g = SpaceGrid(1, 1.0, n)
        fn = GridFn.from_callable(g, lambda x: np.abs(x) ** 0.5)
        vals.append(holder_seminorm(fn, 0.5))
    assert vals[-1] == pytest.approx(1.0, abs=1e-6)
    # oracle: full pair enumeration on a small grid
    g = SpaceGrid(1, 1.0, 33)
    fn = GridFn.from_callable(g, lambda x: np.abs(x) ** 0.5)
    assert holder_seminorm(fn, 0.5, method="exact") == pytest.approx(1.0, abs=1e-9)


def test_structured_scan_never_exceeds_exact_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = SpaceGrid(2, 1.0, 17)
        fn = GridFn(g, rng.normal(size=g.shape))
        s = holder_seminorm(fn, 0.5)
        e = holder_seminorm(fn, 0.5, method="exact")
        assert s <= e + 1e-12
        assert s >= 0.5 * e  # the structured set catches the scale


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=-6, max_value=6))
def test_seminorm_dyadic_scaling_exact(k):
    lam = 2.0 ** k
    g = SpaceGrid(1, 1.0, 65)
    rng = np.random.default_rng(4)
    vals = rng.normal(size=g.shape)
    s1 = holder_seminorm(GridFn(g, lam * vals), 0.5)
    s0 = holder_seminorm(GridFn(g, vals), 0.5)
    assert s1 == abs(lam) * s0


def test_seminorm_translation_invariance_on_common_support():
    # a compactly supported profile shifted by an exact node count keeps
    # its seminorm bitwise (the pair scan sees re-indexed copies)
    g = SpaceGrid(1, 2.0, 129)
    x = g.axis()
    vals = np.where(np.abs(x) < 0.5, np.cos(4.0 * x) * (0.25 - x ** 2), 0.0)
    shifted = np.full_like(vals, np.nan)
    shifted[:-8] = vals[8:]
    assert holder_seminorm(GridFn(g, shifted), 0.5) \
        == holder_seminorm(GridFn(g, vals), 0.5)


def test_nan_nodes_are_skipped():
    g = grid1(n=65)
    vals = np.linspace(-1, 1, 65)
    vals[10] = np.nan
    s = holder_seminorm(GridFn(g, vals), 0.5)
    assert np.isfinite(s) and s > 0


# -- batched scans and norms against the per-slice algorithm ----------------

def _reference_scan(stack, grid, alpha, max_dist):
    """The per-slice pair scan, one shift at a time: stack (m,) + shape."""
    best = 0.0
    for div in holder._integer_directions(grid.d):
        step_len = grid.h * float(np.linalg.norm(div))
        kmax = int(np.floor(max_dist / step_len + 1e-12))
        for k in holder._shift_counts(kmax):
            if np.max(np.abs(div)) * k >= grid.n:
                continue  # no pair at this shift inside the grid
            src = [slice(None)] * grid.d
            dst = [slice(None)] * grid.d
            for ax, comp in enumerate(div):
                off = int(comp) * k
                if off > 0:
                    src[ax], dst[ax] = slice(0, grid.n - off), slice(off, grid.n)
                elif off < 0:
                    src[ax], dst[ax] = slice(-off, grid.n), slice(0, grid.n + off)
            diff = stack[(slice(None),) + tuple(src)] \
                - stack[(slice(None),) + tuple(dst)]
            mag2 = np.einsum("m...,m...->...", diff, diff)
            if not mag2.size:
                continue
            with np.errstate(invalid="ignore"):
                top = np.nanmax(mag2)
            if np.isnan(top):
                continue
            q = np.sqrt(top) / (k * step_len) ** alpha
            if q > best:
                best = q
    return float(best)


def _reference_norm(v, grid, alpha, max_dist):
    """(sup, grad_sup, hess_sup, [D^2 v]_alpha, 2+alpha norm) of one
    slice: the stencils of fd_gradient and fd_hessian, then one scan."""
    d, h = grid.d, grid.h
    grads = [np.gradient(v, h, axis=i, edge_order=2) for i in range(d)]
    hess = [[None] * d for _ in range(d)]
    for i in range(d):
        w = np.moveaxis(v, i, 0)
        dd = np.empty_like(w)
        dd[1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / h ** 2
        dd[0] = (2.0 * w[0] - 5.0 * w[1] + 4.0 * w[2] - w[3]) / h ** 2
        dd[-1] = (2.0 * w[-1] - 5.0 * w[-2] + 4.0 * w[-3] - w[-4]) / h ** 2
        hess[i][i] = np.moveaxis(dd, 0, i)
        for j in range(i + 1, d):
            hess[i][j] = hess[j][i] = 0.5 * (
                np.gradient(grads[i], h, axis=j, edge_order=2)
                + np.gradient(grads[j], h, axis=i, edge_order=2))
    flat = [e for row in hess for e in row]

    def vector_sup(arrays):
        sq = np.zeros(v.shape)
        for a in arrays:
            sq = sq + a ** 2
        return float(np.nanmax(np.sqrt(sq)))

    sup = float(np.nanmax(np.abs(v)))
    grad_sup, hess_sup = vector_sup(grads), vector_sup(flat)
    sem = _reference_scan(np.stack(flat), grid, alpha, max_dist)
    return sup, grad_sup, hess_sup, sem, sup + grad_sup + hess_sup + sem


def _same(a, b):
    """Equal as floats, NaN matching NaN."""
    return a == b or (np.isnan(a) and np.isnan(b))


@st.composite
def slice_stacks(draw):
    """(grid, values (k,) + shape, m) with NaN nodes and at times one
    all-NaN slice."""
    d = draw(st.sampled_from([1, 2]))
    grid = SpaceGrid(d, draw(st.sampled_from([0.5, 1.0, 3.0])),
                     draw(st.integers(5, 17)))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.normal(size=(k,) + grid.shape) \
        * 10.0 ** rng.integers(-3, 4, size=(k,) + (1,) * d)
    values[rng.random(values.shape) < draw(st.sampled_from([0.0, 0.05, 0.3]))] \
        = np.nan
    if draw(st.booleans()):
        values[draw(st.integers(0, k - 1))] = np.nan
    return grid, values, draw(st.sampled_from([1, d * d]))


@settings(max_examples=60, deadline=None)
@given(slice_stacks(), st.sampled_from([0.2, 0.5, 0.9]),
       st.sampled_from([0.3, 1.0, 40.0]), st.sampled_from([1, 60, None]))
@pytest.mark.filterwarnings("ignore:All-NaN slice:RuntimeWarning")
def test_batched_norms_equal_per_slice_algorithm(case, alpha, max_dist, block):
    grid, values, m = case
    k = len(values)
    # m component slices per stack slice: the values and shifted copies
    comps = np.stack([np.roll(values, c, axis=0) for c in range(m)])
    with mock.patch.object(holder, "_BLOCK_VALUES",
                           block or holder._BLOCK_VALUES):
        scans = holder._pair_scan(comps, grid, alpha, max_dist)
        sems = holder_seminorm_slices(values, grid, alpha, max_dist)
        alphas = alpha_norm_slices(values, grid, alpha, max_dist)
        reports = norm_2alpha_slices(values, grid, alpha, max_dist)
    assert len(scans) == len(sems) == len(alphas) == len(reports) == k
    for i in range(k):
        assert _same(scans[i], _reference_scan(comps[:, i], grid, alpha,
                                               max_dist))
        sem = _reference_scan(values[i][None], grid, alpha, max_dist)
        assert _same(sems[i], sem)
        assert _same(alphas[i], float(np.nanmax(np.abs(values[i]))) + sem)
        rep = reports[i]
        got = (rep.sup, rep.grad_sup, rep.hess_sup, rep.seminorm_2alpha,
               rep.norm_2alpha)
        want = _reference_norm(values[i], grid, alpha, max_dist)
        assert all(map(_same, got, want)), (got, want)
        assert _same(rep.seminorm_alpha, sem)
        one = norm_2alpha(GridFn(grid, values[i]), alpha, max_dist)
        assert all(map(_same, got, (one.sup, one.grad_sup, one.hess_sup,
                                    one.seminorm_2alpha, one.norm_2alpha)))
        assert _same(alpha_norm(GridFn(grid, values[i]), alpha, max_dist),
                     alphas[i])


@settings(max_examples=30, deadline=None)
@given(slice_stacks(), st.sampled_from([0.3, 0.5, 0.8]))
@pytest.mark.filterwarnings("ignore:All-NaN slice:RuntimeWarning")
def test_batched_scan_bounded_by_exact_oracle(case, alpha):
    grid, values, m = case
    comps = np.stack([np.roll(values, c, axis=0) for c in range(m)])
    scans = holder._pair_scan(comps, grid, alpha, 1.0)
    for i, s in enumerate(scans):
        e = holder._pair_scan_exact(comps[:, i], grid, alpha, 1.0)
        assert s <= e * (1.0 + 1e-12)


def test_batched_scan_bounded_by_exact_oracle_at_n64():
    g = SpaceGrid(1, 1.0, 64)
    values = np.random.default_rng(5).normal(size=(4,) + g.shape)
    values[1, 7] = np.nan
    for s, v in zip(holder_seminorm_slices(values, g, 0.5), values):
        e = holder._pair_scan_exact(v[None], g, 0.5, 1.0)
        assert 0.5 * e <= s <= e * (1.0 + 1e-12)


def test_scan_on_a_box_narrower_than_max_dist():
    # shifts that reach past the grid hold no pair and are skipped
    g = SpaceGrid(1, 0.25, 9)
    fn = GridFn(g, g.axis())
    assert holder_seminorm(fn, 0.5) == pytest.approx(np.sqrt(0.5), rel=1e-15)
    assert holder_seminorm(fn, 0.5) <= holder_seminorm(fn, 0.5, method="exact")


def test_batched_norms_reject_infinities():
    g = SpaceGrid(2, 1.0, 9)
    values = np.zeros((3,) + g.shape)
    values[1, 4, 4] = np.inf
    for batched in (holder_seminorm_slices, alpha_norm_slices,
                    norm_2alpha_slices):
        with pytest.raises(SpecError):
            batched(values, g, 0.5)
    # a finite slice whose differences overflow, as fd_derivatives rejects it
    values[1, 4, 4] = 0.0
    values[2, ::2] = 1e308
    values[2, 1::2] = -1e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SpecError):
            fd_gradient(GridFn(g, values[2]))
        with pytest.raises(SpecError):
            norm_2alpha_slices(values, g, 0.5)


# -- norm report ------------------------------------------------------------

def test_norm_report_zero():
    rep = norm_2alpha(GridFn(grid1(), np.zeros(129)), 0.5)
    assert (rep.sup, rep.grad_sup, rep.hess_sup, rep.seminorm_2alpha,
            rep.norm_2alpha) == (0, 0, 0, 0, 0)


def test_norm_report_quadratic():
    fn = GridFn.from_callable(grid1(), lambda x: x ** 2)
    rep = norm_2alpha(fn, 0.5)
    assert rep.sup == pytest.approx(1.0, abs=1e-12)
    assert rep.grad_sup == pytest.approx(2.0, abs=1e-9)
    assert rep.hess_sup == pytest.approx(2.0, abs=1e-9)
    assert rep.seminorm_2alpha == pytest.approx(0.0, abs=1e-9)
    assert rep.norm_2alpha == pytest.approx(5.0, abs=1e-8)
    assert rep.norm_2alpha == rep.sup + rep.grad_sup + rep.hess_sup \
        + rep.seminorm_2alpha


def test_norm_report_scans_seminorm_alpha_only_when_read(monkeypatch):
    from schauderlab import holder
    g = SpaceGrid(2, 1.5, 17)
    fn = GridFn(g, np.sin(g.mesh()[0]) * np.cos(2.0 * g.mesh()[1]))
    scans = []
    pair_scan = holder._pair_scan

    def counting(stack, *args):
        scans.append(stack.shape[0])
        return pair_scan(stack, *args)

    monkeypatch.setattr(holder, "_pair_scan", counting)
    rep = norm_2alpha(fn, 0.5)
    assert scans == [4]  # the Hessian's entries only
    assert rep.seminorm_alpha == holder_seminorm(fn, 0.5)
    assert rep.seminorm_alpha == holder_seminorm(fn, 0.5)
    assert scans == [4, 1, 1, 1]  # one scan on first read, then cached
    assert rep == norm_2alpha(fn, 0.5)


def test_norm_report_exponential_vs_analytic():
    g = SpaceGrid(1, 1.0, 257)
    fn = GridFn.from_callable(g, lambda x: np.exp(x))
    rep = norm_2alpha(fn, 0.5)
    e = np.e
    tol = 2.0 * g.h ** 2 * e
    assert abs(rep.sup - e) <= tol
    assert abs(rep.grad_sup - e) <= tol
    assert abs(rep.hess_sup - e) <= tol
    # [exp]_alpha on pairs <= 1: sup over x of e^x (1 - e^-s) / s^alpha, s <= 1
    s = np.linspace(1e-4, 1.0, 4000)
    sem_exact = np.max(e * (1.0 - np.exp(-s)) / s ** 0.5)
    assert abs(rep.seminorm_2alpha - sem_exact) <= 5e-3 * sem_exact + tol


# -- interpolation inequality ----------------------------------------------

def test_interpolation_constants():
    fns = [GridFn(grid1(), np.full(129, c)) for c in (1.0, -2.0, 0.5)]
    rows = check_interpolation(fns, 0.5, [0.1, 1.0])
    for _, need, finite in rows:
        assert finite and need == pytest.approx(1.0, abs=1e-12)


def test_interpolation_quadratic_needs_five():
    fns = [GridFn.from_callable(grid1(), lambda x: x ** 2)]
    rows = check_interpolation(fns, 0.5, [0.5])
    assert rows[0][1] == pytest.approx(5.0, rel=1e-6)


def test_interpolation_sine_family_decreasing_in_eps():
    g = SpaceGrid(1, 1.0, 257)
    fns = [GridFn.from_callable(g, lambda x, k=k: np.sin(k * x))
           for k in range(1, 9)]
    rows = check_interpolation(fns, 0.5, [0.01, 0.1, 1.0, 10.0])
    needs = [r[1] for r in rows]
    assert all(np.isfinite(needs))
    assert needs == sorted(needs, reverse=True)


# -- cone lemma -------------------------------------------------------------

def test_cone_full_space_diag():
    cone = ConeSpec(axis=(1.0, 0.0), gamma=1.0, h=1.0)
    m = np.diag([1.0, 2.0])
    top = cone_matrix_bound(m, cone, 64)
    assert top == pytest.approx(2.0, abs=1e-6)
    _, n_factor, bound = cone_entry_bounds(m, cone, 64)
    assert abs(m[0, 0]) <= bound + 1e-9


def test_cone_polarization_recovers_offdiagonal():
    cone = ConeSpec(axis=(1.0, 0.0), gamma=1.0, h=1.0)
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    rec, _, _ = cone_entry_bounds(m, cone, 32)
    assert rec[0, 1] == pytest.approx(1.0, abs=1e-9)


def test_cone_bound_matches_dense_random_sampling():
    rng = np.random.default_rng(7)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    cone = ConeSpec(axis=tuple(axis), gamma=1.3, h=1.0)
    m = rng.normal(size=(3, 3))
    m = 0.5 * (m + m.T)
    ours = cone_matrix_bound(m, cone, 4000)
    # dense random oracle over the same cap
    theta = cone.half_angle
    dirs = rng.normal(size=(100000, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    keep = dirs @ axis >= np.cos(theta)
    quads = np.abs(np.einsum("ki,ij,kj->k", dirs[keep], m, dirs[keep]))
    dense = float(np.max(quads))
    assert ours >= 0.99 * dense
    assert ours <= dense * 1.01 + 1e-9


def test_degenerate_cone_rejected():
    with pytest.raises(SpecError):
        ConeSpec(axis=(1.0, 0.0), gamma=0.5, h=1.0)
    with pytest.raises(SpecError):
        ConeSpec(axis=(0.0, 0.0), gamma=2.0, h=1.0)


# -- embedding check --------------------------------------------------------

def _space_time(grid, times, u_of_tx, ut_of_tx):
    mesh = grid.mesh()
    vals = np.stack([u_of_tx(t, *mesh) * np.ones(grid.shape) for t in times])
    dts = np.stack([ut_of_tx(t, *mesh) * np.ones(grid.shape) for t in times])
    return SpaceTimeFn(grid=grid, times=np.asarray(times), values=vals,
                       dt_values=dts)


def test_embedding_time_independent_is_zero():
    g = SpaceGrid(1, 2.0, 65)
    u = _space_time(g, [0.0, 0.5, 1.0],
                    lambda t, x: np.sin(x), lambda t, x: 0.0 * x)
    rows = embedding_check(u, 0.5, (1.0, [0.0]), [0.5, 0.25])
    for r in rows:
        assert r.r1 == 0.0 and r.r2 == 0.0


def test_embedding_closed_form_ratio():
    # u = t x^2: |D2u(t) - D2u(t-h^2)| = 2 h^2, I_h = [x^2]_alpha = 3
    # on a radius-2 box with the pair cap 1, so r2 = (2/3) h^(2-alpha)
    g = SpaceGrid(1, 2.0, 129)
    times = [0.0, 0.25, 0.5, 0.75, 1.0]
    u = _space_time(g, times, lambda t, x: t * x ** 2, lambda t, x: x ** 2)
    rows = embedding_check(u, 0.5, (1.0, [0.0]), [0.5, np.sqrt(0.25)])
    for r in rows:
        expect = (2.0 / 3.0) * r.h_used ** 1.5
        assert r.r2 == pytest.approx(expect, rel=1e-6)
        assert r.r1 == pytest.approx(0.0, abs=1e-9)
        assert r.I_h == pytest.approx(3.0, rel=1e-9)


def test_embedding_requires_dt():
    g = SpaceGrid(1, 2.0, 65)
    u = SpaceTimeFn(grid=g, times=np.array([0.0, 1.0]),
                    values=np.zeros((2, 65)))
    with pytest.raises(SpecError):
        embedding_check(u, 0.5, (1.0, [0.0]), [0.5])
