"""Expression language: parsing, printing, evaluation, error reporting."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from schauderlab.errors import ExprEvalError, ExprSyntaxError
from schauderlab.expr import (Binary, Call, Num, Unary, Var, eval_field,
                              evaluate, free_vars, parse_expr, to_string)
from schauderlab.holder import SpaceGrid


def test_precedence_basic():
    assert eval_field(parse_expr("2+3*x1"), 0.0, [1.0]) == 5.0


def test_exp_at_zero():
    assert eval_field(parse_expr("exp(-t)*x1"), 0.0, [2.0]) == 2.0


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("2+*x1")
    assert exc.value.offset == 2


def test_step_semantics():
    node = parse_expr("step(t-1)")
    assert eval_field(node, 0.5, [0.0]) == 0.0
    assert eval_field(node, 1.0, [0.0]) == 1.0


def test_sum_of_squares():
    assert eval_field(parse_expr("x1^2+x2^2"), 0.0, [3.0, 4.0]) == 25.0


def test_division_by_zero_reports_subexpression():
    with pytest.raises(ExprEvalError) as exc:
        eval_field(parse_expr("1/x1"), 0.0, [0.0])
    assert "x1" in str(exc.value)


def test_sqrt_domain_error():
    with pytest.raises(ExprEvalError):
        eval_field(parse_expr("sqrt(x1)"), 0.0, [-1.0])


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError):
        parse_expr("2*q")
    with pytest.raises(ExprSyntaxError):
        parse_expr("x4+1")


def test_wrong_arity():
    with pytest.raises(ExprSyntaxError):
        parse_expr("min(x1)")
    with pytest.raises(ExprSyntaxError):
        parse_expr("sin(x1, x2)")


def test_power_right_associative_and_unary():
    assert eval_field(parse_expr("2^3^2"), 0.0, [0.0]) == 512.0
    assert eval_field(parse_expr("-x1^2"), 0.0, [3.0]) == -9.0
    assert eval_field(parse_expr("(-x1)^2"), 0.0, [3.0]) == 9.0
    assert eval_field(parse_expr("2^-2"), 0.0, [0.0]) == 0.25


def test_vectorized_evaluation_broadcasts():
    node = parse_expr("x1*x2 + t")
    x1 = np.linspace(0, 1, 5)
    out = evaluate(node, 2.0, [x1, 3.0])
    assert out.shape == (5,)
    assert np.allclose(out, 3.0 * x1 + 2.0)


def test_finite_everywhere_invariant():
    node = parse_expr("exp(-x1^2)*sin(t) + abs(x1)")
    rng = np.random.default_rng(0)
    pts = rng.normal(scale=10.0, size=(100, 2))
    out = evaluate(node, pts[:, 0], [pts[:, 1]])
    assert np.all(np.isfinite(out))


def test_overflow_is_a_domain_error():
    with pytest.raises(ExprEvalError):
        eval_field(parse_expr("exp(x1)"), 0.0, [1e6])


def test_free_vars():
    assert free_vars(parse_expr("x1*t + x2")) == {"x1", "t", "x2"}


# -- round-trip property ----------------------------------------------------

_leaf = st.one_of(
    st.floats(min_value=-100, max_value=100, allow_nan=False,
              allow_infinity=False).map(lambda v: Num(float(v))),
    st.sampled_from(["t", "x1", "x2", "x3"]).map(Var),
)


def _nodes(children):
    unary_fns = st.sampled_from(["exp", "sin", "cos", "abs", "sqrt", "step"])
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children)
        .map(lambda t: Binary(t[0], t[1], t[2])),
        st.tuples(children, children).map(lambda t: Binary("^", t[0], t[1])),
        children.map(lambda a: Unary("neg", a)),
        st.tuples(unary_fns, children).map(lambda t: Call(t[0], (t[1],))),
        st.tuples(st.sampled_from(["min", "max"]), children, children)
        .map(lambda t: Call(t[0], (t[1], t[2]))),
    )


ast_strategy = st.recursive(_leaf, _nodes, max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(ast_strategy)
def test_parse_print_is_idempotent(ast):
    once = parse_expr(to_string(ast))
    twice = parse_expr(to_string(once))
    assert once == twice


@settings(max_examples=100, deadline=None)
@given(ast_strategy)
def test_printed_form_evaluates_identically(ast):
    reparsed = parse_expr(to_string(ast))
    t, xs = 0.7, [0.3, -1.2, 2.0]
    try:
        ref = eval_field(ast, t, xs)
    except ExprEvalError:
        return
    assert eval_field(reparsed, t, xs) == ref


# -- grid evaluator against the tree walk -------------------------------------

_grid_leaf = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]).map(Num),
    st.floats(min_value=-3, max_value=3, allow_nan=False,
              allow_infinity=False).map(lambda v: Num(float(v))),
    st.sampled_from(["t", "x1", "x2"]).map(Var),
)
_times = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                   st.floats(min_value=-4, max_value=4, allow_nan=False,
                             allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(st.recursive(_grid_leaf, _nodes, max_leaves=12),
       st.lists(_times, min_size=1, max_size=3), st.sampled_from([5, 6]))
@example(parse_expr("(x1*t)^2 + (x2+t)^-1 + (x1^2+t)^0.5"), [0.7, 1.3], 5)
def test_grid_field_matches_tree_walk(ast, times, n):
    # one evaluator per (ast, grid), called at several times: the same bits
    # as the tree walk, or the same error message; the explicit example has
    # the exponents numpy special-cases when they are scalars
    grid = SpaceGrid(2, 2.0, n)
    with np.errstate(all="ignore"):
        for t in times:
            try:
                want = evaluate(ast, t, grid.mesh()) * np.ones(grid.shape)
            except ExprEvalError as exc:
                with pytest.raises(ExprEvalError) as got:
                    grid.field(ast, t)
                assert str(got.value) == str(exc)
                continue
            got = grid.field(ast, t)
            assert got.shape == grid.shape
            assert got.tobytes() == want.tobytes()
