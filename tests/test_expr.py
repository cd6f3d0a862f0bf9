import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plap import EvalError, ParseError, eval_expr, format_expr, parse_expr
from plap.expr import MAX_DEPTH, eval_expr_array


def ev(src, x=0.0, y=None):
    return eval_expr(parse_expr(src), x, y)


def test_precedence_basics():
    assert ev("1 + 2*3") == 7.0
    assert ev("2*3 + 1") == 7.0
    assert ev("6 / 2 / 3") == 1.0
    assert ev("2 - 3 - 4") == -5.0


def test_power_right_associative():
    assert ev("2^3^2") == 512.0


def test_unary_minus_below_power():
    assert ev("-2^2") == -4.0
    assert ev("(-2)^2") == 4.0
    assert ev("2^-1") == 0.5


def test_bump_outside_support():
    assert ev("bump(0.5, 0.1)", x=0.7) == 0.0


def test_bump_center_value():
    assert ev("bump(0.5, 0.1)", x=0.5) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_bump_smooth_profile():
    # t = 0.5 inside the support
    expected = math.exp(-1.0 / (1.0 - 0.25))
    assert ev("bump(0.2, 0.2)", x=0.3) == pytest.approx(expected, rel=1e-14)


def test_sin_at_half():
    assert ev("sin(3.141592653589793*x)", x=0.5) == pytest.approx(1.0, abs=1e-12)


def test_functions():
    assert ev("max(1, 2) + min(3, -1)") == 1.0
    assert ev("abs(-3) + step(0) + step(-0.1)") == 4.0
    assert ev("exp(0) + cos(0)") == 2.0


def test_variables():
    assert ev("x + 1", x=2.0) == 3.0
    assert ev("x*y", x=2.0, y=3.0) == 6.0
    with pytest.raises(EvalError):
        ev("y", x=0.0)  # 1D evaluation


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_expr("1 + $")
    assert info.value.position == 4
    with pytest.raises(ParseError):
        parse_expr("sin(1, 2)")
    with pytest.raises(ParseError) as info:
        parse_expr("foo(1)")
    assert "foo" in str(info.value)
    with pytest.raises(ParseError):
        parse_expr("1 +")
    with pytest.raises(ParseError):
        parse_expr("")
    with pytest.raises(ParseError):
        parse_expr("(1 + 2")
    with pytest.raises(ParseError):
        parse_expr("unknownvar")


def test_eval_errors():
    with pytest.raises(EvalError):
        ev("1/0")
    with pytest.raises(EvalError):
        ev("0^-1")
    with pytest.raises(EvalError):
        ev("(-2)^0.5")
    with pytest.raises(EvalError):
        ev("bump(0.5, -0.1)")
    for src in ["exp(1000)", "10^400", "x*1e300*1e300", "sin(exp(1000))", "1/exp(1000)"]:
        with pytest.raises(EvalError, match="is not finite"):
            ev(src, x=0.5)


def test_non_finite_literals_are_parse_errors():
    for src, pos in [("1e400", 0), ("x*1e400", 2), ("1e400-1e400", 0), ("sin(1e400)", 4)]:
        with pytest.raises(ParseError, match="not finite") as info:
            parse_expr(src)
        assert info.value.position == pos


NESTINGS = {  # builders of an expression nested n levels deep
    "parentheses": lambda n: "(" * (n - 1) + "x" + ")" * (n - 1),
    "negations": lambda n: "-" * (n - 1) + "x",
    "powers": lambda n: "1^" * (n - 1) + "x",
    "sum": lambda n: "+".join(["x"] * n),
    "calls": lambda n: "sin(" * (n - 1) + "x" + ")" * (n - 1),
    "right sums": lambda n: "x+(" * ((n - 1) // 2) + "x" + ")" * ((n - 1) // 2),  # two levels a term
}


@pytest.mark.parametrize("shape", NESTINGS)
def test_nesting_is_capped_at_max_depth(shape):
    ast = parse_expr(NESTINGS[shape](MAX_DEPTH))
    xs = np.linspace(0.1, 0.9, 5)
    np.testing.assert_allclose(eval_expr_array(ast, xs), [eval_expr(ast, x) for x in xs], rtol=1e-15)
    assert format_expr(ast)  # walks the whole tree
    for n in (MAX_DEPTH + 1, 10 * MAX_DEPTH):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH}") as info:
            parse_expr(NESTINGS[shape](n))
        assert info.value.position is not None


_leaf = st.one_of(
    st.floats(min_value=0.1, max_value=5.0).map(lambda v: f"{v!r}"),
    st.just("x"),
)


def _exprs(depth):
    if depth == 0:
        return _leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(sub, st.sampled_from("+-*"), sub).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
        st.tuples(st.sampled_from(["sin", "cos", "abs"]), sub).map(lambda t: f"{t[0]}({t[1]})"),
        sub.map(lambda s: f"-({s})"),
        st.tuples(sub, sub).map(lambda t: f"min({t[0]}, {t[1]})"),
    )


@settings(max_examples=60, deadline=None)
@given(src=_exprs(3), xs=st.lists(st.floats(min_value=-3, max_value=3), min_size=5, max_size=5))
def test_format_parse_round_trip(src, xs):
    ast = parse_expr(src)
    again = parse_expr(format_expr(ast))
    for x in xs:
        assert eval_expr(again, x) == pytest.approx(eval_expr(ast, x), rel=1e-15, abs=1e-15)


def test_round_trip_fixed_grid():
    srcs = ["1 + 2*x - x^2", "bump(0.5, 0.25) * sin(3*x)", "max(x, 1 - x) / (2 + cos(x))"]
    xs = [k / 99.0 for k in range(100)]
    for src in srcs:
        ast = parse_expr(src)
        again = parse_expr(format_expr(ast))
        for x in xs:
            assert eval_expr(again, x) == pytest.approx(eval_expr(ast, x), rel=1e-15, abs=1e-15)


def _pointwise(ast, xs, ys=None):
    """eval_expr at each point in order: the values, or the first exception raised."""
    try:
        return np.array([eval_expr(ast, x, None if ys is None else ys[k]) for k, x in enumerate(xs)])
    except Exception as exc:  # noqa: BLE001 - the oracle records whatever eval_expr raises
        return exc


ARRAY_CASES = [
    "1 + 2*x - x^2",
    "bump(0.5, 0.25) * sin(3*x)",
    "max(x, 1 - x) / (2 + cos(x))",
    "min(x, 0.5) + step(x - 0.25) * exp(-x) + abs(x - 0.7)",
    "1 + 0.5*sin(6*x)*sin(5*y)",
    "x^y + 2^(-y)",
    "3",
    "bump(0.958, 0.012)",
]
ERROR_CASES = [
    "1 / (x - 0.5)",  # division by zero at x = 0.5 only
    "(x - 0.3)^0.5",  # negative base: the message names the first offending base
    "bump(0.5, x - 0.5)",  # nonpositive radius, first at x = 0
    "x / (y - 0.25)",
    "y",  # undefined on a 1D grid
    "exp(1000*x)",  # math.exp overflows past x = 0.71
    "(10*x)^400",
    "0^(x - 1)",
    "x*1e300*1e300",  # not finite past x = 0, with no exception from float arithmetic
]


@pytest.mark.parametrize("src", ARRAY_CASES + ERROR_CASES)
@pytest.mark.parametrize("dimension", [1, 2])
def test_array_evaluation_matches_pointwise(src, dimension):
    xs = np.linspace(0.0, 1.0, 41)
    ys = None if dimension == 1 else np.linspace(-0.5, 1.5, 41)[::-1]
    ast = parse_expr(src)
    want = _pointwise(ast, xs, ys)
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as info:
            eval_expr_array(ast, xs, ys)
        assert str(info.value) == str(want)
    else:
        got = eval_expr_array(ast, xs, ys)
        assert got.shape == xs.shape
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def test_error_cases_raise_on_the_1d_grid():
    xs = np.linspace(0.0, 1.0, 41)
    for src in ERROR_CASES:
        assert isinstance(_pointwise(parse_expr(src), xs), Exception), src
