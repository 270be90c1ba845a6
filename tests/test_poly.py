from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipara.poly import (
    MAX_COEFFICIENT_BITS,
    MAX_EXPONENT,
    MAX_TERM_PRODUCTS,
    MultiPoly,
    PolyError,
    PolyParseError,
    parse_poly,
)

VARS = ("x1", "x2", "y1", "y2")


def test_parse_zero_no_variables():
    p = parse_poly("0", ())
    assert p.is_zero
    assert str(p) == "0"


def test_parse_three_term_example():
    p = parse_poly("3/2*x1^2*y1 - x1 + 5", VARS)
    assert p.terms == {
        (2, 0, 1, 0): Fraction(3, 2),
        (1, 0, 0, 0): Fraction(-1),
        (0, 0, 0, 0): Fraction(5),
    }
    assert str(p) == "3/2*x1^2*y1 - x1 + 5"


def test_ring_identity_collapses_to_zero():
    assert parse_poly("x1*x1 - x1^2", ("x1",)).is_zero


def test_parse_errors_carry_offsets():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x1 + zz", ("x1",))
    assert err.value.offset == 5
    with pytest.raises(PolyParseError):
        parse_poly("x1 +", ("x1",))
    with pytest.raises(PolyParseError):
        parse_poly("x1^-2", ("x1",))
    with pytest.raises(PolyParseError):
        parse_poly("x1/2", ("x1",))


def test_unary_minus_and_parentheses():
    p = parse_poly("-(x1 - 2)*x1", ("x1",))
    assert p == parse_poly("2*x1 - x1^2", ("x1",))


def test_derivative_examples():
    p = parse_poly("x1^2*y1", VARS)
    assert p.derivative("x1") == parse_poly("2*x1*y1", VARS)
    assert parse_poly("5", VARS).derivative("y1").is_zero
    q = parse_poly("3/2*x1^2 - x1", VARS)
    assert q.derivative("x1") == parse_poly("3*x1 - 1", VARS)
    with pytest.raises(PolyError):
        p.derivative("nope")


def test_substitute_composes():
    p = parse_poly("x1^2 + y1", ("x1", "y1"))
    images = {
        "x1": parse_poly("u + v", ("u", "v")),
        "y1": parse_poly("u*v", ("u", "v")),
    }
    assert p.substitute(images) == parse_poly("u^2 + 2*u*v + v^2 + u*v", ("u", "v"))


def test_evaluate_exact():
    p = parse_poly("1/3*x1^2 - y1", ("x1", "y1"))
    assert p.evaluate([Fraction(3, 2), Fraction(1, 4)]) == Fraction(1, 2)


def test_canonical_order_is_graded_lex():
    p = parse_poly("x2 + x1 + x1*x2 + x1^2", ("x1", "x2"))
    assert str(p) == "x1^2 + x1*x2 + x1 + x2"


# -- randomized ring laws ----------------------------------------------------

coeffs = st.fractions(
    max_denominator=12,
)
exponents = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)
polys = st.dictionaries(exponents, coeffs, max_size=5).map(
    lambda terms: MultiPoly(("x1", "x2"), terms)
)


@given(polys, polys, polys)
@settings(max_examples=120, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero
    zero = MultiPoly.zero(("x1", "x2"))
    one = MultiPoly.const(("x1", "x2"), 1)
    assert a + zero == a
    assert a * one == a


@given(polys, polys, coeffs)
@settings(max_examples=120, deadline=None)
def test_ring_results_stay_canonical(a, b, scalar):
    # ring operations build their results without re-validation; a second
    # pass through the public constructor must find nothing to change
    for p in (a + b, a - b, a * b, -a, a.scale(scalar), a.derivative("x1"), a**2):
        assert MultiPoly(p.variables, p.terms) == p
        assert all(isinstance(c, Fraction) and c != 0 for c in p.terms.values())
        assert all(len(e) == len(p.variables) and min(e) >= 0 for e in p.terms)


def test_zero_is_shared_and_immutable():
    zero = MultiPoly.zero(("x1", "x2"))
    assert zero is MultiPoly.zero(("x1", "x2"))
    assert zero is MultiPoly.zero(["x1", "x2"])
    assert zero is not MultiPoly.zero(("x1",))
    assert zero.is_zero and zero.variables == ("x1", "x2")
    with pytest.raises(AttributeError):
        zero.terms = {(1, 0): Fraction(1)}
    with pytest.raises(AttributeError):
        zero.variables = ("x1",)


def test_public_constructor_still_validates():
    with pytest.raises(PolyError):
        MultiPoly(("x1",), {(1, 0): Fraction(1)})
    with pytest.raises(PolyError):
        MultiPoly(("x1",), {(-1,): Fraction(1)})
    with pytest.raises(PolyError):
        MultiPoly(("x1",), {(1,): 0.5})


def test_parser_power_matches_ring_power():
    base = parse_poly("x1 - 2*x2 + 1/3", ("x1", "x2"))
    for e in (0, 1, 5, 8):
        assert parse_poly(f"(x1 - 2*x2 + 1/3)^{e}", ("x1", "x2")) == base**e


def test_exponent_limit_names_limit_and_offset():
    parse_poly(f"x1^{MAX_EXPONENT}", ("x1",))
    with pytest.raises(PolyParseError) as err:
        parse_poly(f"x1^{MAX_EXPONENT + 1}", ("x1",))
    assert "MAX_EXPONENT" in str(err.value)
    assert err.value.offset == 3


def test_term_product_budget_stops_expansion_early():
    variables = ("x1", "x2", "y1", "y2")
    # 4845 terms would take about 250k term products
    with pytest.raises(PolyParseError) as err:
        parse_poly("(x1+x2+y1+y2+1)^16", variables)
    assert "MAX_TERM_PRODUCTS" in str(err.value)
    assert err.value.offset == 15
    # the budget is spent across every product of one expression
    with pytest.raises(PolyParseError) as err:
        parse_poly("(x1+x2+y1+y2+1)^8 * (x1+x2+y1+y2+1)^8", variables)
    assert err.value.offset == 18  # the "*"
    assert len(parse_poly("(x1+x2+y1+y2+1)^8", variables).terms) == 495
    assert MAX_TERM_PRODUCTS >= 10 * 495


def test_overlong_number_is_parse_error():
    digits = "7" * 5000
    for text in (digits, f"1/{digits}", f"x1^{digits}"):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text, ("x1",))
        assert "digits" in str(err.value)


def test_coefficient_size_limit_names_limit_and_offset():
    largest = 2**MAX_COEFFICIENT_BITS - 1
    assert parse_poly(str(largest), ()).constant_value() == largest
    assert parse_poly(f"1/{largest}", ()).constant_value() == Fraction(1, largest)
    for text, offset in (
        (str(largest + 1), 0),
        (f"x1 + 1/{largest + 1}", 5),
        # checked on every product: the fourth squaring of 10^100 stops it
        ("(10^100)^100", 8),
        (f"{largest} * 2", len(str(largest)) + 1),  # the "*"
    ):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text, ("x1",))
        assert f"MAX_COEFFICIENT_BITS = {MAX_COEFFICIENT_BITS}" in str(err.value)
        assert err.value.offset == offset
    # the largest accepted coefficient prints within the int-to-str limit
    assert len(str(parse_poly(str(largest), ()))) < 4300


@given(polys)
@settings(max_examples=120, deadline=None)
def test_parse_print_round_trip(p):
    assert parse_poly(str(p), ("x1", "x2")) == p


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_derivative_is_a_derivation(a, b):
    lhs = (a * b).derivative("x1")
    rhs = a.derivative("x1") * b + a * b.derivative("x1")
    assert lhs == rhs


@given(st.text(alphabet="x12y+-*^/() \t", max_size=30))
@settings(max_examples=200, deadline=None)
def test_parser_never_crashes(text):
    # arbitrary input either parses or raises the typed error with an offset
    try:
        parse_poly(text, ("x1", "y1"))
    except PolyParseError as err:
        assert isinstance(err.offset, int)
        assert 0 <= err.offset <= len(text)
