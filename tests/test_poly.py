from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bipara.cli import Analysis
from bipara.connections import ChristoffelTable
from bipara.geometry import EndoField, VectorField
from bipara.linalg import PolyMatrix
from bipara.poly import (
    MAX_COEFFICIENT_BITS,
    MAX_EXPONENT,
    MAX_TERM_PRODUCTS,
    MultiPoly,
    PolyError,
    PolyParseError,
    _Parser,
    _Substitution,
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


def is_canonical(c) -> bool:
    """The one stored coefficient form: an int if integral, else a Fraction."""
    if c.denominator == 1:
        return type(c) is int and c != 0
    return type(c) is Fraction and c.denominator > 1


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
        assert all(is_canonical(c) for c in p.terms.values())
        assert all(len(e) == len(p.variables) and min(e) >= 0 for e in p.terms)


@pytest.mark.parametrize("variables", [("x1", "x2"), ()], ids=["chart", "constant"])
@pytest.mark.parametrize("coeff", [3, Fraction(-2, 3)], ids=["int", "Fraction"])
def test_unit_operand_returns_the_other_operand(variables, coeff):
    terms = {(0,) * len(variables): coeff}
    if variables:
        terms[(1, 2)] = 5
    p = MultiPoly(variables, terms)
    for one in (MultiPoly.const(variables, 1), MultiPoly.const(variables, Fraction(2, 2))):
        assert p * one is p
        assert one * p is p
    assert p * 1 is p and 1 * p is p and p * Fraction(1) is p
    other_ring = MultiPoly.const(("u",) + variables, 1)
    with pytest.raises(PolyError):
        p * other_ring
    with pytest.raises(PolyError):
        other_ring * p


def _substitute_by_terms(p: MultiPoly, images) -> MultiPoly:
    """``substitute`` written term by term, each power expanded per term: the reference."""
    target = next(iter(images.values())).variables if p.variables else ()
    acc = MultiPoly.zero(target)
    for exps, coeff in p.terms.items():
        term = MultiPoly.const(target, coeff)
        for name, e in zip(p.variables, exps):
            if e:
                term = term * images[name] ** e
        acc = acc + term
    return acc


image_polys = st.one_of(
    st.dictionaries(exponents, coeffs, max_size=4),
    coeffs.map(lambda c: {(0, 0): c}),
).map(lambda terms: MultiPoly(("u", "v"), terms))


# x1 appears to the powers 1, 2 and 3 and x2 to 2 and 3, so a power memo that
# does not tell the exponents apart gives a wrong sum.
@example(
    MultiPoly(("x1", "x2"), {(2, 0): 1, (3, 2): Fraction(1, 2), (1, 3): -4, (0, 0): 7}),
    MultiPoly(("u", "v"), {(1, 0): 1, (0, 1): 2}),
    MultiPoly(("u", "v"), {(1, 1): -1, (0, 0): 3}),
)
@given(polys, image_polys, image_polys)
@settings(max_examples=120, deadline=None)
def test_substitute_matches_the_term_by_term_reference(p, x1, x2):
    images = {"x1": x1, "x2": x2}
    result = p.substitute(images)
    assert result == _substitute_by_terms(p, images)
    assert result.variables == ("u", "v")
    assert all(is_canonical(c) for c in result.terms.values())


def test_substitute_still_checks_its_images():
    p = parse_poly("x1^2*x2 + x2", ("x1", "x2"))
    u = MultiPoly.var(("u", "v"), "u")
    with pytest.raises(PolyError, match="missing"):
        p.substitute({"x1": u})
    with pytest.raises(PolyError, match="different rings"):
        p.substitute({"x1": u, "x2": MultiPoly.var(("u",), "u")})
    # the ring check covers every image, also those of absent variables
    with pytest.raises(PolyError, match="different rings"):
        parse_poly("x1", ("x1", "x2")).substitute({"x1": u, "x2": MultiPoly.const(("w",), 1)})
    # a prepared substitution makes the same checks once, when it is made
    with pytest.raises(PolyError, match="missing"):
        _Substitution(("x1", "x2"), {"x1": u})
    with pytest.raises(PolyError, match="different rings"):
        _Substitution(("x1", "x2"), {"x1": u, "x2": MultiPoly.var(("u",), "u")})


# Images of one term only move exponents and scale coefficients: a scaled
# power (x -> 2*u^2), a constant (x -> 1/2) or zero; images of several terms
# are multiplied out.
single_term_images = st.tuples(exponents, coeffs).map(lambda term: {term[0]: term[1]})
mixed_images = st.one_of(st.just({}), single_term_images, st.dictionaries(exponents, coeffs, max_size=4))


@example(
    [MultiPoly(("x1", "x2"), {(3, 1): 3, (2, 0): Fraction(1, 2), (0, 2): -1, (0, 0): 5})],
    {(2, 0): 2},
    {(0, 0): Fraction(1, 2)},
    ("u", "v"),
)
@example(
    [MultiPoly(("x1", "x2"), {(2, 3): 1, (1, 1): -2}), MultiPoly(("x1", "x2"), {(0, 3): 4, (1, 0): 1})],
    {},
    {(1, 0): 1, (0, 1): Fraction(-1, 3)},
    ("x2", "x1"),
)
@example(
    [MultiPoly(("x1", "x2"), {(3, 2): Fraction(1, 2), (2, 3): 1, (1, 0): 2})],
    {(1, 0): 1, (0, 1): 2},
    {(1, 1): -1, (0, 0): 3},
    ("v", "u"),
)
@given(
    st.lists(polys, min_size=1, max_size=3),
    mixed_images,
    mixed_images,
    st.sampled_from([("u", "v"), ("v", "u"), ("x2", "x1")]),
)
@settings(max_examples=150, deadline=None)
def test_prepared_substitution_matches_the_term_by_term_reference(ps, x1_terms, x2_terms, target):
    images = {"x1": MultiPoly(target, x1_terms), "x2": MultiPoly(target, x2_terms)}
    prepared = _Substitution(("x1", "x2"), images)
    # one prepared substitution serves several polynomials, as a map's does
    for p in ps:
        expected = _substitute_by_terms(p, images)
        for result in (p.substitute(prepared), p.substitute(images)):
            assert result == expected
            assert result.variables == target
            assert all(is_canonical(c) for c in result.terms.values())
        if p.is_zero:
            assert p.substitute(prepared) is MultiPoly.zero(target)


def test_prepared_substitution_checks_the_ring_of_its_argument():
    u = MultiPoly.var(("u", "v"), "u")
    prepared = _Substitution(("x1", "x2"), {"x1": u, "x2": u + 1})
    for other in (parse_poly("x1 + x2", ("x2", "x1")), MultiPoly.zero(("x1",)), MultiPoly.const((), 3)):
        with pytest.raises(PolyError, match="prepared for"):
            other.substitute(prepared)


def test_derivative_of_zero_is_zero_and_still_checks_the_name():
    zero = MultiPoly.zero(VARS)
    assert zero.derivative("x1") is zero
    assert MultiPoly(VARS, {}).derivative("y2").is_zero
    with pytest.raises(PolyError, match="unknown variable"):
        zero.derivative("nope")


def test_integral_coefficients_are_stored_as_int():
    v = ("x1", "x2")
    x1 = MultiPoly.var(v, "x1")
    half = MultiPoly.const(v, Fraction(1, 2))
    cases = {
        "constructor": (MultiPoly(v, {(1, 0): Fraction(4, 2)}), 2),
        "scale": ((3 * x1).scale(Fraction(1, 3)), 1),
        "sum of halves": (half * x1 + half * x1, 1),
        "difference": (Fraction(3, 2) * x1 - Fraction(1, 2) * x1, 1),
        "product": (Fraction(3, 2) * x1 * 2, 3),
        "derivative": ((Fraction(1, 2) * x1**2).derivative("x1"), 1),
        "division": ((2 * x1) / 2, 1),
    }
    for name, (p, coeff) in cases.items():
        assert p.terms == {(1, 0): coeff}, name
        assert all(is_canonical(c) for c in p.terms.values()), name
    assert MultiPoly.var(v, "x2").terms == {(0, 1): 1}
    assert type(MultiPoly.const(v, Fraction(6, 3)).constant_value()) is int
    zero = MultiPoly.zero(v)
    for value in (zero.constant_value(), zero.constant_part(), x1.constant_part()):
        assert value == 0 and type(value) is int


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


def test_zero_negates_to_itself():
    zero = MultiPoly.zero(VARS)
    assert -zero is zero
    built = MultiPoly(VARS, {})
    assert -built is built


@pytest.mark.parametrize("text", ["x1", "-3/2*x1^2*y2 + 7*y1 - 1/5", "2", "-x2*y1 + x1*y2"])
def test_negation_of_a_nonzero_polynomial(text):
    p = parse_poly(text, VARS)
    negated = -p
    # The negated terms, term by term, in a new polynomial.
    assert negated is not p
    assert negated == MultiPoly(VARS, {e: -c for e, c in p.terms.items()})
    assert str(negated) == str(parse_poly(f"-({text})", VARS))
    assert (p + negated).is_zero and -negated == p


def test_scale_of_zero_still_checks_the_scalar():
    zero = MultiPoly.zero(("x1", "x2"))
    with pytest.raises(PolyError):
        zero.scale("x")
    with pytest.raises(PolyError):
        zero.scale(0.5)
    assert zero.scale(Fraction(1, 3)).is_zero
    assert zero.scale(Fraction(1, 3)) == zero


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
    # a monomial costs what its products cost token by token: 1 per '*', and
    # 1 per squaring and per set bit of each exponent (x1^7: 5, x1^8: 4)
    factors = "*".join(["x1"] * (MAX_TERM_PRODUCTS - 4))
    assert parse_poly(f"{factors}*x1*x1*x1*x1", variables).terms == {(MAX_TERM_PRODUCTS, 0, 0, 0): 1}
    assert parse_poly(f"{factors}*x1^8", variables).terms == {(MAX_TERM_PRODUCTS + 4, 0, 0, 0): 1}
    with pytest.raises(PolyParseError, match="MAX_TERM_PRODUCTS"):
        parse_poly(f"{factors}*x1^7", variables)


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


ring_polys = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=4)] * len(VARS)), coeffs, max_size=8
).map(lambda terms: MultiPoly(VARS, terms))


def _ring_sum(written):
    """The sum of written ``(coeff, exps)`` terms, formed by ring operations
    only, in the order they are written: ``t1 + t2 + ...``."""
    acc = MultiPoly.zero(VARS)
    for coeff, exps in written:
        term = MultiPoly.const(VARS, coeff)
        for name, k in zip(VARS, exps):
            term = term * MultiPoly.var(VARS, name) ** k
        acc = term if acc.is_zero else acc + term
    return acc


@st.composite
def decorated(draw, p):
    """``p`` written so that no monomial is one token: spaces around '*' and
    '^', redundant parentheses, factors out of order, and some terms split in
    two that the sum merges again.  Returns the text and its written terms."""
    written = []
    for exps, coeff in p.sorted_terms():
        if draw(st.booleans()):
            part = draw(coeffs)
            written += [(coeff - part, exps), (part, exps)]
        else:
            written.append((coeff, exps))
    chunks = []
    for coeff, exps in written:
        factors = [f"{name} ^ {k}" if k > 1 else name for name, k in zip(VARS, exps) if k]
        factors.append(f"( {abs(coeff)} )")
        body = " * ".join(draw(st.permutations(factors)))
        sign = "-" if coeff < 0 else "+" if chunks else ""  # no unary '+'
        chunks.append(f"{sign} ({body})")
    return " ".join(chunks) or "(0)", written


def test_monomial_token_edge_cases():
    x1, x2 = MultiPoly.var(VARS, "x1"), MultiPoly.var(VARS, "x2")
    cases = {
        "4/2*x1": 2 * x1,  # reduced to the int 2
        "2/4*x1^2*x2": Fraction(1, 2) * x1**2 * x2,
        "x1*x2*x1": x1**2 * x2,  # a repeated name adds exponents
        "x1^0": MultiPoly.const(VARS, 1),
        "3*x1^0*x2": 3 * x2,
        "0*x1": MultiPoly.zero(VARS),
        "x1 ^ 2": x1**2,  # a spaced '^' ends no monomial early
        "2*x1^2 * x2 - x2*x1": 2 * x1**2 * x2 - x1 * x2,
        "٣*x1^٢": 3 * x1**2,
    }
    for text, expected in cases.items():
        parsed = parse_poly(text, VARS)
        assert parsed == expected, text
        assert [type(c) for c in parsed.terms.values()] == [type(c) for c in expected.terms.values()], text
    # a lone variable, spaced or not, is the shared instance
    assert parse_poly(" x1 ", VARS) is x1
    assert parse_poly("(x2)", VARS) is x2


@given(ring_polys, st.data())
@settings(max_examples=100, deadline=None)
def test_parser_matches_the_ring(p, data):
    # str(p) takes the one-step monomial token; the decorated form is read
    # token by token.  Both give p, with the coefficient forms and the term
    # order of the ring sum of the written terms.
    renderings = [(str(p), [(c, e) for e, c in p.sorted_terms()]), data.draw(decorated(p))]
    for text, written in renderings:
        parsed, expected = parse_poly(text, VARS), _ring_sum(written)
        assert parsed == p == expected, text
        assert list(parsed.terms) == list(expected.terms), text
        assert [type(c) for c in parsed.terms.values()] == [type(c) for c in expected.terms.values()]


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_derivative_is_a_derivation(a, b):
    lhs = (a * b).derivative("x1")
    rhs = a.derivative("x1") * b + a * b.derivative("x1")
    assert lhs == rhs


_PRIMARY = "expected a number, variable or parenthesized expression"
_DIGITS_5000 = "number of 5000 digits is too long"


@pytest.mark.parametrize(
    "text, message, offset",
    [
        pytest.param(" \tx1 + $ ", "unexpected character '$'", 7, id="unexpected_character"),
        pytest.param("x1 x2\t", "unexpected 'x2' after expression", 3, id="after_expression"),
        pytest.param("x1)", "unexpected ')' after expression", 2, id="after_expression_symbol"),
        pytest.param("x1^-2", "exponent must be a nonnegative integer", 3, id="exponent_sign"),
        pytest.param("x1 ^ \t", "exponent must be a nonnegative integer", 6, id="exponent_at_end"),
        pytest.param("\tx1^101 ", "exponent above MAX_EXPONENT = 100", 4, id="max_exponent"),
        pytest.param("1/x1", "denominator must be an integer", 2, id="denominator_name"),
        pytest.param(" 1/ ", "denominator must be an integer", 4, id="denominator_at_end"),
        pytest.param(" 1/0", "zero denominator", 3, id="zero_denominator"),
        pytest.param("(x1 + 1\t", "expected ')'", 8, id="close_paren_at_end"),
        pytest.param("x1 + ", _PRIMARY, 5, id="primary_at_end"),
        pytest.param("\t* x1", _PRIMARY, 1, id="primary_symbol"),
        pytest.param("", _PRIMARY, 0, id="empty"),
        pytest.param("\t", _PRIMARY, 1, id="blank"),
        pytest.param("x1 + zz ", "unknown variable 'zz'", 5, id="unknown_variable"),
        pytest.param("(" * 101 + "1" + ")" * 101, "nesting deeper than 100", 100, id="nesting_parentheses"),
        pytest.param(" " + "-" * 101 + "1", "nesting deeper than 100", 101, id="nesting_minus"),
        pytest.param(
            "(x1+x2+y1+y2+1)^16",
            "expansion needs more than MAX_TERM_PRODUCTS = 50000 term products",
            15,
            id="max_term_products",
        ),
        pytest.param(
            f" {2**4096} ", "coefficient above MAX_COEFFICIENT_BITS = 4096 bits", 1, id="max_coefficient_bits"
        ),
        pytest.param("x1 + " + "7" * 5000, _DIGITS_5000, 5, id="long_number"),
        pytest.param("x1^" + "7" * 5000, _DIGITS_5000, 3, id="long_exponent"),
        # two errors: the first in the text wins
        pytest.param("x1 + + $", _PRIMARY, 5, id="primary_before_bad"),
        pytest.param("zz$", "unknown variable 'zz'", 0, id="unknown_before_bad"),
        pytest.param("9" * 5000 + "$", _DIGITS_5000, 0, id="long_before_bad"),
        pytest.param("1/0$", "zero denominator", 2, id="zero_before_bad"),
        pytest.param("x1 ^ 101$", "exponent above MAX_EXPONENT = 100", 5, id="exponent_before_bad"),
        pytest.param(
            "(x1+x2+y1+y2+1)^16$",
            "expansion needs more than MAX_TERM_PRODUCTS = 50000 term products",
            15,
            id="power_before_bad",
        ),
        pytest.param(
            f"{2**4096}/1$", "coefficient above MAX_COEFFICIENT_BITS = 4096 bits", 0, id="fraction_before_bad"
        ),
        pytest.param(" (x1 $", "unexpected character '$'", 5, id="bad_before_close_paren"),
        pytest.param("x1^\t$", "unexpected character '$'", 4, id="bad_exponent"),
        # errors inside a canonical monomial, which is then read token by token
        pytest.param("3*x1*zz", "unknown variable 'zz'", 5, id="monomial_unknown_variable"),
        pytest.param("2*x1^101", "exponent above MAX_EXPONENT = 100", 5, id="monomial_max_exponent"),
        pytest.param("2*x1 ^ 101", "exponent above MAX_EXPONENT = 100", 7, id="monomial_spaced_caret"),
        pytest.param("3/0*x1", "zero denominator", 2, id="monomial_zero_denominator"),
        pytest.param(
            f"{2**4096}*x1",
            "coefficient above MAX_COEFFICIENT_BITS = 4096 bits",
            0,
            id="monomial_max_coefficient_bits",
        ),
        pytest.param("2*x1^" + "0" * 5000 + "1", "number of 5001 digits is too long", 5, id="monomial_long_exponent"),
        # 50,001 factors spend exactly the 50,000-product budget; one more is over
        pytest.param(
            "*".join(["x1"] * 50_002),
            "expansion needs more than MAX_TERM_PRODUCTS = 50000 term products",
            150_002,
            id="monomial_max_term_products",
        ),
    ],
)
def test_parse_error_messages_and_offsets(text, message, offset):
    with pytest.raises(PolyParseError) as err:
        parse_poly(text, VARS)
    assert str(err.value) == f"{message} (at offset {offset})"
    assert err.value.offset == offset


def test_negative_leading_monomial_is_read_in_one_step(monkeypatch):
    # Each text is read token by token through its parenthesized twin; the
    # leading '-<monomial>' must give the same value, coefficient forms and
    # term products without a ring product.
    twins = {
        "-3*x1*y2": "-(3)*(x1)*(y2)",
        "-x1": "-(x1)",
        "-1/2*x1^2*y2": "-(1/2)*(x1)^2*(y2)",
        "-4/2*x2^3 + y1": "-(4/2)*(x2)^3 + y1",
        " - 2*x1*y1 - y2": " - (2)*(x1)*(y1) - y2",
    }
    expected = {}
    for text, twin in twins.items():
        parser = _Parser(twin, VARS)
        expected[text] = (parser.parse(), parser.term_products)

    def no_product(self, other):
        raise AssertionError("ring product")

    monkeypatch.setattr(MultiPoly, "__mul__", no_product)
    for text, (value, products) in expected.items():
        parser = _Parser(text, VARS)
        parsed = parser.parse()
        assert parsed == value, text
        assert [type(c) for c in parsed.terms.values()] == [type(c) for c in value.terms.values()], text
        assert parser.term_products == products, text


def test_zero_operands_return_the_other_operand():
    for variables in (VARS, ()):
        zero = MultiPoly.zero(variables)
        exps = (1, 0, 2, 0) if variables else ()
        for coeff in (3, Fraction(-5, 2)):
            p = MultiPoly(variables, {exps: coeff})
            for z in (0, zero):
                assert (p + z) is p and (z + p) is p and (p - z) is p
                assert (z - p) == -p and (z - p).terms == {exps: -coeff}
            assert all(type(c) is type(coeff) for q in (p + 0, 0 - p) for c in q.terms.values())
        assert (zero + zero).is_zero and (zero - zero).is_zero and (0 - zero).is_zero


def test_digits_are_what_int_reads():
    # '²' passes str.isdigit but not int(): it starts no token
    for text, offset in (("x1^²", 3), ("1²", 1), ("²", 0)):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text, VARS)
        assert str(err.value) == f"unexpected character '²' (at offset {offset})"
    # a decimal digit of another script is a digit: '٣' is 3
    assert parse_poly("x1^٣ + ٣", VARS) == parse_poly("x1^3 + 3", VARS)
    # inside a name every word character is kept, so the variable is unknown
    with pytest.raises(PolyParseError, match="unknown variable 'x²'"):
        parse_poly("x²", VARS)


def test_variables_are_shared_per_ring():
    assert MultiPoly.var(VARS, "x1") is MultiPoly.var(VARS, "x1")
    assert MultiPoly.var(VARS, "x1") is MultiPoly.var(list(VARS), "x1")
    assert MultiPoly.var(VARS, "x1") is not MultiPoly.var(("x1",), "x1")
    assert parse_poly("x1", VARS) is MultiPoly.var(VARS, "x1")
    assert MultiPoly.var(VARS, "y2").terms == {(0, 0, 0, 1): 1}
    with pytest.raises(PolyError, match="unknown variable 'zz'"):
        MultiPoly.var(VARS, "zz")


@given(st.text(alphabet=[*"x12y+-*^/() \t", "²", "٣", "α", "$", "\u00a0"], max_size=30))
@settings(max_examples=200, deadline=None)
def test_parser_never_crashes(text):
    # arbitrary input either parses or raises the typed error with an offset
    try:
        parse_poly(text, ("x1", "y1"))
    except PolyParseError as err:
        assert isinstance(err.offset, int)
        assert 0 <= err.offset <= len(text)


def _polys(obj):
    """Every MultiPoly inside a derived tensor, table, field or matrix."""
    if isinstance(obj, MultiPoly):
        yield obj
    elif isinstance(obj, VectorField):
        yield from obj.components
    elif isinstance(obj, PolyMatrix):
        yield from obj.entries
    elif isinstance(obj, EndoField):
        yield from obj.matrix.entries
    elif isinstance(obj, ChristoffelTable):
        yield from _polys((obj.xx, obj.yx))
    elif isinstance(obj, dict):
        yield from _polys(tuple(obj.values()))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _polys(item)


def test_every_kernel_stores_canonical_coefficients(generated_pool):
    # the ring operations are not the only producers of terms: brackets,
    # matvec, the 1/3-weighted sums, the coframe inverse and substitute all
    # feed the derived tensors of an analysis
    for s in generated_pool:
        a = Analysis(s)
        brackets = [s.frame_bracket(i, j) for i in range(s.dim) for j in range(s.dim)]
        objects = [s.F, s.P, s.adapted_frame, s.coframe, brackets]
        for kind in ("canonical", "well-adapted"):
            objects += [a.law(kind).cells(), a.torsion(kind).cells(), a.curvature(kind).cells()]
        objects += [a.difference.cells(), a.christoffels("canonical")]
        objects += [a.christoffels("well-adapted")]
        objects += [a.concomitant(tensor).cells() for tensor in ("F", "P", "FP")]
        # cells() are generators of (indices, field) pairs; the int indices hold no polynomial
        objects = [list(obj) if hasattr(obj, "__next__") else obj for obj in objects]
        coefficients = [c for p in _polys(objects) for c in p.terms.values()]
        assert coefficients
        assert all(is_canonical(c) for c in coefficients)
