"""The ring of :mod:`bipara.poly` against an arithmetic outside it: sympy.

Every route of the library shares ``MultiPoly``, so a fault in its kernel
would move all routes alike and their cross-checks would still agree.  Here
each ring operation is compared with ``sympy.Poly`` over QQ.  The comparison
reads the terms of both sides as exact rationals; ``Poly`` equality would
also compare domains, and printing through strings is far slower.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bipara.poly import MultiPoly

sympy = pytest.importorskip("sympy")

VARS = ("x1", "x2", "y1", "y2")
SYMBOLS = sympy.symbols(VARS)
ZERO = MultiPoly(VARS, {})
IMAGE_VARS = ("u", "v")
IMAGE_SYMBOLS = sympy.symbols(IMAGE_VARS)

coeffs = st.builds(Fraction, st.integers(min_value=-20, max_value=20), st.integers(min_value=1, max_value=12))


def polys(variables, max_degree, max_size):
    exponents = st.tuples(*[st.integers(min_value=0, max_value=max_degree)] * len(variables))
    return st.dictionaries(exponents, coeffs, max_size=max_size).map(
        lambda terms: MultiPoly(variables, terms)
    )


def to_sympy(p: MultiPoly, symbols) -> "sympy.Poly":
    return sympy.Poly.from_dict(dict(p.terms), *symbols, domain="QQ")


def terms_of(q: "sympy.Poly") -> dict:
    """The nonzero terms of a sympy polynomial, coefficients as Fractions."""
    return {exps: Fraction(int(c.p), int(c.q)) for exps, c in q.as_dict().items() if c}


@given(
    polys(VARS, 3, 12),
    polys(VARS, 3, 12),
    st.sampled_from(VARS),
    st.lists(coeffs, min_size=len(VARS), max_size=len(VARS)),
)
@settings(max_examples=80, deadline=None)
# An empty operand on either side, or both: the sum and the difference return
# the other operand (negated for 0 - b) without building a new one.
@example(a=ZERO, b=MultiPoly(VARS, {(1, 0, 2, 0): Fraction(-3, 2), (0, 1, 0, 0): 4}), name="x1", point=[1, 2, 3, 4])
@example(a=MultiPoly(VARS, {(0, 0, 1, 1): 5, (2, 0, 0, 0): Fraction(1, 3)}), b=ZERO, name="y1", point=[0, -1, 2, 1])
@example(a=ZERO, b=ZERO, name="x2", point=[1, 1, 1, 1])
def test_ring_operations_match_sympy(a, b, name, point):
    sa, sb = to_sympy(a, SYMBOLS), to_sympy(b, SYMBOLS)
    assert a.terms == terms_of(sa)
    assert (a + b).terms == terms_of(sa + sb)
    assert (a - b).terms == terms_of(sa - sb)
    assert (a * b).terms == terms_of(sa * sb)
    assert a.derivative(name).terms == terms_of(sa.diff(SYMBOLS[VARS.index(name)]))
    value = sa(*point)
    assert a.evaluate(point) == Fraction(int(value.p), int(value.q))


@given(
    polys(VARS[:3], 3, 6),
    st.lists(polys(IMAGE_VARS, 2, 4), min_size=3, max_size=3),
)
@settings(max_examples=20, deadline=None)
def test_substitute_matches_sympy(p, images):
    # the composite is formed in sympy's ring, term by term
    simages = [to_sympy(img, IMAGE_SYMBOLS) for img in images]
    expected = sympy.Poly(0, *IMAGE_SYMBOLS, domain="QQ")
    for exps, coeff in p.terms.items():
        term = sympy.Poly(coeff, *IMAGE_SYMBOLS, domain="QQ")
        for image, k in zip(simages, exps):
            term = term * image**k
        expected = expected + term
    composite = p.substitute(dict(zip(p.variables, images)))
    assert composite.variables == IMAGE_VARS
    assert composite.terms == terms_of(expected)
