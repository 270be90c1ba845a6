"""The two backends agree where both apply.

A polynomial frame E_1..E_2n on a chart whose brackets are constant,
[E_a, E_b] = c^m_ab E_m, is a left-invariant frame of the Lie algebra with
structure constants c.  The chart structure that is adapted to E (F and P
have the standard adapted blocks in E) and the constant-frame structure on
that algebra must then have the same torsion, curvature and difference tensor
in the frame: evaluated on the E_a and paired with the coframe, each chart
component is the constant-frame component.

The Christoffel symbols are coframe pairings of frame brackets, so on such a
frame they are the structure constants' combinations on both backends.

Both twins come from ``adapted_structure``; the nilpotent charts are
``nilpotent_chart`` on the tables of ``conftest.nilpotent_table``.  None of
the frames is integrable: the torsion is nonzero on each, and on the affine
frame the difference tensor and the well-adapted curvature are too.
"""

import random
from fractions import Fraction

import pytest

from bipara import (
    BiparaStructure,
    PolyMatrix,
    VectorField,
    adapted_structure,
    algebra_context,
    chart_context,
    lie_bracket,
    nilpotent_chart,
    parse_poly,
)
from bipara.cli import Analysis
from bipara.connections import trace_condition_holds, well_adapted_routes_agree
from bipara.poly import MultiPoly
from conftest import nilpotent_table


# X1 = d/dx1, X2 = d/dx2 + x1 d/dx1, Y_k = d/dy_k: [X1, X2] = X1
AFFINE_COLUMNS = [["1", "0", "0", "0"], ["x1", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
AFFINE_TABLE = {(0, 1): (Fraction(1), Fraction(0), Fraction(0), Fraction(0))}


def chart_twin(family: str, n: int, table: dict) -> BiparaStructure:
    """The chart structure adapted to a frame with the structure constants ``table``."""
    if family == "nilpotent":
        return nilpotent_chart(n, table)
    variables = ("x1", "x2", "y1", "y2")
    frame = PolyMatrix.from_rows(
        [[parse_poly(AFFINE_COLUMNS[c][r], variables) for c in range(4)] for r in range(4)]
    )
    return adapted_structure(chart_context(variables), frame)


def _frame_components(s: BiparaStructure, v: VectorField) -> list[Fraction]:
    """The coframe pairings of ``v``; each must be a constant."""
    pairings = s.coframe.matvec(list(v.components))
    assert all(c.is_constant for c in pairings), pairings
    return [c.constant_value() for c in pairings]


def _table_bracket(table: dict, dim: int, a: int, b: int) -> list[Fraction]:
    """[E_a, E_b] as a dense coefficient list, read off the pair-keyed ``table``."""
    if (a, b) in table:
        return list(table[a, b])
    if (b, a) in table:
        return [-c for c in table[b, a]]
    return [Fraction(0)] * dim


def _tensor_components(s: BiparaStructure, frame: list[VectorField]) -> dict:
    """(tensor, slots) -> frame components of that tensor on those frame fields."""
    a = Analysis(s)
    dim = s.dim
    out = {}
    for i in range(dim):
        for j in range(dim):
            out[("A", i, j)] = a.difference.evaluate(frame[i], frame[j])
            for kind in ("canonical", "well-adapted"):
                out[(f"T {kind}", i, j)] = a.torsion(kind).evaluate(frame[i], frame[j])
                r = a.curvature(kind)
                for k in range(dim):
                    out[(f"R {kind}", i, j, k)] = r.evaluate(frame[i], frame[j], frame[k])
    return {key: _frame_components(s, v) for key, v in out.items()}


_rng = random.Random(1729)
CASES = [pytest.param("affine", 2, AFFINE_TABLE, id="affine")] + [
    pytest.param("nilpotent", n, nilpotent_table(n, _rng), id=f"nilpotent_n{n}") for n in (2, 3)
]


@pytest.mark.parametrize("family, n, table", CASES)
def test_chart_and_constant_frame_agree_in_the_frame(family, n, table):
    chart = chart_twin(family, n, table)
    const = adapted_structure(algebra_context(2 * n, table))
    chart_frame = [VectorField(chart.context, chart.adapted_frame.column(c)) for c in range(2 * n)]
    # the frame really has the structure constants of the table, and so has
    # the constant frame's basis_bracket_field
    for a in range(2 * n):
        for b in range(2 * n):
            expected = _table_bracket(table, 2 * n, a, b)
            assert _frame_components(chart, lie_bracket(chart_frame[a], chart_frame[b])) == expected
            field = const.context.basis_bracket_field(a, b)
            assert [c.constant_value() for c in field.components] == expected
    on_chart = _tensor_components(chart, chart_frame)
    on_const = _tensor_components(const, list(const.basis))
    assert on_chart == on_const
    nonzero = {key[0] for key, v in on_const.items() if any(v)}
    assert "T canonical" in nonzero
    if family == "affine":
        assert {"A", "T well-adapted", "R well-adapted"} <= nonzero


def _christoffel_values(table) -> list[Fraction]:
    """The xx and yx entries in index order, as rationals; each must be a constant."""
    entries = [c for block in (table.xx, table.yx) for plane in block for row in plane for c in row]
    assert all(c.is_constant for c in entries), entries
    return [c.constant_value() for c in entries]


@pytest.mark.parametrize("family, n, table", CASES)
def test_christoffel_tables_agree_across_backends(family, n, table):
    on_chart = Analysis(chart_twin(family, n, table))
    on_const = Analysis(adapted_structure(algebra_context(2 * n, table)))
    nonzero = set()
    for kind in ("canonical", "well-adapted"):
        values = _christoffel_values(on_chart.christoffels(kind))
        assert values == _christoffel_values(on_const.christoffels(kind))
        if any(values):
            nonzero.add(kind)
    # nilpotent brackets land in the central Y-span, which both tables pair to
    # zero; the affine [X1, X2] = X1 gives the well-adapted table its entries
    assert nonzero == ({"well-adapted"} if family == "affine" else set())
    assert well_adapted_routes_agree(on_chart.well_adapted, on_chart.christoffels("well-adapted"))
    assert trace_condition_holds(on_chart.torsion("well-adapted"))


def _random_field(ctx, rng: random.Random) -> VectorField:
    """Components of up to three terms of degree <= 2 (constants on a constant frame)."""
    variables = ctx.variables
    components = []
    for _ in range(ctx.dim):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            exps = [0] * len(variables)
            for _ in range(rng.randint(0, 2) if variables else 0):
                exps[rng.randrange(len(variables))] += 1
            terms[tuple(exps)] = Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 2)))
        components.append(MultiPoly(variables, terms))
    return VectorField(ctx, components)


@pytest.mark.parametrize("name", ["heis", "aff", "flat_n2", "nilpotent_chart"])
def test_difference_tensor_routes_agree_off_the_frame(name, request):
    # The constructor compares the routes on frame pairs, which the split
    # frame serves; here general fields are split on the fly, and on a chart
    # their polynomial coefficients bring in the derivative terms of brackets.
    if name == "nilpotent_chart":
        s = nilpotent_chart(3, nilpotent_table(3, random.Random(1729)))
    else:
        s = request.getfixturevalue(name)
    diff = Analysis(s).difference
    rng = random.Random(name)
    for _ in range(6):
        x, y = _random_field(s.context, rng), _random_field(s.context, rng)
        value = diff.evaluate(x, y)
        assert diff.bracket_route(x, y) == value
