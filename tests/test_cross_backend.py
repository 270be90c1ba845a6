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

None of the frames is integrable: the torsion is nonzero on each, and on the
affine frame the difference tensor and the well-adapted curvature are too.
The other chart structures of the suites are conjugates of the flat model,
where all of these vanish.
"""

import random
from fractions import Fraction

import pytest

from bipara import (
    BiparaStructure,
    EndoField,
    PolyMatrix,
    VectorField,
    algebra_context,
    chart_context,
    lie_bracket,
    parse_poly,
    poly_matrix_inverse,
)
from bipara.cli import Analysis
from bipara.connections import trace_condition_holds, well_adapted_routes_agree
from bipara.poly import MultiPoly


def chart_variables(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n)) + tuple(f"y{i + 1}" for i in range(n))


def adapted_blocks(n: int) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """F = diag(I, -I) and P = the block swap in an adapted frame."""
    dim = 2 * n
    f = [[Fraction(0)] * dim for _ in range(dim)]
    p = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(n):
        f[i][i] = Fraction(1)
        f[n + i][n + i] = Fraction(-1)
        p[n + i][i] = Fraction(1)
        p[i][n + i] = Fraction(1)
    return f, p


def constant_twin(n: int, table: dict) -> BiparaStructure:
    ctx = algebra_context(2 * n, table)
    f, p = adapted_blocks(n)
    return BiparaStructure.validate(
        EndoField(ctx, PolyMatrix.from_rational_rows(f, ())),
        EndoField(ctx, PolyMatrix.from_rational_rows(p, ())),
        adapted_frame=PolyMatrix.identity(2 * n, ()),
    )


def chart_twin(n: int, columns: list[list[str]]) -> BiparaStructure:
    """The chart structure adapted to the frame whose fields are ``columns``."""
    variables = chart_variables(n)
    ctx = chart_context(variables)
    dim = 2 * n
    frame = PolyMatrix.from_rows(
        [[parse_poly(columns[c][r], variables) for c in range(dim)] for r in range(dim)]
    )
    f, p = adapted_blocks(n)
    coframe = poly_matrix_inverse(frame)
    return BiparaStructure.validate(
        EndoField(ctx, frame @ PolyMatrix.from_rational_rows(f, variables) @ coframe),
        EndoField(ctx, frame @ PolyMatrix.from_rational_rows(p, variables) @ coframe),
        adapted_frame=frame,
    )


def nilpotent_frame(n: int, rng: random.Random) -> tuple[list[list[str]], dict]:
    """X_j = d/dx_j + sum_{i<j} c^k_ij x_i d/dy_k and Y_k = d/dy_k.

    [X_i, X_j] = sum_k c^k_ij Y_k; every c^k_ij with k = (i + j) mod n is
    nonzero, the others are drawn from {0, 1, -2}.
    """
    dim = 2 * n
    variables = chart_variables(n)
    columns = [["1" if r == c else "0" for r in range(dim)] for c in range(dim)]
    table = {}
    for j in range(n):
        for i in range(j):
            coeffs = [Fraction(0)] * dim
            for k in range(n):
                c = rng.choice((1, -1, Fraction(1, 2))) if k == (i + j) % n else rng.choice((0, 1, -2))
                if c:
                    coeffs[n + k] = Fraction(c)
                    columns[j][n + k] += f" + ({c})*{variables[i]}"
            table[(i, j)] = tuple(coeffs)
    return columns, table


AFFINE_FRAME = (
    # X1 = d/dx1, X2 = d/dx2 + x1 d/dx1, Y_k = d/dy_k: [X1, X2] = X1
    [["1", "0", "0", "0"], ["x1", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    {(0, 1): (Fraction(1), Fraction(0), Fraction(0), Fraction(0))},
)


def _frame_components(s: BiparaStructure, v: VectorField) -> list[Fraction]:
    """The coframe pairings of ``v``; each must be a constant."""
    pairings = s.coframe.matvec(list(v.components))
    assert all(c.is_constant for c in pairings), pairings
    return [c.constant_value() for c in pairings]


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
CASES = [pytest.param("affine", 2, *AFFINE_FRAME, id="affine")] + [
    pytest.param("nilpotent", n, *nilpotent_frame(n, _rng), id=f"nilpotent_n{n}") for n in (2, 3)
]


@pytest.mark.parametrize("family, n, columns, table", CASES)
def test_chart_and_constant_frame_agree_in_the_frame(family, n, columns, table):
    chart = chart_twin(n, columns)
    const = constant_twin(n, table)
    chart_frame = [VectorField(chart.context, chart.adapted_frame.column(c)) for c in range(2 * n)]
    # the frame really has the structure constants of the table
    for a in range(2 * n):
        for b in range(2 * n):
            assert _frame_components(chart, lie_bracket(chart_frame[a], chart_frame[b])) == list(
                const.context.basis_bracket(a, b)
            )
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


@pytest.mark.parametrize("family, n, columns, table", CASES)
def test_christoffel_tables_agree_across_backends(family, n, columns, table):
    on_chart = Analysis(chart_twin(n, columns))
    on_const = Analysis(constant_twin(n, table))
    nonzero = set()
    for kind in ("canonical", "well_adapted"):
        values = _christoffel_values(getattr(on_chart, f"christoffels_{kind}"))
        assert values == _christoffel_values(getattr(on_const, f"christoffels_{kind}"))
        if any(values):
            nonzero.add(kind)
    # nilpotent brackets land in the central Y-span, which both tables pair to
    # zero; the affine [X1, X2] = X1 gives the well-adapted table its entries
    assert nonzero == ({"well_adapted"} if family == "affine" else set())
    assert well_adapted_routes_agree(on_chart.well_adapted, on_chart.christoffels_well_adapted)
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
        s = chart_twin(3, nilpotent_frame(3, random.Random(1729))[0])
    else:
        s = request.getfixturevalue(name)
    diff = Analysis(s).difference
    rng = random.Random(name)
    for _ in range(6):
        x, y = _random_field(s.context, rng), _random_field(s.context, rng)
        value = diff.evaluate(x, y)
        assert diff.bracket_route(x, y) == value
        assert diff.torsion_route(x, y) == value
