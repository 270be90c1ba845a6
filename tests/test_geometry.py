import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from bipara.geometry import (
    BilinearField,
    ContextMismatch,
    EndoField,
    FrameContext,
    GeometryError,
    PolyMap,
    VectorField,
    algebra_context,
    basis_fields,
    chart_context,
    directional_derivative,
    dual_pairing,
    identity_map,
    lie_bracket,
    pushforward_endo,
    pushforward_vector,
)
from bipara.linalg import LinAlgError, PolyMatrix
from bipara.poly import MultiPoly, PolyError, parse_poly
from bipara.structure import flat_structure, heisenberg_structure, random_unipotent_map

CHART = chart_context(("x1", "x2", "y1", "y2"))


def chart_field(*exprs):
    return VectorField(CHART, [parse_poly(e, CHART.variables) for e in exprs])


def test_context_rejects_jacobi_failure():
    # [E1,E2] = E1 and [E1,E3] = E2 leave a cyclic residue of E2 on the
    # triple (E1,E2,E3): genuine Jacobi failure.
    with pytest.raises(GeometryError, match="Jacobi"):
        algebra_context(
            4,
            {
                (0, 1): (1, 0, 0, 0),
                (0, 2): (0, 1, 0, 0),
            },
        )


def _dense_jacobi_failure(dim, table):
    """The first failing basis triple, from brackets of dense unit vectors."""
    ctx = SimpleNamespace(dim=dim, brackets=table)
    units = [[Fraction(int(t == i)) for t in range(dim)] for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                total = [Fraction(0)] * dim
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = FrameContext._vector_bracket(ctx, units[a], units[b])
                    outer = FrameContext._vector_bracket(ctx, inner, units[c])
                    total = [t + o for t, o in zip(total, outer)]
                if any(total):
                    return f"Jacobi identity fails on basis triple ({i},{j},{k})"
    return None


def test_jacobi_check_matches_dense_reference():
    rng = random.Random(1729)
    outcomes = set()
    for _ in range(150):
        dim = rng.choice((4, 4, 6))
        table = {
            (i, j): tuple(Fraction(rng.choice((-1, 0, 0, 1, 2))) for _ in range(dim))
            for i in range(dim)
            for j in range(i + 1, dim)
            if rng.random() < 0.3
        }
        expected = _dense_jacobi_failure(dim, table)
        outcomes.add(expected is None)
        if expected is None:
            algebra_context(dim, table)
        else:
            with pytest.raises(GeometryError) as err:
                algebra_context(dim, table)
            assert str(err.value) == expected
    assert outcomes == {True, False}  # both valid and failing tables were drawn


def test_coordinate_fields_commute():
    e = basis_fields(CHART)
    assert lie_bracket(e[0], e[2]).is_zero


def test_heisenberg_bracket_reads_table():
    s = heisenberg_structure()
    x1, x2, y1, _ = s.basis
    assert lie_bracket(x1, x2) == y1
    assert lie_bracket(x2, x1) == -y1


def test_bracket_antisymmetry_on_random_fields():
    rng = random.Random(5)
    for _ in range(5):
        comps = [
            MultiPoly(CHART.variables, {tuple(rng.randint(0, 2) for _ in range(4)): Fraction(rng.randint(-3, 3))})
            for _ in range(4)
        ]
        x = VectorField(CHART, comps)
        assert lie_bracket(x, x).is_zero


def test_jacobi_identity_both_backends():
    rng = random.Random(11)

    def random_chart_field():
        comps = []
        for _ in range(4):
            terms = {}
            for _ in range(2):
                exps = tuple(rng.randint(0, 1) for _ in range(4))
                terms[exps] = Fraction(rng.randint(-2, 2))
            comps.append(MultiPoly(CHART.variables, terms))
        return VectorField(CHART, comps)

    for _ in range(3):
        x, y, z = (random_chart_field() for _ in range(3))
        total = (
            lie_bracket(lie_bracket(x, y), z)
            + lie_bracket(lie_bracket(y, z), x)
            + lie_bracket(lie_bracket(z, x), y)
        )
        assert total.is_zero

    s = heisenberg_structure()
    ctx = s.context
    for _ in range(5):
        x, y, z = (
            VectorField.from_rationals(ctx, [rng.randint(-3, 3) for _ in range(4)])
            for _ in range(3)
        )
        total = (
            lie_bracket(lie_bracket(x, y), z)
            + lie_bracket(lie_bracket(y, z), x)
            + lie_bracket(lie_bracket(z, x), y)
        )
        assert total.is_zero


def test_leibniz_rule_for_bracket():
    x = chart_field("1", "0", "x2", "0")
    y = chart_field("y1", "0", "0", "1")
    f = parse_poly("x1*y1 + x2^2", CHART.variables)
    lhs = lie_bracket(x, y.scale(f))
    rhs = y.scale(directional_derivative(x, f)) + lie_bracket(x, y).scale(f)
    assert lhs == rhs


def test_apply_endo_flat_examples():
    s = flat_structure(2)
    e = basis_fields(s.context)
    assert s.F.apply(e[0]) == e[2]   # F maps the first x-direction to y
    assert s.P.apply(e[2]) == -e[2]  # P negates y-directions
    eye = EndoField.identity(s.context)
    assert eye.apply(e[1]) == e[1]


def test_context_mismatch_raises():
    s = heisenberg_structure()
    with pytest.raises(ContextMismatch):
        lie_bracket(s.basis[0], chart_field("1", "0", "0", "0"))


def shear_map():
    v = CHART.variables
    forward = [parse_poly(t, v) for t in ("x1", "x2", "y1 + x1^2", "y2")]
    inverse = [parse_poly(t, v) for t in ("x1", "x2", "y1 - x1^2", "y2")]
    return PolyMap(CHART, CHART, forward=forward, inverse=inverse)


def test_pushforward_identity_map():
    m = identity_map(CHART)
    x = chart_field("x1", "0", "y1^2", "1")
    assert pushforward_vector(m, x) == x


def test_pushforward_shear_chain_rule():
    m = shear_map()
    pushed = pushforward_vector(m, chart_field("1", "0", "0", "0"))
    assert pushed == chart_field("1", "0", "2*x1", "0")


def test_pushforward_preserves_brackets():
    rng = random.Random(3)
    m = random_unipotent_map(CHART, 2, rng)
    x = chart_field("x2", "1", "0", "x1")
    y = chart_field("0", "y1", "x1", "1")
    lhs = pushforward_vector(m, lie_bracket(x, y))
    rhs = lie_bracket(pushforward_vector(m, x), pushforward_vector(m, y))
    assert lhs == rhs


def test_pushforward_functorial_composition():
    rng = random.Random(9)
    f = random_unipotent_map(CHART, 2, rng)
    g = random_unipotent_map(CHART, 2, rng)
    x = chart_field("y1", "x1", "1", "x2^2")
    composed = g.compose(f)
    assert pushforward_vector(composed, x) == pushforward_vector(
        g, pushforward_vector(f, x)
    )
    s = flat_structure(2)
    assert pushforward_endo(composed, s.F) == pushforward_endo(
        g, pushforward_endo(f, s.F)
    )


def test_polymap_validation_rejects_wrong_inverse():
    v = CHART.variables
    forward = [parse_poly(t, v) for t in ("x1", "x2", "y1 + x1^2", "y2")]
    bad_inverse = [parse_poly(t, v) for t in ("x1", "x2", "y1 + x1^2", "y2")]
    with pytest.raises(GeometryError):
        PolyMap(CHART, CHART, forward=forward, inverse=bad_inverse)


def test_constant_map_must_preserve_brackets():
    s = heisenberg_structure()
    ctx = s.context
    swap = [
        [Fraction(0), Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
    ]
    # swapping X1, X2 flips the sign of [X1, X2]: not an automorphism here
    with pytest.raises(GeometryError, match="bracket"):
        PolyMap(ctx, ctx, matrix=swap)


def test_dual_pairing_standard_frame():
    s = heisenberg_structure()
    frame = EndoField(s.context, s.adapted_frame)
    x = s.basis[1].scale(Fraction(3))
    assert dual_pairing(frame, 1, x) == 3
    assert dual_pairing(frame, 0, x).is_zero
    zero = VectorField.from_rationals(s.context, [0, 0, 0, 0])
    assert dual_pairing(frame, 2, zero).is_zero


def test_dual_pairing_torsion_component_on_aff():
    from bipara.cli import Analysis
    from bipara.structure import affine_structure

    s = affine_structure()
    frame = EndoField(s.context, s.adapted_frame)
    t_prime = Analysis(s).torsion("well-adapted").evaluate(s.basis[0], s.basis[1])
    assert dual_pairing(frame, 0, t_prime) == Fraction(-1, 3)


def test_dual_pairing_needs_polynomial_inverse():
    x = MultiPoly.var(CHART.variables, "x1")
    one = MultiPoly.const(CHART.variables, 1)
    zero = MultiPoly.zero(CHART.variables)
    rows = [[one + x, zero, zero, zero],
            [zero, one, zero, zero],
            [zero, zero, one, zero],
            [zero, zero, zero, one]]
    frame = EndoField(CHART, PolyMatrix.from_rows(rows))
    with pytest.raises(LinAlgError):
        dual_pairing(frame, 0, chart_field("1", "0", "0", "0"))


def test_polymap_between_differently_named_charts():
    from bipara.connections import canonical_connection, curvature, torsion
    from bipara.structure import pushforward_structure

    source = flat_structure(1)
    target_ctx = chart_context(("u1", "v1"))
    sv, tv = source.context.variables, target_ctx.variables
    forward = [parse_poly("x1", sv), parse_poly("y1 + x1^2", sv)]
    inverse = [parse_poly("u1", tv), parse_poly("v1 - u1^2", tv)]
    m = PolyMap(source.context, target_ctx, forward=forward, inverse=inverse)
    moved = pushforward_structure(m, source)
    assert moved.context == target_ctx
    law = canonical_connection(moved)
    assert torsion(law).is_zero and curvature(law).is_zero


def test_bilinear_value():
    s = flat_structure(1)
    ctx = s.context
    g = BilinearField(ctx, PolyMatrix.identity(2, ctx.variables))
    e = basis_fields(ctx)
    assert g.value(e[0], e[0]) == 1
    assert g.value(e[0], e[1]).is_zero


def test_constant_frame_fields_reject_chart_ring_polynomials():
    # the ring check is what keeps constant-frame components constant
    ctx = algebra_context(2)
    chart_ring = ("x1", "y1")
    for entry in (parse_poly("x1*y1", chart_ring), MultiPoly.const(chart_ring, 2)):
        zero = MultiPoly.zero(chart_ring)
        with pytest.raises(PolyError):
            VectorField(ctx, [entry, zero])
        with pytest.raises(PolyError):
            EndoField(ctx, PolyMatrix.from_rows([[entry, zero], [zero, entry]]))
    assert VectorField.from_rationals(ctx, [1, 2]).components[1] == 2
