import random
from fractions import Fraction

import pytest

from bipara.connections import canonical_connection
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
    first_nonzero,
    identity_map,
    lie_bracket,
    pushforward_bilinear,
    pushforward_endo,
    pushforward_vector,
)
from bipara.linalg import LinAlgError, PolyMatrix, poly_matrix_inverse, rat_inverse
from bipara import poly
from bipara.poly import MultiPoly, PolyError, parse_poly
from bipara.structure import (
    _random_isomorphism,
    affine_structure,
    flat_structure,
    heisenberg_structure,
    random_structure,
    random_unipotent_map,
)
from conftest import _pool_entry, zero_shortcut_operands

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


def _dense_bracket(dim, table, u, v):
    """sum_{a<b} (u^a v^b - u^b v^a) c_ab over every pair of the pair-keyed ``table``."""
    out = [Fraction(0)] * dim
    for (a, b), coeffs in table.items():
        factor = u[a] * v[b] - u[b] * v[a]
        for m, c in enumerate(coeffs):
            out[m] += factor * c
    return out


def _dense_jacobi_failure(dim, table):
    """The first failing basis triple, from brackets of dense unit vectors."""
    units = [[Fraction(int(t == i)) for t in range(dim)] for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                total = [Fraction(0)] * dim
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = _dense_bracket(dim, table, units[a], units[b])
                    outer = _dense_bracket(dim, table, inner, units[c])
                    total = [t + o for t, o in zip(total, outer)]
                if any(total):
                    return f"Jacobi identity fails on basis triple ({i},{j},{k})"
    return None


def _two_step_nilpotent_table(rng, dim):
    """Every pair [X_i, X_j] (i < j < n) present and landing in the central Y-span."""
    n = dim // 2
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = [Fraction(0)] * dim
            coeffs[n + (i + j) % n] = Fraction(rng.choice((-2, -1, 1, 3)))
            table[i, j] = tuple(coeffs)
    return table


def _conjugated_table(rng, dim, table):
    """The same Lie algebra in the basis E'_i = sum_k A_ki E_k, A unipotent times unipotent.

    Jacobi holds in one basis exactly when it holds in the other, and a
    generic A leaves no pair of a nonabelian algebra commuting.
    """
    upper = [[Fraction(int(i == j) or rng.randint(-1, 1) * (i < j)) for j in range(dim)] for i in range(dim)]
    lower = [[Fraction(int(i == j) or rng.randint(-1, 1) * (i > j)) for j in range(dim)] for i in range(dim)]
    a = [[sum(upper[i][k] * lower[k][j] for k in range(dim)) for j in range(dim)] for i in range(dim)]
    a_inv = rat_inverse(a)
    columns = [[a[k][i] for k in range(dim)] for i in range(dim)]
    out = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            w = _dense_bracket(dim, table, columns[i], columns[j])
            coeffs = tuple(sum(a_inv[m][k] * w[k] for k in range(dim)) for m in range(dim))
            if any(coeffs):
                out[i, j] = coeffs
    return out


def _last_triple_failure(dim):
    """[E_a, E_b] = E_a and [E_a, E_c] = E_b on the last three indices: only (a, b, c) fails."""
    a, b, c = dim - 3, dim - 2, dim - 1
    units = [tuple(Fraction(int(t == m)) for t in range(dim)) for m in range(dim)]
    return {(a, b): units[a], (a, c): units[b]}


def _jacobi_tables():
    """(dim, table) pairs: sparse random tables, then full valid and broken ones at dims 8 and 12.

    The full two-step nilpotent tables have every pair [X_i, X_j] present, the
    shape of the benchmark's n = 4 to 6 nilpotent specs.
    """
    rng = random.Random(1729)
    for _ in range(150):
        dim = rng.choice((4, 4, 6, 8, 12))
        density = rng.choice((0.05, 0.15, 0.3))
        yield dim, {
            (i, j): tuple(Fraction(rng.choice((-1, 0, 0, 1, 2))) for _ in range(dim))
            for i in range(dim)
            for j in range(i + 1, dim)
            if rng.random() < density
        }
    for dim in (4, 8, 12):
        yield dim, _last_triple_failure(dim)
    nilpotent = {dim: _two_step_nilpotent_table(rng, dim) for dim in (8, 12)}
    # every pair of E_1..E_8 present; at dim 12 the dense reference takes over 1 s on it
    conjugated = _conjugated_table(rng, 8, nilpotent[8])
    assert len(conjugated) == 8 * 7 // 2
    for dim, table in ((8, nilpotent[8]), (8, conjugated), (12, nilpotent[12])):
        yield dim, table
        # one structure constant moved: Jacobi fails on some triple
        broken = dict(table)
        key = max(broken)
        broken[key] = (broken[key][0] + 1,) + broken[key][1:]
        yield dim, broken


def test_jacobi_check_matches_dense_reference():
    outcomes = set()
    for dim, table in _jacobi_tables():
        expected = _dense_jacobi_failure(dim, table)
        outcomes.add((dim, expected is None))
        if expected is None:
            algebra_context(dim, table)
        else:
            with pytest.raises(GeometryError) as err:
                algebra_context(dim, table)
            assert str(err.value) == expected
    # both valid and failing tables were drawn at every dimension
    assert outcomes == {(dim, holds) for dim in (4, 6, 8, 12) for holds in (True, False)}
    last = {dim: _dense_jacobi_failure(dim, _last_triple_failure(dim)) for dim in (4, 8, 12)}
    assert last == {dim: f"Jacobi identity fails on basis triple ({dim - 3},{dim - 2},{dim - 1})" for dim in last}


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


def test_polymap_expands_each_power_of_a_moving_image_once(monkeypatch):
    # Of the inverse images only y1 -> y1 - x1^2 - x2 has several terms, so
    # only its powers are expanded, each once for the map, however many
    # fields and endomorphisms are pushed.
    v = CHART.variables
    forward = [parse_poly(t, v) for t in ("x1", "x2", "y1 + x1^2 + x2", "y2")]
    inverse = [parse_poly(t, v) for t in ("x1", "x2", "y1 - x1^2 - x2", "y2")]
    m = PolyMap(CHART, CHART, forward=forward, inverse=inverse)
    fields = [
        chart_field("y1^3", "x1*y1^2", "y1^2*y2", "1"),
        chart_field("y1^2 + x2*y1^3", "0", "y1", "y2^2"),
    ]
    rows = [[parse_poly(f"y1^{(i + j) % 4}", v) for j in range(4)] for i in range(4)]
    endo = EndoField(CHART, PolyMatrix.from_rows(rows))
    expanded = []
    power = poly._power

    def counted(base, exponent, multiply):
        expanded.append((base, exponent))
        return power(base, exponent, multiply)

    monkeypatch.setattr(poly, "_power", counted)
    first = [pushforward_vector(m, x) for x in fields], pushforward_endo(m, endo)
    for _ in range(2):
        assert ([pushforward_vector(m, x) for x in fields], pushforward_endo(m, endo)) == first
    assert sorted(e for _, e in expanded) == [2, 3]
    assert all(base is inverse[2] for base, _ in expanded)


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


@pytest.mark.parametrize(
    "matrix",
    [[[1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]],
    ids=["1x1", "4x3"],
)
def test_constant_map_rejects_badly_shaped_matrix(matrix):
    ctx = heisenberg_structure().context
    with pytest.raises(GeometryError, match="matrix must be 4 × 4"):
        PolyMap(ctx, ctx, matrix=matrix)


def test_constant_map_derives_k_as_the_exact_inverse_of_its_matrix():
    from bipara.structure import _random_constant_automorphism

    ctx = algebra_context(4, {})
    mat, inv = _random_constant_automorphism(4, random.Random(7))
    assert mat != inv
    m = PolyMap(ctx, ctx, matrix=mat)
    assert m.jacobian_at_inverse.constant_rows() == mat
    assert m.jacobian_of_inverse.constant_rows() == inv == rat_inverse(mat)


def test_map_needs_exactly_one_source_of_jacobians():
    ctx = heisenberg_structure().context
    with pytest.raises(GeometryError, match="needs a matrix"):
        PolyMap(ctx, ctx)
    m = shear_map()
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    with pytest.raises(GeometryError, match="not both"):
        PolyMap(CHART, CHART, forward=m.forward, inverse=m.inverse, matrix=eye)


def _map_pair(kind: str, seed: int):
    """Random composable maps f: A -> B and g: B -> C of one backend."""
    rng = random.Random(seed)
    if kind == "chart":
        return random_unipotent_map(CHART, 2, rng), random_unipotent_map(CHART, 2, rng)
    base = heisenberg_structure() if kind == "heisenberg" else affine_structure()
    f = _random_isomorphism(base.context, rng)
    return f, _random_isomorphism(f.target, rng)


def _random_entry(ctx: FrameContext, rng: random.Random) -> MultiPoly:
    entry = MultiPoly.const(ctx.variables, rng.randint(-2, 2))
    for name in ctx.variables:
        if rng.random() < 0.3:
            entry = entry + MultiPoly.var(ctx.variables, name).scale(rng.randint(-2, 2))
    return entry


def _random_tensors(ctx: FrameContext, rng: random.Random):
    """A vector field, an endomorphism field and a bilinear field on ``ctx``."""
    def matrix():
        return PolyMatrix.from_rows(
            [[_random_entry(ctx, rng) for _ in range(ctx.dim)] for _ in range(ctx.dim)]
        )

    vector = VectorField(ctx, [_random_entry(ctx, rng) for _ in range(ctx.dim)])
    return vector, EndoField(ctx, matrix()), BilinearField(ctx, matrix())


PUSHES = (pushforward_vector, pushforward_endo, pushforward_bilinear)
MAP_KINDS = pytest.mark.parametrize(
    "kind, seed", [(kind, seed) for kind in ("heisenberg", "affine", "chart") for seed in range(4)]
)


@MAP_KINDS
def test_pushing_along_a_composite_is_pushing_twice(kind, seed):
    f, g = _map_pair(kind, seed)
    composite = g.compose(f)
    assert (composite.source, composite.target) == (f.source, g.target)
    for push, field in zip(PUSHES, _random_tensors(f.source, random.Random(seed))):
        assert push(composite, field) == push(g, push(f, field))


@MAP_KINDS
def test_inverted_undoes_the_map(kind, seed):
    m, _ = _map_pair(kind, seed)
    back = m.inverted()
    assert (back.source, back.target) == (m.target, m.source)
    for push, field in zip(PUSHES, _random_tensors(m.source, random.Random(seed))):
        assert push(back, push(m, field)) == field
    round_trip = back.compose(m)
    eye = PolyMatrix.identity(m.source.dim, m.source.variables)
    assert round_trip.jacobian_at_inverse == round_trip.jacobian_of_inverse == eye


@MAP_KINDS
def test_inverted_equals_the_validated_inverse(kind, seed):
    # inverted() skips the checks of __init__; the map they accept must be it.
    m, _ = _map_pair(kind, seed)
    back = m.inverted()
    if m.forward:
        fresh = PolyMap(m.target, m.source, forward=m.inverse, inverse=m.forward)
    else:
        fresh = PolyMap(m.target, m.source, matrix=m.jacobian_of_inverse.constant_rows())
    assert (back.forward, back.inverse) == (fresh.forward, fresh.inverse)
    assert back.jacobian_at_inverse == fresh.jacobian_at_inverse
    assert back.jacobian_of_inverse == fresh.jacobian_of_inverse


@MAP_KINDS
def test_inverted_builds_its_inverse_jacobian_on_first_read(kind, seed):
    # Pushing a vector field reads only jacobian_at_inverse, so K is not built.
    m, _ = _map_pair(kind, seed)
    back = m.inverted()
    vector, _, _ = _random_tensors(m.target, random.Random(seed))
    pushforward_vector(back, vector)
    assert "jacobian_of_inverse" not in back.__dict__
    if m.forward:
        fresh = PolyMap(m.target, m.source, forward=m.inverse, inverse=m.forward)
    else:
        fresh = PolyMap(m.target, m.source, matrix=m.jacobian_of_inverse.constant_rows())
    assert back.jacobian_of_inverse == fresh.jacobian_of_inverse
    assert "jacobian_of_inverse" in back.__dict__


@pytest.mark.parametrize("seed", range(4))
def test_chart_jacobians_of_inverted_and_composite_are_those_of_their_coordinates(seed):
    f, g = _map_pair("chart", seed)
    for made in (f.inverted(), g.compose(f), g.compose(f).inverted()):
        rebuilt = PolyMap(made.source, made.target, forward=made.forward, inverse=made.inverse)
        assert made.jacobian_at_inverse == rebuilt.jacobian_at_inverse
        assert made.jacobian_of_inverse == rebuilt.jacobian_of_inverse


@pytest.mark.parametrize("ctx", [CHART, heisenberg_structure().context], ids=["chart", "constant"])
def test_identity_map_jacobians_are_the_identity(ctx):
    m = identity_map(ctx)
    eye = PolyMatrix.identity(ctx.dim, ctx.variables)
    assert m.jacobian_at_inverse == m.jacobian_of_inverse == eye


def test_dual_pairing_standard_frame():
    s = heisenberg_structure()
    x = s.basis[1].scale(Fraction(3))
    assert s.coframe.matvec(list(x.components))[1] == 3
    assert s.coframe.matvec(list(x.components))[0].is_zero
    zero = VectorField.from_rationals(s.context, [0, 0, 0, 0])
    assert s.coframe.matvec(list(zero.components))[2].is_zero


def test_dual_pairing_torsion_component_on_aff():
    from bipara.cli import Analysis
    from bipara.structure import affine_structure

    s = affine_structure()
    t_prime = Analysis(s).torsion("well-adapted").evaluate(s.basis[0], s.basis[1])
    assert s.coframe.matvec(list(t_prime.components))[0] == Fraction(-1, 3)


def test_context_zero_is_the_shared_ring_zero():
    for ctx in (CHART, heisenberg_structure().context):
        assert ctx.zero is MultiPoly.zero(ctx.variables)
        assert ctx.zero.is_zero and ctx.zero.variables == ctx.variables


def test_first_nonzero_stops_at_the_first_nonzero_cell():
    zero = VectorField.from_rationals(CHART, [0, 0, 0, 0])
    e1 = basis_fields(CHART)[0]
    cells = iter([((0, 1), zero), ((0, 2), e1), ((0, 3), e1.scale(2))])
    assert first_nonzero(cells) == ((0, 2), e1)
    assert next(cells) == ((0, 3), e1.scale(2))  # the rest is left unread
    assert first_nonzero([((0, 1), zero)]) is None
    assert first_nonzero([]) is None


def test_dual_pairing_needs_polynomial_inverse():
    x = MultiPoly.var(CHART.variables, "x1")
    one = MultiPoly.const(CHART.variables, 1)
    zero = MultiPoly.zero(CHART.variables)
    rows = [[one + x, zero, zero, zero],
            [zero, one, zero, zero],
            [zero, zero, one, zero],
            [zero, zero, zero, one]]
    frame = PolyMatrix.from_rows(rows)
    with pytest.raises(LinAlgError):
        poly_matrix_inverse(frame).matvec(list(chart_field("1", "0", "0", "0").components))


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


# The kernels build their results with VectorField._trusted; the public
# constructor and the context checks at every binary operation stay.

BACKENDS = pytest.mark.parametrize(
    "ctx", [CHART, heisenberg_structure().context], ids=["chart", "constant"]
)


def _twin(ctx: FrameContext) -> FrameContext:
    """An equal context that is a separate object."""
    twin = FrameContext(ctx.dim, ctx.variables, ctx.bracket_table)
    assert twin == ctx and twin is not ctx
    return twin


@BACKENDS
def test_public_field_constructor_checks_length_and_ring(ctx):
    zero = ctx.zero
    with pytest.raises(GeometryError, match="component count"):
        VectorField(ctx, [zero] * (ctx.dim - 1))
    with pytest.raises(PolyError, match="wrong ring"):
        VectorField(ctx, [MultiPoly.const(("u",), 1)] + [zero] * (ctx.dim - 1))


@BACKENDS
def test_binary_field_operations_check_contexts(ctx):
    rng = random.Random(3)
    x, e, _ = _random_tensors(ctx, rng)
    other = algebra_context(ctx.dim)  # abelian: same dimension, another context
    y = basis_fields(other)[0]
    for op in (
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: e.apply(b),
        lie_bracket,
    ):
        with pytest.raises(ContextMismatch):
            op(x, y)
    # A zero operand takes no shortcut past the context check.
    with pytest.raises(ContextMismatch):
        lie_bracket(ctx.zero_field, y)
    # Equal contexts that are separate objects are one context.
    twin = _twin(ctx)
    x_twin = VectorField(twin, x.components)
    assert x + x_twin == x.scale(2)
    assert (x - x_twin).is_zero
    assert EndoField(twin, e.matrix).apply(x) == e.apply(x_twin)
    assert lie_bracket(x, x_twin).is_zero


@BACKENDS
def test_field_scale_by_polynomial_of_another_ring_raises(ctx):
    x = basis_fields(ctx)[0]
    with pytest.raises(PolyError):
        x.scale(MultiPoly.var(("u", "v"), "u"))


@BACKENDS
def test_kernel_results_equal_checked_fields(ctx):
    rng = random.Random(17)
    for _ in range(3):
        x, e, _ = _random_tensors(ctx, rng)
        y, _, _ = _random_tensors(ctx, rng)
        f = _random_entry(ctx, rng)
        results = (
            x + y,
            x - y,
            -x,
            x.scale(f),
            x.scale(Fraction(-2, 3)),
            e.apply(x),
            lie_bracket(x, y),
        )
        for result in results:
            checked = VectorField(ctx, result.components)
            assert result == checked and hash(result) == hash(checked)
            assert type(result.components) is tuple and len(result.components) == ctx.dim


@BACKENDS
def test_zero_operand_bracket_equals_the_full_computation(ctx):
    rng = random.Random(29)
    zero = VectorField.from_rationals(ctx, [0] * ctx.dim)
    assert ctx.zero_field is ctx.zero_field  # one shared field per context
    assert ctx.zero_field == zero == _twin(ctx).zero_field
    for _ in range(3):
        x, _, _ = _random_tensors(ctx, rng)
        y, _, _ = _random_tensors(ctx, rng)
        # [X - X, Y] and [X, Y - Y] by bilinearity, with no zero operand
        full = lie_bracket(x, y) - lie_bracket(x, y)
        assert lie_bracket(x - x, y) == full == zero
        assert lie_bracket(y, zero) == full
        assert hash(lie_bracket(zero, y)) == hash(zero)


# A zero operand short-circuits in the field operations; every result still
# equals the one built component by component through the checking constructor.

POOL_KINDS = pytest.mark.parametrize("kind", ["constant_frame", "polynomial_chart", "nilpotent_chart"])


def _assert_same_field(result, expected):
    assert result == expected and hash(result) == hash(expected)


@POOL_KINDS
def test_zero_operand_shortcuts_equal_the_componentwise_results(pool_entry_of_kind, kind):
    s = pool_entry_of_kind[kind]
    ctx = s.context
    operands = zero_shortcut_operands(s)
    factors = [Fraction(-2, 3), 0, 1, ctx.zero, MultiPoly.const(ctx.variables, 3)]
    factors += [MultiPoly.var(ctx.variables, name) for name in ctx.variables[:1]]
    endos = (s.F, s.P, s.projectors.f_plus)
    for x in operands:
        _assert_same_field(-x, VectorField(ctx, [-a for a in x.components]))
        for c in factors:
            if isinstance(c, MultiPoly):
                expected = [c * a for a in x.components]
            else:
                expected = [a.scale(c) for a in x.components]
            _assert_same_field(x.scale(c), VectorField(ctx, expected))
        for e in endos:
            _assert_same_field(e.apply(x), VectorField(ctx, e.matrix.matvec(list(x.components))))
        for y in operands:
            _assert_same_field(x + y, VectorField(ctx, [a + b for a, b in zip(x.components, y.components)]))
            _assert_same_field(x - y, VectorField(ctx, [a - b for a, b in zip(x.components, y.components)]))
    # The shortcut hands back an operand, or the context's zero field.
    zero, x = ctx.zero_field, s.basis[0]
    assert x + zero is x and zero + x is x and x - zero is x
    assert -zero is zero and zero.scale(Fraction(1, 2)) is zero
    assert s.F.apply(zero) is zero


@POOL_KINDS
def test_zero_operand_of_another_context_still_raises(pool_entry_of_kind, kind):
    s = pool_entry_of_kind[kind]
    ctx = s.context
    other = chart_context([f"u{k}" for k in range(ctx.dim)]).zero_field
    for a, b in ((s.basis[0], other), (other, s.basis[0]), (ctx.zero_field, other)):
        with pytest.raises(ContextMismatch):
            a + b
        with pytest.raises(ContextMismatch):
            a - b
    with pytest.raises(ContextMismatch):
        s.F.apply(other)
    with pytest.raises(ContextMismatch):
        EndoField.identity(other.context).apply(ctx.zero_field)


@POOL_KINDS
def test_scaling_a_zero_field_still_checks_the_factor(pool_entry_of_kind, kind):
    ctx = pool_entry_of_kind[kind].context
    foreign = (MultiPoly.var(("u", "v"), "u"), MultiPoly.const(ctx.variables + ("w",), 1))
    for bad in ("x", 0.5, *foreign):
        with pytest.raises(PolyError):
            ctx.zero_field.scale(bad)


# lie_bracket against the textbook formula, written densely here from the
# context's spec-shaped bracket_table: every component, every variable and
# every listed pair, with no shortcut.


def _reference_bracket(x: VectorField, y: VectorField) -> VectorField:
    """sum_k (X^k d_k Y - Y^k d_k X) + sum_{a<b} (X^a Y^b - X^b Y^a) c_ab."""
    ctx = x.context
    xs, ys = x.components, y.components
    out = []
    for i in range(ctx.dim):
        acc = ctx.zero
        for k, name in enumerate(ctx.variables):
            acc = acc + xs[k] * ys[i].derivative(name) - ys[k] * xs[i].derivative(name)
        for a, b, coeffs in ctx.bracket_table:
            acc = acc + (xs[a] * ys[b] - xs[b] * ys[a]).scale(coeffs[i])
        out.append(acc)
    return VectorField(ctx, out)


def _dense_rational_field(ctx: FrameContext, rng: random.Random) -> VectorField:
    """A constant field with every component nonzero."""
    return VectorField.from_rationals(
        ctx, [Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 1, 2, 3))) for _ in range(ctx.dim)]
    )


def _bracket_samples(s, rng: random.Random) -> list[VectorField]:
    """Zero fields, basis fields and their multiples, split parts, dense fields."""
    ctx = s.context
    fields = [ctx.zero_field, VectorField.from_rationals(ctx, [0] * ctx.dim)]
    fields += list(s.basis) + [e.scale(Fraction(-3, 2)) for e in basis_fields(ctx)]
    fields += [part for split in s.frame_split[:2] for part in split]
    fields += [_dense_rational_field(ctx, rng) for _ in range(2)]
    fields += [_random_tensors(ctx, rng)[0] for _ in range(2)]
    return fields


# Both backends: fixtures, conjugated random constant frames, pushed nilpotent
# charts and a flat chart.
_BRACKET_CASES = [
    ("heisenberg", heisenberg_structure()),
    ("affine", affine_structure()),
    ("conjugated_n2", random_structure(2, "constant_frame", seed=3, conjugate=True)),
    ("conjugated_n3", random_structure(3, "constant_frame", seed=5, conjugate=True)),
    ("nilpotent_chart_n2", _pool_entry("nilpotent_chart", 2, 7)),
    ("nilpotent_chart_n3", _pool_entry("nilpotent_chart", 3, 11)),
    ("flat_chart", random_structure(2, "polynomial_chart", seed=13)),
]
BRACKET_STRUCTURES = pytest.mark.parametrize("name, s", _BRACKET_CASES, ids=[name for name, _ in _BRACKET_CASES])


@BRACKET_STRUCTURES
def test_lie_bracket_matches_the_dense_reference(name, s):
    ctx = s.context
    assert bool(ctx.variables) == ("chart" in name)
    rng = random.Random(name)
    fields = _bracket_samples(s, rng)
    nonzero = 0
    for x in fields:
        for y in fields:
            result = lie_bracket(x, y)
            assert result == _reference_bracket(x, y), (x, y)
            nonzero += not result.is_zero
    assert nonzero > 0


@BRACKET_STRUCTURES
def test_structure_constant_table_is_antisymmetric_and_holds_no_zero(name, s):
    ctx = s.context
    table = ctx.structure_constants
    if ctx.variables:
        assert table == {}
        return
    assert table, "every sampled algebra is nonabelian"
    for a, row in table.items():
        assert row, "no empty row"
        for b, terms in row.items():
            assert a != b and terms
            assert all(c != 0 for _, c in terms)
            assert [m for m, _ in terms] == sorted({m for m, _ in terms})
            assert table[b][a] == tuple((m, -c) for m, c in terms)
            assert ctx.basis_bracket(a, b) is terms
    # The table holds exactly the nonzero coefficients of bracket_table.
    for i, j, coeffs in ctx.bracket_table:
        assert dict(ctx.basis_bracket(i, j)) == {m: c for m, c in enumerate(coeffs) if c}
    listed = {(i, j) for i, j, _ in ctx.bracket_table}
    assert all((min(a, b), max(a, b)) in listed for a, row in table.items() for b in row)


# VectorField.is_zero is a slot set by the constructors; it must agree with
# the components on the result of every kernel.


def _zero_flag_samples(s, rng: random.Random) -> list[VectorField]:
    ctx = s.context
    fields = _bracket_samples(s, rng)
    x, y = fields[-2], fields[-1]
    split = s.frame_split[0]
    out = [ctx.zero_field, x + y, x - x, x - y, -x, -ctx.zero_field, x.scale(0), x.scale(Fraction(2, 3))]
    out += [x.scale(ctx.zero), x.scale(_random_entry(ctx, rng))]
    # F+ applied to the F- part of E_1 is zero with no zero operand
    out += [s.projectors.f_plus.apply(split[1]), s.projectors.f_minus.apply(split[1]), s.F.apply(x)]
    out += [lie_bracket(x, x), lie_bracket(x, y), lie_bracket(s.basis[0], s.basis[-1])]
    law = canonical_connection(s)
    out += [law.nabla_of_field(i, w) for i in (0, ctx.dim - 1) for w in (x, ctx.zero_field, s.basis[1])]
    if ctx.variables:
        push = random_unipotent_map(ctx, 2, rng)
    else:
        push = _random_isomorphism(ctx, rng)
    out += [pushforward_vector(push, w) for w in (x, ctx.zero_field, s.basis[0])]
    out += [push.target.zero_field]
    return out


@BRACKET_STRUCTURES
def test_zero_flag_agrees_with_the_components_on_every_kernel_result(name, s):
    rng = random.Random(name)
    results = _zero_flag_samples(s, rng)
    assert any(r.is_zero for r in results) and not all(r.is_zero for r in results)
    for r in results:
        assert r.is_zero is all(c.is_zero for c in r.components), r
    with pytest.raises(AttributeError):
        results[0].is_zero = not results[0].is_zero
    with pytest.raises(AttributeError):
        del results[1].is_zero


IMMUTABLE_SLOTS = {
    MultiPoly: "terms",
    VectorField: "components",
    PolyMatrix: "entries",
    EndoField: "matrix",
    BilinearField: "matrix",
}


@pytest.mark.parametrize("cls", IMMUTABLE_SLOTS, ids=lambda cls: cls.__name__)
def test_immutable_types_refuse_assignment_and_deletion(cls):
    # shared instances: the ring's zero, the context's zero field, the cached F
    s = flat_structure(1)
    obj = {
        MultiPoly: MultiPoly.zero(s.context.variables),
        VectorField: s.context.zero_field,
        PolyMatrix: s.F.matrix,
        EndoField: s.F,
        BilinearField: BilinearField(s.context, s.F.matrix),
    }[cls]
    slot = IMMUTABLE_SLOTS[cls]
    value = getattr(obj, slot)
    with pytest.raises(AttributeError):
        setattr(obj, slot, value)
    with pytest.raises(AttributeError):
        delattr(obj, slot)
    assert getattr(obj, slot) is value
