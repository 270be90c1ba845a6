import random
from fractions import Fraction

import pytest

from bipara.cli import Analysis
from bipara.connections import (
    ChristoffelTable,
    ConnectionLaw,
    DifferenceTensor,
    canonical_christoffels,
    canonical_connection,
    connection_from_table,
    curvature,
    endo_covariant_derivative,
    is_parallel,
    preserves_distributions,
    pushforward,
    pushforward_connection,
    torsion,
    trace_condition_holds,
    well_adapted_christoffels,
    well_adapted_connection,
    well_adapted_routes_agree,
)
from bipara.geometry import VectorField, lie_bracket
from bipara.poly import parse_poly
from bipara.structure import (
    StructureError,
    flat_structure,
    pushforward_structure,
    random_structure,
    random_unipotent_map,
)


def fields(s):
    return s.basis


def nabla_via_table(law, x, w):
    """Table route for nabla_X W; equals the evaluator for genuine laws."""
    ctx = law.context
    acc = VectorField(ctx, [ctx.zero_poly()] * ctx.dim)
    for i, xi in enumerate(x.components):
        if not xi.is_zero:
            acc = acc + law.nabla_of_field(i, w).scale(xi)
    return acc


# -- canonical connection on the fixtures (frozen hand-derived values) -------


def test_flat_canonical_is_trivial(flat_n2):
    law = canonical_connection(flat_n2)
    for row in law.frame_table:
        for value in row:
            assert value.is_zero
    assert torsion(law).is_zero
    assert curvature(law).is_zero


def test_heis_canonical_values(heis):
    law = canonical_connection(heis)
    x1, x2, y1, y2 = fields(heis)
    assert law.nabla(x1, x2).is_zero
    assert law.nabla(x2, x1).is_zero
    t = torsion(law)
    assert t.evaluate(x1, x2) == -y1
    assert curvature(law).is_zero
    assert DifferenceTensor(t).is_zero


def test_aff_canonical_values(aff):
    law = canonical_connection(aff)
    x1, x2, y1, y2 = fields(aff)
    assert law.nabla(x1, x2).is_zero
    t = torsion(law)
    assert t.evaluate(x1, x2) == -x1


def test_canonical_christoffels_vanish_on_fixtures(flat_n2, heis, aff):
    for s in (flat_n2, heis, aff):
        table = canonical_christoffels(s)
        for h in range(s.n):
            for a in range(s.n):
                for i in range(s.n):
                    assert table.xx[h][a][i].is_zero
                    assert table.yx[h][a][i].is_zero


def test_christoffels_require_adapted_frame():
    from bipara.geometry import EndoField, algebra_context
    from bipara.linalg import PolyMatrix
    from bipara.structure import BiparaStructure, StructureError

    ctx = algebra_context(2, {})
    f = EndoField(ctx, PolyMatrix.from_rational_rows([[1, 0], [0, -1]], ()))
    p = EndoField(ctx, PolyMatrix.from_rational_rows([[0, 1], [1, 0]], ()))
    bare = BiparaStructure.validate(f, p)  # no frame supplied
    with pytest.raises(StructureError, match="adapted frame"):
        canonical_christoffels(bare)
    with pytest.raises(StructureError, match="adapted frame"):
        well_adapted_christoffels(bare)
    with pytest.raises(StructureError, match="adapted frame"):
        trace_condition_holds(torsion(canonical_connection(bare)))


def test_christoffel_reconstruction_matches_law(generated_pool):
    for s in generated_pool[::5]:
        law = canonical_connection(s)
        recon = connection_from_table(s, canonical_christoffels(s), kind="canonical")
        basis = fields(s)
        for i in range(s.dim):
            for j in range(s.dim):
                assert recon.nabla(basis[i], basis[j]) == law.frame_table[i][j]


def test_table_route_equals_direct_evaluator_on_polynomial_args():
    s = random_structure(2, "polynomial_chart", degree=2, seed=414)
    law = canonical_connection(s)
    v = s.context.variables
    x = VectorField(s.context, [parse_poly(t, v) for t in ("x1*y1", "1", "x2", "0")])
    y = VectorField(s.context, [parse_poly(t, v) for t in ("y2", "x1", "0", "x1^2")])
    assert law.nabla(x, y) == nabla_via_table(law, x, y)


def test_connection_law_linearity_properties():
    s = random_structure(1, "polynomial_chart", degree=2, seed=99)
    law = canonical_connection(s)
    v = s.context.variables
    f = parse_poly("x1^2 - y1", v)
    x = VectorField(s.context, [parse_poly("x1", v), parse_poly("1", v)])
    y = VectorField(s.context, [parse_poly("y1", v), parse_poly("x1", v)])
    # function-linear in the direction slot
    assert law.nabla(x.scale(f), y) == law.nabla(x, y).scale(f)
    # Leibniz in the argument slot
    from bipara.geometry import directional_derivative

    lhs = law.nabla(x, y.scale(f))
    rhs = law.nabla(x, y).scale(f) + y.scale(directional_derivative(x, f))
    assert lhs == rhs


def test_torsion_and_curvature_multilinearity():
    s = random_structure(1, "polynomial_chart", degree=2, seed=55)
    law = canonical_connection(s)
    t = torsion(law)
    r = curvature(law)
    v = s.context.variables
    f = parse_poly("x1*y1 + 2", v)
    x = VectorField(s.context, [parse_poly("1", v), parse_poly("x1", v)])
    y = VectorField(s.context, [parse_poly("y1", v), parse_poly("1", v)])
    z = VectorField(s.context, [parse_poly("x1", v), parse_poly("0", v)])
    assert t.evaluate(x.scale(f), y) == t.evaluate(x, y).scale(f)
    assert t.evaluate(x, y) == -t.evaluate(y, x)
    assert r.evaluate(x.scale(f), y, z) == r.evaluate(x, y, z).scale(f)
    assert r.evaluate(x, y, z) == -r.evaluate(y, x, z)


def test_derivation_law_block_identities():
    # the law restricted to eigendistribution arguments collapses to its
    # bracket building blocks: nabla_X Y = F-[X, Y] for X in V1, Y in V2,
    # nabla_Y X = F+[Y, X], and nabla_{X}{X'} = F+P[X, PX'] inside V1
    for seed in (3, 7):
        for backend in ("constant_frame", "polynomial_chart"):
            s = random_structure(2, backend, degree=2, seed=seed)
            law = canonical_connection(s)
            fp, fm = s.projectors.f_plus, s.projectors.f_minus
            for i in range(s.dim):
                for j in range(s.dim):
                    x_plus = fp.apply(s.basis[i])
                    y_minus = fm.apply(s.basis[j])
                    assert law.nabla(x_plus, y_minus) == fm.apply(
                        lie_bracket(x_plus, y_minus)
                    )
                    assert law.nabla(y_minus, x_plus) == fp.apply(
                        lie_bracket(y_minus, x_plus)
                    )
                    other_plus = fp.apply(s.basis[j])
                    assert law.nabla(x_plus, other_plus) == fp.apply(
                        s.P.apply(lie_bracket(x_plus, s.P.apply(other_plus)))
                    )


def test_mixed_torsion_vanishes_on_random_polynomial_fields():
    s = random_structure(2, "polynomial_chart", degree=2, seed=2718)
    t = torsion(canonical_connection(s))
    v = s.context.variables
    x = VectorField(s.context, [parse_poly(e, v) for e in ("x1*y2", "1", "x2", "y1")])
    y = VectorField(s.context, [parse_poly(e, v) for e in ("y1", "x1^2", "0", "3")])
    fp, fm = s.projectors.f_plus, s.projectors.f_minus
    assert t.evaluate(fp.apply(x), fm.apply(y)).is_zero


def test_torsion_direct_definition_agrees_with_table(heis):
    law = canonical_connection(heis)
    t = torsion(law)
    basis = fields(heis)
    for i in range(heis.dim):
        for j in range(heis.dim):
            direct = (
                law.nabla(basis[i], basis[j])
                - law.nabla(basis[j], basis[i])
                - lie_bracket(basis[i], basis[j])
            )
            assert direct == t.table[i][j]


def test_curvature_direct_definition_on_constant_backend(aff):
    law = canonical_connection(aff)
    r = curvature(aff and law)
    basis = fields(aff)
    for i in range(aff.dim):
        for j in range(i + 1, aff.dim):
            for k in range(aff.dim):
                direct = (
                    law.nabla(basis[i], law.nabla(basis[j], basis[k]))
                    - law.nabla(basis[j], law.nabla(basis[i], basis[k]))
                    - nabla_via_table(law, lie_bracket(basis[i], basis[j]), basis[k])
                )
                assert direct == r.table[(i, j, k)]


# -- parallelism and the preservation lemma ----------------------------------


def test_canonical_parallelizes_structure(flat_n2, heis, aff):
    for s in (flat_n2, heis, aff):
        law = canonical_connection(s)
        assert is_parallel(law, s.F)
        assert is_parallel(law, s.P)
        assert is_parallel(law, s.J)


def test_preservation_lemma_biconditional_true_side(heis):
    law = canonical_connection(heis)
    assert preserves_distributions(law, heis)
    assert is_parallel(law, heis.F) and is_parallel(law, heis.P)


def _v1v2_only_law(s) -> ConnectionLaw:
    """nabla_X Y = F+[X, F+Y] + F-[X, F-Y]: preserves V1 and V2 only.

    A genuine derivation law on the constant backend (scalars there are
    constants), used as the Lemma counterexample.
    """
    fp, fm = s.projectors.f_plus, s.projectors.f_minus

    def law(x, y):
        return fp.apply(lie_bracket(x, fp.apply(y))) + fm.apply(
            lie_bracket(x, fm.apply(y))
        )

    return ConnectionLaw(s, "custom", law)


def test_preservation_lemma_biconditional_false_side(aff):
    law = _v1v2_only_law(aff)
    x1, x2, y1, y2 = fields(aff)
    # the law moves along V1/V2 fine but fails P-parallelism...
    assert is_parallel(law, aff.F)
    assert not is_parallel(law, aff.P)
    # ... so the three-distribution check must fail too (V3 breaks)
    assert not preserves_distributions(law, aff)
    # and the specific V3 escape is visible: nabla_{X1}(P+ X2) leaves V3
    escape = aff.projectors.p_minus.apply(
        law.nabla(x1, aff.projectors.p_plus.apply(x2))
    )
    assert not escape.is_zero


def test_zero_table_law_on_flat_preserves_everything(flat_n2):
    n = flat_n2.n
    zero = flat_n2.context.zero_poly()
    zeros = tuple(
        tuple(tuple(zero for _ in range(n)) for _ in range(n)) for _ in range(n)
    )
    law = connection_from_table(flat_n2, ChristoffelTable(n=n, xx=zeros, yx=zeros))
    assert preserves_distributions(law, flat_n2)
    assert is_parallel(law, flat_n2.F) and is_parallel(law, flat_n2.P)


def test_preservation_lemma_on_generated(generated_pool):
    for s in generated_pool[::7]:
        law = canonical_connection(s)
        left = preserves_distributions(law, s)
        right = is_parallel(law, s.F) and is_parallel(law, s.P)
        assert left == right == True  # noqa: E712


def test_preservation_lemma_on_well_adapted(generated_pool):
    for s in generated_pool[::9]:
        wa = Analysis(s).well_adapted
        assert preserves_distributions(wa, s)
        assert is_parallel(wa, s.F) and is_parallel(wa, s.P)


def test_preservation_lemma_on_mutated_table_law(heis):
    # inject an explicit XY block that is NOT P(nabla_X X): breaks F- and
    # P-parallelism, and the distribution check must break in step
    n = heis.n
    ctx = heis.context
    zero = ctx.zero_poly()
    one = ctx.const_poly(1)
    zeros = tuple(tuple(tuple(zero for _ in range(n)) for _ in range(n)) for _ in range(n))
    skew_xy = tuple(
        tuple(tuple(one if (h, a, i) == (0, 0, 0) else zero for i in range(n)) for a in range(n))
        for h in range(n)
    )
    law = connection_from_table(
        heis, ChristoffelTable(n=n, xx=zeros, yx=zeros, xy=skew_xy, yy=zeros)
    )
    # nabla_{X1} Y1 = X1 now lands outside T_F^-: parallelism fails
    assert not is_parallel(law, heis.F)
    assert not preserves_distributions(law, heis)
    assert preserves_distributions(law, heis) == (
        is_parallel(law, heis.F) and is_parallel(law, heis.P)
    )


# -- well-adapted connection ---------------------------------------------------


def test_well_adapted_equals_canonical_on_flat(flat_n2):
    canon = canonical_connection(flat_n2)
    wa = well_adapted_connection(DifferenceTensor(torsion(canon)))
    for i in range(flat_n2.dim):
        for j in range(flat_n2.dim):
            assert wa.frame_table[i][j] == canon.frame_table[i][j]


def test_aff_well_adapted_table_values(aff):
    table = well_adapted_christoffels(aff)
    third = Fraction(1, 3)
    # storage: xx[a][h][b] = X_b-coefficient of nabla'_{X_a} X_h
    assert table.xx[0][1][0] == third
    assert table.xx[1][0][0] == -third
    for a in range(2):
        for h in range(2):
            for b in range(2):
                assert table.yx[a][h][b].is_zero


def test_heis_well_adapted_table_vanishes(heis):
    table = well_adapted_christoffels(heis)
    for a in range(2):
        for h in range(2):
            for b in range(2):
                assert table.xx[a][h][b].is_zero
                assert table.yx[a][h][b].is_zero


def test_aff_well_adapted_values(aff):
    a = Analysis(aff)
    wa = a.well_adapted
    x1, x2, y1, y2 = fields(aff)
    third = Fraction(1, 3)
    assert wa.nabla(x1, x2) == x1.scale(third)
    t = torsion(wa)
    assert t.evaluate(x1, x2) == x1.scale(-third)
    assert a.difference.evaluate(x1, x2) == x1.scale(-third)


def test_well_adapted_routes_agree_on_fixtures(flat_n2, heis, aff):
    for s in (flat_n2, heis, aff):
        a = Analysis(s)
        assert well_adapted_routes_agree(a.well_adapted, a.christoffels_well_adapted)


def test_well_adapted_parallelizes_structure(generated_pool):
    for s in generated_pool[::6]:
        wa = Analysis(s).well_adapted
        assert is_parallel(wa, s.F)
        assert is_parallel(wa, s.P)
        assert is_parallel(wa, s.J)


def test_well_adapted_connection_is_functorial():
    # transport a NON-integrable structure (so well-adapted differs from
    # canonical) along an algebra isomorphism: construction and pushforward
    # must still commute
    from fractions import Fraction

    from bipara.geometry import PolyMap, algebra_context
    from bipara.structure import affine_structure, heisenberg_structure, _random_constant_automorphism

    rng = random.Random(625)
    for base in (heisenberg_structure(), affine_structure()):
        ctx = base.context
        mat, inv = _random_constant_automorphism(4, rng)
        dim = 4
        cols_inv = [[inv[r][c] for r in range(dim)] for c in range(dim)]
        table = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                pre = ctx._vector_bracket(cols_inv[i], cols_inv[j])
                image = [
                    sum((mat[r][t] * pre[t] for t in range(dim)), Fraction(0))
                    for r in range(dim)
                ]
                if any(image):
                    table[(i, j)] = tuple(image)
        target_ctx = algebra_context(dim, table)
        m = PolyMap(ctx, target_ctx, matrix=mat, matrix_inverse=inv)
        target = pushforward_structure(m, base)
        # AFF is the strong case: its well-adapted law differs from canonical
        pushed = pushforward_connection(m, Analysis(base).well_adapted, target_structure=target)
        direct = Analysis(target).well_adapted
        for i in range(dim):
            for j in range(dim):
                assert pushed.frame_table[i][j] == direct.frame_table[i][j]


def test_difference_tensor_both_routes_on_fixtures(flat_n2, heis, aff):
    for s in (flat_n2, heis, aff):
        diff = Analysis(s).difference
        basis = fields(s)
        for i in range(s.dim):
            for j in range(s.dim):
                assert diff.table[i][j] == diff.bracket_route(basis[i], basis[j])


def test_difference_tensor_rejects_a_non_canonical_torsion(aff):
    # T' differs from T on AFF, so its torsion route misses the bracket route
    a = Analysis(aff)
    with pytest.raises(StructureError, match="difference-tensor routes disagree"):
        DifferenceTensor(a.torsion("well-adapted"))
    assert DifferenceTensor(a.torsion("canonical")).canonical is a.canonical


def test_difference_vanishes_iff_integrable(flat_n2, heis, aff):
    assert Analysis(flat_n2).difference.is_zero
    assert Analysis(heis).difference.is_zero  # nonzero torsion, zero difference
    assert not Analysis(aff).difference.is_zero


def test_trace_condition(aff, heis, flat_n2):
    a = Analysis(aff)
    assert trace_condition_holds(a.torsion("well-adapted"))
    assert not trace_condition_holds(a.torsion("canonical"))
    # any law is well adapted on the flat model
    assert trace_condition_holds(torsion(canonical_connection(flat_n2)))
    assert trace_condition_holds(torsion(canonical_connection(heis)))


def test_trace_condition_worked_entry(aff):
    # omega_1(T'(X1,X2)) = -1/3 is balanced by eta_1(T'(X1,Y2)) = 1/3
    t = Analysis(aff).torsion("well-adapted")
    x1, x2, y1, y2 = fields(aff)
    assert t.evaluate(x1, x2) == x1.scale(Fraction(-1, 3))
    assert t.evaluate(x1, y2) == y1.scale(Fraction(1, 3))


# -- functoriality --------------------------------------------------------------


def test_pushforward_connection_functorial():
    rng = random.Random(1234)
    base = flat_structure(2)
    for k in range(3):
        m = random_unipotent_map(base.context, 2, rng)
        target = pushforward_structure(m, base)
        pushed = pushforward_connection(m, canonical_connection(base), target_structure=target)
        direct = canonical_connection(target)
        for i in range(base.dim):
            for j in range(base.dim):
                assert pushed.frame_table[i][j] == direct.frame_table[i][j]


def test_pushforward_of_flat_connection_stays_flat():
    rng = random.Random(77)
    base = flat_structure(1)
    m = random_unipotent_map(base.context, 2, rng)
    target = pushforward_structure(m, base)
    pushed = pushforward_connection(m, canonical_connection(base), target_structure=target)
    assert torsion(pushed).is_zero
    assert curvature(pushed).is_zero


def test_pushforward_dispatch(flat_n2):
    rng = random.Random(31)
    m = random_unipotent_map(flat_n2.context, 2, rng)
    law = canonical_connection(flat_n2)
    assert isinstance(pushforward(m, law), ConnectionLaw)
    assert pushforward(m, flat_n2.basis[0]).context == flat_n2.context
    with pytest.raises(TypeError):
        pushforward(m, object())


def test_endo_covariant_derivative_evaluator(heis):
    law = canonical_connection(heis)
    table, evaluate = endo_covariant_derivative(law, heis.P)
    basis = fields(heis)
    for i in range(4):
        for j in range(4):
            assert table[i][j] == evaluate(basis[i], basis[j])
