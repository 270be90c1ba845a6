import json
import random
from fractions import Fraction

import pytest

from bipara import structure
from bipara.cli import Analysis, MathValidationError, main
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
    pushforward_connection,
    torsion,
    trace_condition_holds,
    well_adapted_christoffels,
    well_adapted_connection,
    well_adapted_routes_agree,
)
from bipara.diagnostics import coframe_error
from bipara.geometry import (
    ContextMismatch,
    VectorField,
    algebra_context,
    basis_fields,
    chart_context,
    lie_bracket,
    pushforward_vector,
)
from bipara.poly import parse_poly
from bipara.structure import (
    StructureError,
    _random_isomorphism,
    affine_structure,
    flat_structure,
    nilpotent_chart,
    pushforward_structure,
    random_structure,
    random_unipotent_map,
)
from conftest import _pool_entry, chart_spec, nilpotent_table, zero_shortcut_operands


def fields(s):
    return s.basis


def nabla_via_table(law, x, w):
    """Table route for nabla_X W; equals the evaluator for genuine laws."""
    ctx = law.context
    acc = VectorField(ctx, [ctx.zero] * ctx.dim)
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


@pytest.mark.parametrize("n", [2, 3])
def test_christoffel_tables_bracket_only_the_frame_pairs_they_read(n, monkeypatch, tmp_path, capsys):
    s = _pool_entry("nilpotent_chart", n, 5)
    spec = tmp_path / "pushed.json"
    spec.write_text(json.dumps(chart_spec(s)), encoding="utf-8")
    calls = []
    bracket = structure.lie_bracket

    def counting(x, y):
        calls.append((x, y))
        return bracket(x, y)

    monkeypatch.setattr(structure, "lie_bracket", counting)
    # the canonical table reads [X_h, Y_a] and [Y_h, X_a] = -[X_a, Y_h]: n^2 pairs
    canonical_christoffels(s)
    assert len(calls) == n * n
    canonical_christoffels(s)
    assert len(calls) == n * n
    # the well-adapted table reads every unordered pair, each bracketed once
    well_adapted_christoffels(s)
    assert len(calls) == 2 * n * n - n
    calls.clear()
    assert main(["report", str(spec)]) == 0
    capsys.readouterr()
    assert len(calls) == 2 * n * n - n


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


def test_law_rejects_fields_of_another_context(heis):
    law = canonical_connection(heis)
    other = basis_fields(algebra_context(heis.dim))[0]  # same dimension, abelian
    with pytest.raises(ContextMismatch):
        law.nabla(heis.basis[0], other)
    with pytest.raises(ContextMismatch):
        law.nabla_of_field(0, other)


def test_tensor_evaluation_rejects_fields_of_another_context(heis, aff):
    # same dimension, other brackets; and a chart of another dimension
    a = Analysis(heis)
    t, r = a.torsion("canonical"), a.curvature("canonical")
    for other in (aff.basis, flat_structure(1).basis):
        with pytest.raises(ContextMismatch):
            t.evaluate(*other[:2])
        with pytest.raises(ContextMismatch):
            t.evaluate(heis.basis[0], other[1])
        with pytest.raises(ContextMismatch):
            r.evaluate(heis.basis[0], heis.basis[1], other[0])
    twin = algebra_context(heis.dim, heis.context.brackets)
    assert twin is not heis.context
    x, y = basis_fields(twin)[:2]
    assert t.evaluate(x, y) == t.evaluate(*heis.basis[:2])


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


def test_torsion_direct_definition_agrees_with_table(heis, aff, generated_pool):
    # lie_bracket(E_i, E_j) is the reference for the table's bracket term,
    # which reads the context's structure constants instead.
    for s in [heis, aff, *generated_pool[::4]]:
        law = canonical_connection(s)
        t = torsion(law)
        basis = fields(s)
        for i in range(s.dim):
            for j in range(s.dim):
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
    zero = flat_n2.context.zero
    zeros = tuple(
        tuple(tuple(zero for _ in range(n)) for _ in range(n)) for _ in range(n)
    )
    law = connection_from_table(flat_n2, ChristoffelTable(xx=zeros, yx=zeros))
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
    # add S(X, Y) = omega_1(X) eta_1(Y) X_1 to the zero-table law: nabla_{X1} Y1
    # is no longer P(nabla_{X1} X1), which breaks F- and P-parallelism, and the
    # distribution check must break in step
    n = heis.n
    zero = heis.context.zero
    zeros = tuple(tuple(tuple(zero for _ in range(n)) for _ in range(n)) for _ in range(n))
    base = connection_from_table(heis, ChristoffelTable(xx=zeros, yx=zeros))
    x1 = heis.frame_field(0)

    def mutated(x, y):
        omega_1 = heis.coframe.matvec(list(x.components))[0]
        eta_1 = heis.coframe.matvec(list(y.components))[n]
        return base.nabla(x, y) + x1.scale(omega_1 * eta_1)

    law = ConnectionLaw(heis, "custom", mutated)
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


def test_law_kinds_name_their_analysis_entries(aff):
    a = Analysis(aff)
    assert a.well_adapted.kind == "well-adapted"
    assert a.torsion(a.well_adapted.kind) is a.torsion("well-adapted")
    assert a.curvature(a.canonical.kind) is a.curvature("canonical")


@pytest.mark.parametrize("method", ["law", "torsion", "curvature", "christoffels"])
def test_unknown_connection_kind_is_a_validation_error(aff, method):
    with pytest.raises(MathValidationError, match="^unknown connection kind 'bogus'$"):
        getattr(Analysis(aff), method)("bogus")


def test_cells_cover_the_independent_entries_in_index_order(aff):
    a = Analysis(aff)
    dim = aff.dim
    pairs = [(i, j) for i in range(dim) for j in range(dim)]
    law, diff = a.well_adapted, a.difference
    t, r = a.torsion("well-adapted"), a.curvature("well-adapted")
    assert list(law.cells()) == [((i, j), law.frame_table[i][j]) for i, j in pairs]
    assert list(diff.cells()) == [((i, j), diff.table[i][j]) for i, j in pairs]
    assert list(t.cells()) == [((i, j), t.table[i][j]) for i, j in pairs if i < j]
    assert list(r.cells()) == [
        ((i, j, k), r.table[(i, j, k)]) for i, j in pairs if i < j for k in range(dim)
    ]


def test_well_adapted_routes_agree_on_fixtures(flat_n2, heis, aff):
    for s in (flat_n2, heis, aff):
        a = Analysis(s)
        assert well_adapted_routes_agree(a.well_adapted, a.christoffels("well-adapted"))


def test_well_adapted_routes_agree_fails_on_the_canonical_table(aff):
    # AFF is not integrable, so its canonical Christoffel table rebuilds a
    # law that differs from the frame-free well-adapted one
    a = Analysis(aff)
    assert not well_adapted_routes_agree(a.well_adapted, a.christoffels("canonical"))
    assert well_adapted_routes_agree(a.well_adapted, a.christoffels("well-adapted"))


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
    from bipara.structure import _random_isomorphism, affine_structure, heisenberg_structure

    rng = random.Random(625)
    for base in (heisenberg_structure(), affine_structure()):
        m = _random_isomorphism(base.context, rng)
        dim = 4
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
    with pytest.raises(StructureError, match="difference-tensor routes disagree") as err:
        DifferenceTensor(a.torsion("well-adapted"))
    # the witness is the first disagreeing frame pair in row-major order
    assert err.value.failures[0]["witness"] == {"pair": (0, 1)}
    assert DifferenceTensor(a.torsion("canonical")).canonical is a.canonical


def test_difference_tensor_rejects_a_custom_law_with_the_canonical_torsion(aff):
    # canonical + S with S(X, Y) = (sum x_i y_i) E_1 symmetric: the torsion
    # table is the canonical one, so only the law's kind tells them apart
    canon = Analysis(aff).canonical
    e1 = aff.basis[0]

    def law(x, y):
        weight = aff.context.zero
        for xi, yi in zip(x.components, y.components):
            weight = weight + xi * yi
        return canon.nabla(x, y) + e1.scale(weight)

    custom = torsion(ConnectionLaw(aff, "custom", law))
    assert custom.table == torsion(canon).table
    with pytest.raises(StructureError, match="difference tensor needs the canonical torsion"):
        DifferenceTensor(custom)


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


def _source_map_target(kind):
    """A structure, an equivalence m out of it and the structure m carries it to.

    ``chart`` is a non-integrable n = 2 nilpotent chart pushed by a unipotent
    map (one chart context at both ends); ``affine`` is ``affine_structure``
    carried onto another algebra context.
    """
    rng = random.Random(2718)
    if kind == "chart":
        source = nilpotent_chart(2, nilpotent_table(2, rng))
        m = random_unipotent_map(source.context, 2, rng)
    else:
        source = affine_structure()
        m = _random_isomorphism(source.context, rng)
    return source, m, pushforward_structure(m, source)


ATTACHED_PAIR_TENSORS = {
    "T": lambda a: a.torsion("canonical"),
    "T'": lambda a: a.torsion("well-adapted"),
    "A": lambda a: a.difference,
    "N_F": lambda a: a.concomitant("F"),
    "N_P": lambda a: a.concomitant("P"),
    "[F, P]": lambda a: a.concomitant("FP"),
}


def test_every_attached_pair_tensor_is_transported_by_an_equivalence():
    # m . S_src(m^-1 X', m^-1 Y') = S_tgt(X', Y') on every pair of target
    # basis fields, for each tensor attached to (F, P).
    nonzero = set()
    for kind in ("chart", "affine"):
        source, m, target = _source_map_target(kind)
        back = m.inverted()
        at_source, at_target = Analysis(source), Analysis(target)
        pulled = [pushforward_vector(back, x) for x in target.basis]
        for name, attached in ATTACHED_PAIR_TENSORS.items():
            s_src, s_tgt = attached(at_source), attached(at_target)
            for x, x_src in zip(target.basis, pulled):
                for y, y_src in zip(target.basis, pulled):
                    assert pushforward_vector(m, s_src.evaluate(x_src, y_src)) == s_tgt.evaluate(x, y)
            if not s_tgt.is_zero:
                nonzero.add(name)
    # A vanishes on the chart and N_F on the affine structure; neither on both.
    assert nonzero == set(ATTACHED_PAIR_TENSORS)


PREPARED_LAWS = {
    "canonical": lambda source, m, target: canonical_connection(target),
    "table": lambda source, m, target: connection_from_table(target, canonical_christoffels(target)),
    "pushed": lambda source, m, target: pushforward_connection(
        m, connection_from_table(source, canonical_christoffels(source)), target_structure=target
    ),
}


@pytest.mark.parametrize("kind", ["chart", "affine"])
@pytest.mark.parametrize("law_name", sorted(PREPARED_LAWS))
def test_prepared_frame_table_equals_the_law_on_each_pair(kind, law_name):
    # The table prepares each basis field once; nabla prepares both arguments per call.
    source, m, target = _source_map_target(kind)
    law = PREPARED_LAWS[law_name](source, m, target)
    basis = target.basis
    for (i, j), cell in law.cells():
        assert cell == law.nabla(basis[i], basis[j])
    assert law.frame_table == canonical_connection(target).frame_table


def test_pushed_law_rejects_fields_of_the_source_context():
    source, m, target = _source_map_target("affine")
    assert m.source != m.target
    pushed = PREPARED_LAWS["pushed"](source, m, target)
    with pytest.raises(ContextMismatch):
        pushed.nabla(source.basis[0], target.basis[1])
    with pytest.raises(ContextMismatch):
        pushed.nabla(target.basis[0], source.basis[1])


def test_endo_covariant_derivative_definition(heis, aff):
    # (nabla_{E_i} e)(E_j) = nabla_{E_i}(e E_j) - e(nabla_{E_i} E_j), read off the law itself.
    for s in (heis, aff):
        basis = fields(s)
        canon = canonical_connection(s)
        for law in (canon, well_adapted_connection(DifferenceTensor(torsion(canon)))):
            for e in (s.F, s.P):
                table = endo_covariant_derivative(law, e)
                for i in range(s.dim):
                    for j in range(s.dim):
                        expected = law.nabla(basis[i], e.apply(basis[j])) - e.apply(
                            law.nabla(basis[i], basis[j])
                        )
                        assert table.table[i][j] == expected


def _nabla_of_field_componentwise(law, i, w):
    """nabla_{E_i} W by Leibniz expansion over every component, zero or not."""
    ctx = law.context
    out = [ctx.zero] * ctx.dim
    for m, wm in enumerate(w.components):
        out[m] = out[m] + ctx.frame_derivative(i, wm)
        for t, comp in enumerate(law.frame_table[i][m].components):
            out[t] = out[t] + wm * comp
    return VectorField(ctx, out)


def _laws_of(s):
    laws = [canonical_connection(s)]
    if s.adapted_frame is not None and coframe_error(s) is None:
        laws.append(connection_from_table(s, canonical_christoffels(s)))
    return laws


@pytest.mark.parametrize("kind", ["constant_frame", "polynomial_chart", "nilpotent_chart"])
def test_nabla_of_a_zero_field_equals_the_componentwise_result(pool_entry_of_kind, kind):
    s = pool_entry_of_kind[kind]
    ctx = s.context
    other = chart_context([f"u{k}" for k in range(ctx.dim)]).zero_field
    for law in _laws_of(s):
        for w in zero_shortcut_operands(s):
            for i in range(ctx.dim):
                result = law.nabla_of_field(i, w)
                expected = _nabla_of_field_componentwise(law, i, w)
                assert result == expected and hash(result) == hash(expected)
        assert law.nabla_of_field(0, ctx.zero_field) is ctx.zero_field
        # A zero field of another context takes no shortcut past the context check.
        with pytest.raises(ContextMismatch):
            law.nabla_of_field(0, other)
