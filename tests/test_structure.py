import random
from fractions import Fraction

import pytest

from bipara.geometry import (
    EndoField,
    VectorField,
    algebra_context,
    basis_fields,
)
from bipara.linalg import PolyMatrix, rat_rank
from bipara.structure import (
    BiparaStructure,
    StructureError,
    adapted_basis,
    classify_triple,
    delta_gl_algebra_membership,
    delta_gl_membership,
    flat_structure,
    heisenberg_structure,
    pushforward_structure,
    random_structure,
    structure_from_alpha,
)


def constant_endo(ctx, rows):
    return EndoField(ctx, PolyMatrix.from_rational_rows(rows, ctx.variables))


def test_flat_model_validates_with_expected_j():
    s = flat_structure(2)
    e = basis_fields(s.context)
    # J = F o P sends dx_i -> dy_i and dy_i -> -dx_i
    assert s.J.apply(e[0]) == e[2]
    assert s.J.apply(e[2]) == -e[0]


def test_commuting_involutions_rejected():
    ctx = algebra_context(4, {})
    diag = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    f = constant_endo(ctx, diag)
    with pytest.raises(StructureError) as err:
        BiparaStructure.validate(f, f)
    names = [fail["name"] for fail in err.value.failures]
    assert "F∘P + P∘F != 0" in names


def test_odd_trace_rejected_separately():
    ctx = algebra_context(2, {})
    f = constant_endo(ctx, [[1, 0], [0, 1]])  # involution but trace 2
    p = constant_endo(ctx, [[0, 1], [1, 0]])
    with pytest.raises(StructureError) as err:
        BiparaStructure.validate(f, p)
    names = [fail["name"] for fail in err.value.failures]
    assert "trace(F) != 0" in names
    assert "F∘P + P∘F != 0" in names


def test_heisenberg_fixture_validates():
    s = heisenberg_structure()
    assert s.adapted_frame is not None
    assert s.n == 2


def test_projector_identities_hold(generated_pool):
    for s in generated_pool[:10]:
        proj = s.projectors
        eye = EndoField.identity(s.context)
        assert (proj.f_plus + proj.f_minus).matrix == eye.matrix
        assert proj.f_plus.compose(proj.f_minus).is_zero
        assert proj.f_plus.compose(proj.f_plus) == proj.f_plus
        assert proj.p_minus.compose(proj.p_minus) == proj.p_minus
        # anticommutation transport: P F- = F+ P and P F+ = F- P
        assert s.P.compose(proj.f_minus) == proj.f_plus.compose(s.P)
        assert s.P.compose(proj.f_plus) == proj.f_minus.compose(s.P)


def test_projector_rank_is_n(generated_pool):
    for s in generated_pool[:8]:
        if s.context.backend == "polynomial_chart":
            point = [Fraction(0)] * s.dim
            rows = s.projectors.f_plus.matrix.evaluate(point)
        else:
            rows = s.projectors.f_plus.matrix.constant_rows()
        assert rat_rank(rows) == s.n


def test_adapted_basis_simple_model():
    s = flat_structure(1, "constant_frame")
    e = basis_fields(s.context)
    p_images, sums, diffs = adapted_basis(s, [e[0]])
    assert p_images == [e[1]]
    assert sums == [e[0] + e[1]]
    assert diffs == [e[0] - e[1]]


def test_adapted_basis_flat_chart():
    s = flat_structure(2)
    e = basis_fields(s.context)
    xs = [e[0] + e[2], e[1] + e[3]]  # dx_i + dy_i span T_F^+
    p_images, sums, diffs = adapted_basis(s, xs)
    assert p_images[0] == e[0] - e[2]
    assert sums[0] == (e[0] + e[2]) + (e[0] - e[2])
    assert diffs[1] == (e[1] + e[3]) - (e[1] - e[3])


def test_adapted_basis_rejects_bad_input():
    s = flat_structure(2)
    e = basis_fields(s.context)
    with pytest.raises(StructureError, match="T_F"):
        adapted_basis(s, [e[0], e[1]])  # F dx1 = dy1 != dx1
    with pytest.raises(StructureError, match="dependent"):
        adapted_basis(s, [e[0] + e[2], e[0] + e[2]])


def test_structure_from_alpha_two_dim():
    ctx = algebra_context(2, {})
    e1, e2 = basis_fields(ctx)
    s = structure_from_alpha([e1], [e2], [e1 + e2])
    rows_f = s.F.matrix.constant_rows()
    rows_p = s.P.matrix.constant_rows()
    assert rows_f == [[1, 0], [0, -1]]
    assert rows_p == [[0, 1], [1, 0]]


def test_structure_from_alpha_rejects_degenerate():
    ctx = algebra_context(2, {})
    e1, e2 = basis_fields(ctx)
    with pytest.raises(StructureError, match="transversality"):
        structure_from_alpha([e1], [e2], [e1])


def test_structure_from_alpha_round_trip():
    rng = random.Random(21)
    ctx = algebra_context(4, {})
    for _ in range(5):
        def rand_fields(count):
            return [
                VectorField.from_rationals(ctx, [rng.randint(-2, 2) for _ in range(4)])
                for _ in range(count)
            ]
        try:
            v1, v2, v3 = rand_fields(2), rand_fields(2), rand_fields(2)
            s = structure_from_alpha(v1, v2, v3)
        except StructureError:
            continue
        # reading the eigendistributions back reproduces the input spans
        for w in v1:
            assert s.F.apply(w) == w
        for w in v2:
            assert s.F.apply(w) == -w
        for w in v3:
            assert s.P.apply(w) == w


def test_classify_triple_kinds():
    s = flat_structure(2)
    assert classify_triple(s.F, s.P) == "biparacomplex-type"

    ctx = algebra_context(4, {})
    f = constant_endo(ctx, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    p = constant_endo(ctx, [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    assert classify_triple(f, p) == "hyperproduct-type"

    i_mat = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    j_mat = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
    assert classify_triple(constant_endo(ctx, i_mat), constant_endo(ctx, j_mat)) == "hypercomplex-type"

    rot_pair = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    assert classify_triple(constant_endo(ctx, i_mat), constant_endo(ctx, rot_pair)) == "bicomplex-type"

    assert classify_triple(f, constant_endo(ctx, i_mat)) == "none"


def test_classify_triple_invariant_under_conjugation():
    s = heisenberg_structure()
    conj = random_structure(2, "constant_frame", seed=77, conjugate=True)
    assert classify_triple(s.F, s.P) == classify_triple(conj.F, conj.P) == "biparacomplex-type"


def test_generate_identity_seed_reproduces_flat():
    base = flat_structure(2)
    # a degree-0 bound forces the conjugating map to be the identity
    same = random_structure(2, "polynomial_chart", degree=0, seed=0)
    assert same.F == base.F and same.P == base.P
    assert same.adapted_frame == base.adapted_frame
    from bipara.geometry import identity_map

    moved = pushforward_structure(identity_map(base.context), base)
    assert moved.F == base.F and moved.P == base.P


def test_generated_structures_validate(generated_pool):
    for s in generated_pool:
        assert s.adapted_frame is not None
        assert classify_triple(s.F, s.P) == "biparacomplex-type"


def test_dim_eight_structure_end_to_end():
    # n = 4 sanity pass on the constant backend: generation, validation,
    # connection axioms and the difference machinery all scale past dim 6
    from bipara.connections import DifferenceTensor, canonical_connection, is_parallel, torsion

    s = random_structure(4, "constant_frame", seed=4096)
    assert s.dim == 8
    law = canonical_connection(s)
    assert is_parallel(law, s.F) and is_parallel(law, s.P) and is_parallel(law, s.J)
    DifferenceTensor(torsion(law))  # route cross-check runs internally


def test_delta_gl_membership():
    a = [[1, 1], [0, 1]]
    block = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    m = PolyMatrix.from_rational_rows(block, ())
    assert delta_gl_membership(m)
    assert delta_gl_algebra_membership(m)

    unequal = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 0, 1]]
    assert not delta_gl_membership(PolyMatrix.from_rational_rows(unequal, ()))

    off_diag = [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert not delta_gl_membership(PolyMatrix.from_rational_rows(off_diag, ()))

    singular = [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]
    assert not delta_gl_membership(PolyMatrix.from_rational_rows(singular, ()))
    assert delta_gl_algebra_membership(PolyMatrix.from_rational_rows(singular, ()))
