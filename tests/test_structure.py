import random
from fractions import Fraction

import pytest

from bipara.cli import build_structure, load_spec
from bipara.geometry import (
    EndoField,
    VectorField,
    algebra_context,
    basis_fields,
)
from bipara.linalg import LinAlgError, PolyMatrix, rat_rank
from bipara.poly import MultiPoly
from bipara.structure import (
    BiparaStructure,
    StructureError,
    adapted_basis,
    adapted_structure,
    affine_structure,
    classify_triple,
    delta_gl_algebra_membership,
    delta_gl_membership,
    flat_structure,
    heisenberg_structure,
    nilpotent_chart,
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


def test_structure_error_renders_each_failure_with_its_witness():
    from bipara.structure import failure

    assert str(StructureError.of("missing adapted frame")) == "missing adapted frame"
    err = StructureError(
        [failure("F^2 != Id", {"row": 0, "col": 1, "value": "2"}), failure("P*X_1 != Y_1")]
    )
    assert str(err) == "F^2 != Id (witness {'row': 0, 'col': 1, 'value': '2'}); P*X_1 != Y_1"
    assert err.failures == [
        {"name": "F^2 != Id", "witness": {"row": 0, "col": 1, "value": "2"}},
        {"name": "P*X_1 != Y_1", "witness": None},
    ]
    assert str(StructureError.of("routes disagree", {"pair": (0, 1)})) == (
        "routes disagree (witness {'pair': (0, 1)})"
    )


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


@pytest.mark.parametrize("pair, coeffs", [
    ((1, 1), (0, 0, 1, 0)),  # i >= j
    ((1, 0), (0, 0, 1, 0)),
    ((0, 2), (0, 0, 1, 0)),  # j >= n
    ((0, 1), (0, 0, 1)),  # wrong length
    ((0, 1), (1, 0, 0, 0)),  # nonzero X coefficient
])
def test_nilpotent_chart_rejects_a_table_that_is_not_2_step(pair, coeffs):
    with pytest.raises(StructureError, match=rf"bracket \({pair[0]}, {pair[1]}\)"):
        nilpotent_chart(2, {pair: coeffs})


def test_adapted_structure_names_a_frame_without_polynomial_inverse():
    ctx = flat_structure(1).context
    x1 = MultiPoly.var(ctx.variables, "x1")
    frame = PolyMatrix.from_rows([[x1, x1], [x1, -x1]])
    with pytest.raises(LinAlgError, match=r"^adapted_frame: matrix is not polynomially invertible"):
        adapted_structure(ctx, frame)


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
        assert classify_triple(s.F, s.P) == s.triple_kind == "biparacomplex-type"


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


# ---------------------------------------------------------------------------
# Failure lists of `validate`, pinned
# ---------------------------------------------------------------------------


def _pin_bases():
    """Valid (F, P, adapted frame) triples on both backends, n = 1, 2."""
    bases = {}
    for backend in ("constant_frame", "polynomial_chart"):
        for n in (1, 2):
            bases[f"flat-{backend}-n{n}"] = flat_structure(n, backend)
    bases["conjugated-constant_frame-n2"] = random_structure(2, "constant_frame", seed=11, conjugate=True)
    bases["unipotent-polynomial_chart-n2"] = random_structure(2, "polynomial_chart", degree=2, seed=5)
    return {name: (s.F, s.P, s.adapted_frame) for name, s in bases.items()}


def _scale_columns(frame, columns, factor):
    """The frame with each listed column multiplied by the polynomial ``factor``."""
    variables = factor.variables
    one, zero = MultiPoly.const(variables, 1), MultiPoly.zero(variables)
    diag = PolyMatrix.from_rows(
        [[(factor if i in columns else one) if i == j else zero for j in range(frame.cols)] for i in range(frame.rows)]
    )
    return frame @ diag


def _pin_cases():
    """``(case id, F, P, adapted frame or None)`` for the failure-list pin table.

    The first variable scales the X_1 (and Y_1) columns of a chart frame: the
    result is singular at the origin but invertible over Q(x).  On a constant
    frame the same factor is 0, a frame singular everywhere.
    """
    cases = []
    for base, (f, p, frame) in _pin_bases().items():
        ctx = f.context
        n, dim, variables = ctx.dim // 2, ctx.dim, ctx.variables
        eye = EndoField.identity(ctx)
        zero_endo = eye.scale(0)
        factor = MultiPoly.var(variables, variables[0]) if variables else MultiPoly.zero(variables)
        x1_frame = _scale_columns(frame, {0}, factor)
        x1_y1_frame = _scale_columns(frame, {0, n}, factor)
        identity_frame = PolyMatrix.identity(dim, variables)
        doubled_y = _scale_columns(frame, set(range(n, dim)), MultiPoly.const(variables, 2))
        zero_frame = identity_frame.scale(0)
        table = [
            ("valid", f, p, frame),
            ("valid, no frame", f, p, None),
            ("F := 2F", f.scale(2), p, frame),
            ("F := 2F, no frame", f.scale(2), p, None),
            ("F := 0, no frame", zero_endo, p, None),
            ("P := 2P", f, p.scale(2), frame),
            ("P := 2P, no frame", f, p.scale(2), None),
            ("P := F, no frame", f, f, None),
            ("F := F + Id", f + eye, p, frame),
            ("F := F + x_1 Id", f + EndoField(ctx, _scale_columns(identity_frame, set(range(dim)), factor)), p, frame),
            ("F := Id, P := 0, no frame", eye, zero_endo, None),
            ("F := 0, P := Id, no frame", zero_endo, eye, None),
            ("F := Id", eye, p, frame),
            ("swapped F/P", p, f, frame),
            ("swapped F/P, no frame", p, f, None),
            ("P := -P", f, -p, frame),
            ("Y columns doubled", f, p, doubled_y),
            ("identity frame", f, p, identity_frame),
            ("swapped F/P, identity frame", p, f, identity_frame),
            ("zero frame", f, p, zero_frame),
            ("F := 2 Id, zero frame", eye.scale(2), p, zero_frame),
            ("X_1 scaled", f, p, x1_frame),
            ("X_1 and Y_1 scaled", f, p, x1_y1_frame),
            ("F := 2F, X_1 and Y_1 scaled", f.scale(2), p, x1_y1_frame),
        ]
        cases += [(f"{base}: {label}", *rest) for label, *rest in table]
    return cases


def _failure_list(f, p, frame):
    """The raised failures as (name, witness) pairs, or None when accepted."""
    try:
        BiparaStructure.validate(f, p, adapted_frame=frame)
    except StructureError as err:
        return [(fail["name"], fail["witness"]) for fail in err.failures]
    return None


# Generated by running `_failure_list` over `_pin_cases()` on the
# implementation that checked every identity directly on every input.
VALIDATE_FAILURES = {
    "flat-constant_frame-n1: valid": None,
    "flat-constant_frame-n1: valid, no frame": None,
    "flat-constant_frame-n1: F := 2F": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "3"}), ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None),
    ],
    "flat-constant_frame-n1: F := 2F, no frame": [("F^2 != Id", {"row": 0, "col": 0, "value": "3"})],
    "flat-constant_frame-n1: F := 0, no frame": [("F^2 != Id", {"row": 0, "col": 0, "value": "-1"})],
    "flat-constant_frame-n1: P := 2P": [
        ("P^2 != Id", {"row": 0, "col": 0, "value": "3"}), ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None),
    ],
    "flat-constant_frame-n1: P := 2P, no frame": [("P^2 != Id", {"row": 0, "col": 0, "value": "3"})],
    "flat-constant_frame-n1: P := F, no frame": [("F∘P + P∘F != 0", {"row": 0, "col": 0, "value": "2"})],
    "flat-constant_frame-n1: F := F + Id": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "3"}),
        ("F∘P + P∘F != 0", {"row": 0, "col": 1, "value": "2"}), ("trace(F) != 0", {"value": "2"}),
        ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None),
    ],
    "flat-constant_frame-n1: F := F + x_1 Id": None,
    "flat-constant_frame-n1: F := Id, P := 0, no frame": [
        ("P^2 != Id", {"row": 0, "col": 0, "value": "-1"}), ("trace(F) != 0", {"value": "2"}),
    ],
    "flat-constant_frame-n1: F := 0, P := Id, no frame": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "-1"}), ("trace(P) != 0", {"value": "2"}),
    ],
    "flat-constant_frame-n1: F := Id": [
        ("F∘P + P∘F != 0", {"row": 0, "col": 1, "value": "2"}), ("trace(F) != 0", {"value": "2"}),
        ("F*Y_1 != -Y_1", None),
    ],
    "flat-constant_frame-n1: swapped F/P": [
        ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None), ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None),
    ],
    "flat-constant_frame-n1: swapped F/P, no frame": None,
    "flat-constant_frame-n1: P := -P": [("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None)],
    "flat-constant_frame-n1: Y columns doubled": [("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None)],
    "flat-constant_frame-n1: identity frame": None,
    "flat-constant_frame-n1: swapped F/P, identity frame": [
        ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None), ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None),
    ],
    "flat-constant_frame-n1: zero frame": None,
    "flat-constant_frame-n1: F := 2 Id, zero frame": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "3"}),
        ("F∘P + P∘F != 0", {"row": 0, "col": 1, "value": "4"}), ("trace(F) != 0", {"value": "4"}),
    ],
    "flat-constant_frame-n1: X_1 scaled": [("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None)],
    "flat-constant_frame-n1: X_1 and Y_1 scaled": None,
    "flat-constant_frame-n1: F := 2F, X_1 and Y_1 scaled": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "3"}),
    ],
    "flat-constant_frame-n2: valid": None,
    "flat-constant_frame-n2: valid, no frame": None,
    "flat-constant_frame-n2: F := 2F": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "3"}), ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None),
        ("F*X_2 != X_2", None), ("F*Y_2 != -Y_2", None),
    ],
    "flat-constant_frame-n2: F := 2F, no frame": [("F^2 != Id", {"row": 0, "col": 0, "value": "3"})],
    "flat-constant_frame-n2: F := 0, no frame": [("F^2 != Id", {"row": 0, "col": 0, "value": "-1"})],
    "flat-constant_frame-n2: P := 2P": [
        ("P^2 != Id", {"row": 0, "col": 0, "value": "3"}), ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None),
        ("P*X_2 != Y_2", None), ("P*Y_2 != X_2", None),
    ],
    "flat-constant_frame-n2: P := 2P, no frame": [("P^2 != Id", {"row": 0, "col": 0, "value": "3"})],
    "flat-constant_frame-n2: P := F, no frame": [("F∘P + P∘F != 0", {"row": 0, "col": 0, "value": "2"})],
    "flat-constant_frame-n2: F := F + Id": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "3"}),
        ("F∘P + P∘F != 0", {"row": 0, "col": 2, "value": "2"}), ("trace(F) != 0", {"value": "4"}),
        ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None), ("F*X_2 != X_2", None), ("F*Y_2 != -Y_2", None),
    ],
    "flat-constant_frame-n2: F := F + x_1 Id": None,
    "flat-constant_frame-n2: F := Id, P := 0, no frame": [
        ("P^2 != Id", {"row": 0, "col": 0, "value": "-1"}), ("trace(F) != 0", {"value": "4"}),
    ],
    "flat-constant_frame-n2: F := 0, P := Id, no frame": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "-1"}), ("trace(P) != 0", {"value": "4"}),
    ],
    "flat-constant_frame-n2: F := Id": [
        ("F∘P + P∘F != 0", {"row": 0, "col": 2, "value": "2"}), ("trace(F) != 0", {"value": "4"}),
        ("F*Y_1 != -Y_1", None), ("F*Y_2 != -Y_2", None),
    ],
    "flat-constant_frame-n2: swapped F/P": [
        ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None), ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None),
        ("F*X_2 != X_2", None), ("F*Y_2 != -Y_2", None), ("P*X_2 != Y_2", None), ("P*Y_2 != X_2", None),
    ],
    "flat-constant_frame-n2: swapped F/P, no frame": None,
    "flat-constant_frame-n2: P := -P": [
        ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None), ("P*X_2 != Y_2", None), ("P*Y_2 != X_2", None),
    ],
    "flat-constant_frame-n2: Y columns doubled": [
        ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None), ("P*X_2 != Y_2", None), ("P*Y_2 != X_2", None),
    ],
    "flat-constant_frame-n2: identity frame": None,
    "flat-constant_frame-n2: swapped F/P, identity frame": [
        ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None), ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None),
        ("F*X_2 != X_2", None), ("F*Y_2 != -Y_2", None), ("P*X_2 != Y_2", None), ("P*Y_2 != X_2", None),
    ],
    "flat-constant_frame-n2: zero frame": None,
    "flat-constant_frame-n2: F := 2 Id, zero frame": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "3"}),
        ("F∘P + P∘F != 0", {"row": 0, "col": 2, "value": "4"}), ("trace(F) != 0", {"value": "8"}),
    ],
    "flat-constant_frame-n2: X_1 scaled": [("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None)],
    "flat-constant_frame-n2: X_1 and Y_1 scaled": None,
    "flat-constant_frame-n2: F := 2F, X_1 and Y_1 scaled": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "3"}), ("F*X_2 != X_2", None), ("F*Y_2 != -Y_2", None),
    ],
    "flat-polynomial_chart-n1: valid": None,
    "flat-polynomial_chart-n1: valid, no frame": None,
    "flat-polynomial_chart-n1: F := 2F": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "3"}), ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None),
    ],
    "flat-polynomial_chart-n1: F := 2F, no frame": [("F^2 != Id", {"row": 0, "col": 0, "value": "3"})],
    "flat-polynomial_chart-n1: F := 0, no frame": [("F^2 != Id", {"row": 0, "col": 0, "value": "-1"})],
    "flat-polynomial_chart-n1: P := 2P": [
        ("P^2 != Id", {"row": 0, "col": 0, "value": "3"}), ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None),
    ],
    "flat-polynomial_chart-n1: P := 2P, no frame": [("P^2 != Id", {"row": 0, "col": 0, "value": "3"})],
    "flat-polynomial_chart-n1: P := F, no frame": [("F∘P + P∘F != 0", {"row": 0, "col": 0, "value": "2"})],
    "flat-polynomial_chart-n1: F := F + Id": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "1"}),
        ("F∘P + P∘F != 0", {"row": 0, "col": 0, "value": "2"}), ("trace(F) != 0", {"value": "2"}),
        ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None),
    ],
    "flat-polynomial_chart-n1: F := F + x_1 Id": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "x1^2"}),
        ("F∘P + P∘F != 0", {"row": 0, "col": 0, "value": "2*x1"}), ("trace(F) != 0", {"value": "2*x1"}),
        ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None),
    ],
    "flat-polynomial_chart-n1: F := Id, P := 0, no frame": [
        ("P^2 != Id", {"row": 0, "col": 0, "value": "-1"}), ("trace(F) != 0", {"value": "2"}),
    ],
    "flat-polynomial_chart-n1: F := 0, P := Id, no frame": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "-1"}), ("trace(P) != 0", {"value": "2"}),
    ],
    "flat-polynomial_chart-n1: F := Id": [
        ("F∘P + P∘F != 0", {"row": 0, "col": 0, "value": "2"}), ("trace(F) != 0", {"value": "2"}),
        ("F*Y_1 != -Y_1", None),
    ],
    "flat-polynomial_chart-n1: swapped F/P": [
        ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None), ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None),
    ],
    "flat-polynomial_chart-n1: swapped F/P, no frame": None,
    "flat-polynomial_chart-n1: P := -P": [("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None)],
    "flat-polynomial_chart-n1: Y columns doubled": [("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None)],
    "flat-polynomial_chart-n1: identity frame": [
        ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None), ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None),
    ],
    "flat-polynomial_chart-n1: swapped F/P, identity frame": None,
    "flat-polynomial_chart-n1: zero frame": None,
    "flat-polynomial_chart-n1: F := 2 Id, zero frame": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "3"}),
        ("F∘P + P∘F != 0", {"row": 0, "col": 0, "value": "4"}), ("trace(F) != 0", {"value": "4"}),
    ],
    "flat-polynomial_chart-n1: X_1 scaled": [("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None)],
    "flat-polynomial_chart-n1: X_1 and Y_1 scaled": None,
    "flat-polynomial_chart-n1: F := 2F, X_1 and Y_1 scaled": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "3"}), ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None),
    ],
    "flat-polynomial_chart-n2: valid": None,
    "flat-polynomial_chart-n2: valid, no frame": None,
    "flat-polynomial_chart-n2: F := 2F": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "3"}), ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None),
        ("F*X_2 != X_2", None), ("F*Y_2 != -Y_2", None),
    ],
    "flat-polynomial_chart-n2: F := 2F, no frame": [("F^2 != Id", {"row": 0, "col": 0, "value": "3"})],
    "flat-polynomial_chart-n2: F := 0, no frame": [("F^2 != Id", {"row": 0, "col": 0, "value": "-1"})],
    "flat-polynomial_chart-n2: P := 2P": [
        ("P^2 != Id", {"row": 0, "col": 0, "value": "3"}), ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None),
        ("P*X_2 != Y_2", None), ("P*Y_2 != X_2", None),
    ],
    "flat-polynomial_chart-n2: P := 2P, no frame": [("P^2 != Id", {"row": 0, "col": 0, "value": "3"})],
    "flat-polynomial_chart-n2: P := F, no frame": [("F∘P + P∘F != 0", {"row": 0, "col": 0, "value": "2"})],
    "flat-polynomial_chart-n2: F := F + Id": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "1"}),
        ("F∘P + P∘F != 0", {"row": 0, "col": 0, "value": "2"}), ("trace(F) != 0", {"value": "4"}),
        ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None), ("F*X_2 != X_2", None), ("F*Y_2 != -Y_2", None),
    ],
    "flat-polynomial_chart-n2: F := F + x_1 Id": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "x1^2"}),
        ("F∘P + P∘F != 0", {"row": 0, "col": 0, "value": "2*x1"}), ("trace(F) != 0", {"value": "4*x1"}),
        ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None), ("F*X_2 != X_2", None), ("F*Y_2 != -Y_2", None),
    ],
    "flat-polynomial_chart-n2: F := Id, P := 0, no frame": [
        ("P^2 != Id", {"row": 0, "col": 0, "value": "-1"}), ("trace(F) != 0", {"value": "4"}),
    ],
    "flat-polynomial_chart-n2: F := 0, P := Id, no frame": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "-1"}), ("trace(P) != 0", {"value": "4"}),
    ],
    "flat-polynomial_chart-n2: F := Id": [
        ("F∘P + P∘F != 0", {"row": 0, "col": 0, "value": "2"}), ("trace(F) != 0", {"value": "4"}),
        ("F*Y_1 != -Y_1", None), ("F*Y_2 != -Y_2", None),
    ],
    "flat-polynomial_chart-n2: swapped F/P": [
        ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None), ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None),
        ("F*X_2 != X_2", None), ("F*Y_2 != -Y_2", None), ("P*X_2 != Y_2", None), ("P*Y_2 != X_2", None),
    ],
    "flat-polynomial_chart-n2: swapped F/P, no frame": None,
    "flat-polynomial_chart-n2: P := -P": [
        ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None), ("P*X_2 != Y_2", None), ("P*Y_2 != X_2", None),
    ],
    "flat-polynomial_chart-n2: Y columns doubled": [
        ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None), ("P*X_2 != Y_2", None), ("P*Y_2 != X_2", None),
    ],
    "flat-polynomial_chart-n2: identity frame": [
        ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None), ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None),
        ("F*X_2 != X_2", None), ("F*Y_2 != -Y_2", None), ("P*X_2 != Y_2", None), ("P*Y_2 != X_2", None),
    ],
    "flat-polynomial_chart-n2: swapped F/P, identity frame": None,
    "flat-polynomial_chart-n2: zero frame": None,
    "flat-polynomial_chart-n2: F := 2 Id, zero frame": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "3"}),
        ("F∘P + P∘F != 0", {"row": 0, "col": 0, "value": "4"}), ("trace(F) != 0", {"value": "8"}),
    ],
    "flat-polynomial_chart-n2: X_1 scaled": [("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None)],
    "flat-polynomial_chart-n2: X_1 and Y_1 scaled": None,
    "flat-polynomial_chart-n2: F := 2F, X_1 and Y_1 scaled": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "3"}), ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None),
        ("F*X_2 != X_2", None), ("F*Y_2 != -Y_2", None),
    ],
    "conjugated-constant_frame-n2: valid": None,
    "conjugated-constant_frame-n2: valid, no frame": None,
    "conjugated-constant_frame-n2: F := 2F": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "3"}), ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None),
        ("F*X_2 != X_2", None), ("F*Y_2 != -Y_2", None),
    ],
    "conjugated-constant_frame-n2: F := 2F, no frame": [("F^2 != Id", {"row": 0, "col": 0, "value": "3"})],
    "conjugated-constant_frame-n2: F := 0, no frame": [("F^2 != Id", {"row": 0, "col": 0, "value": "-1"})],
    "conjugated-constant_frame-n2: P := 2P": [
        ("P^2 != Id", {"row": 0, "col": 0, "value": "3"}), ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None),
        ("P*X_2 != Y_2", None), ("P*Y_2 != X_2", None),
    ],
    "conjugated-constant_frame-n2: P := 2P, no frame": [("P^2 != Id", {"row": 0, "col": 0, "value": "3"})],
    "conjugated-constant_frame-n2: P := F, no frame": [
        ("F∘P + P∘F != 0", {"row": 0, "col": 0, "value": "2"}),
    ],
    "conjugated-constant_frame-n2: F := F + Id": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "3"}),
        ("F∘P + P∘F != 0", {"row": 0, "col": 2, "value": "2"}), ("trace(F) != 0", {"value": "4"}),
        ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None), ("F*X_2 != X_2", None), ("F*Y_2 != -Y_2", None),
    ],
    "conjugated-constant_frame-n2: F := F + x_1 Id": None,
    "conjugated-constant_frame-n2: F := Id, P := 0, no frame": [
        ("P^2 != Id", {"row": 0, "col": 0, "value": "-1"}), ("trace(F) != 0", {"value": "4"}),
    ],
    "conjugated-constant_frame-n2: F := 0, P := Id, no frame": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "-1"}), ("trace(P) != 0", {"value": "4"}),
    ],
    "conjugated-constant_frame-n2: F := Id": [
        ("F∘P + P∘F != 0", {"row": 0, "col": 2, "value": "2"}), ("trace(F) != 0", {"value": "4"}),
        ("F*Y_1 != -Y_1", None), ("F*Y_2 != -Y_2", None),
    ],
    "conjugated-constant_frame-n2: swapped F/P": [
        ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None), ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None),
        ("F*X_2 != X_2", None), ("F*Y_2 != -Y_2", None), ("P*X_2 != Y_2", None), ("P*Y_2 != X_2", None),
    ],
    "conjugated-constant_frame-n2: swapped F/P, no frame": None,
    "conjugated-constant_frame-n2: P := -P": [
        ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None), ("P*X_2 != Y_2", None), ("P*Y_2 != X_2", None),
    ],
    "conjugated-constant_frame-n2: Y columns doubled": [
        ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None), ("P*X_2 != Y_2", None), ("P*Y_2 != X_2", None),
    ],
    "conjugated-constant_frame-n2: identity frame": [
        ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None), ("F*X_2 != X_2", None), ("P*X_2 != Y_2", None),
        ("P*Y_2 != X_2", None),
    ],
    "conjugated-constant_frame-n2: swapped F/P, identity frame": [
        ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None), ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None),
        ("F*X_2 != X_2", None), ("F*Y_2 != -Y_2", None), ("P*X_2 != Y_2", None), ("P*Y_2 != X_2", None),
    ],
    "conjugated-constant_frame-n2: zero frame": None,
    "conjugated-constant_frame-n2: F := 2 Id, zero frame": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "3"}),
        ("F∘P + P∘F != 0", {"row": 0, "col": 2, "value": "4"}), ("trace(F) != 0", {"value": "8"}),
    ],
    "conjugated-constant_frame-n2: X_1 scaled": [("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None)],
    "conjugated-constant_frame-n2: X_1 and Y_1 scaled": None,
    "conjugated-constant_frame-n2: F := 2F, X_1 and Y_1 scaled": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "3"}), ("F*X_2 != X_2", None), ("F*Y_2 != -Y_2", None),
    ],
    "unipotent-polynomial_chart-n2: valid": None,
    "unipotent-polynomial_chart-n2: valid, no frame": None,
    "unipotent-polynomial_chart-n2: F := 2F": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "3"}), ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None),
        ("F*X_2 != X_2", None), ("F*Y_2 != -Y_2", None),
    ],
    "unipotent-polynomial_chart-n2: F := 2F, no frame": [("F^2 != Id", {"row": 0, "col": 0, "value": "3"})],
    "unipotent-polynomial_chart-n2: F := 0, no frame": [("F^2 != Id", {"row": 0, "col": 0, "value": "-1"})],
    "unipotent-polynomial_chart-n2: P := 2P": [
        ("P^2 != Id", {"row": 0, "col": 0, "value": "3"}), ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None),
        ("P*X_2 != Y_2", None), ("P*Y_2 != X_2", None),
    ],
    "unipotent-polynomial_chart-n2: P := 2P, no frame": [("P^2 != Id", {"row": 0, "col": 0, "value": "3"})],
    "unipotent-polynomial_chart-n2: P := F, no frame": [
        ("F∘P + P∘F != 0", {"row": 0, "col": 0, "value": "2"}),
    ],
    "unipotent-polynomial_chart-n2: F := F + Id": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "-3"}),
        ("F∘P + P∘F != 0", {"row": 0, "col": 0, "value": "2"}), ("trace(F) != 0", {"value": "4"}),
        ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None), ("F*X_2 != X_2", None), ("F*Y_2 != -Y_2", None),
    ],
    "unipotent-polynomial_chart-n2: F := F + x_1 Id": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "x1^2 - 4*x1"}),
        ("F∘P + P∘F != 0", {"row": 0, "col": 0, "value": "2*x1"}), ("trace(F) != 0", {"value": "4*x1"}),
        ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None), ("F*X_2 != X_2", None), ("F*Y_2 != -Y_2", None),
    ],
    "unipotent-polynomial_chart-n2: F := Id, P := 0, no frame": [
        ("P^2 != Id", {"row": 0, "col": 0, "value": "-1"}), ("trace(F) != 0", {"value": "4"}),
    ],
    "unipotent-polynomial_chart-n2: F := 0, P := Id, no frame": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "-1"}), ("trace(P) != 0", {"value": "4"}),
    ],
    "unipotent-polynomial_chart-n2: F := Id": [
        ("F∘P + P∘F != 0", {"row": 0, "col": 0, "value": "2"}), ("trace(F) != 0", {"value": "4"}),
        ("F*Y_1 != -Y_1", None), ("F*Y_2 != -Y_2", None),
    ],
    "unipotent-polynomial_chart-n2: swapped F/P": [
        ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None), ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None),
        ("F*X_2 != X_2", None), ("F*Y_2 != -Y_2", None), ("P*X_2 != Y_2", None), ("P*Y_2 != X_2", None),
    ],
    "unipotent-polynomial_chart-n2: swapped F/P, no frame": None,
    "unipotent-polynomial_chart-n2: P := -P": [
        ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None), ("P*X_2 != Y_2", None), ("P*Y_2 != X_2", None),
    ],
    "unipotent-polynomial_chart-n2: Y columns doubled": [
        ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None), ("P*X_2 != Y_2", None), ("P*Y_2 != X_2", None),
    ],
    "unipotent-polynomial_chart-n2: identity frame": [
        ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None), ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None),
        ("F*X_2 != X_2", None), ("F*Y_2 != -Y_2", None), ("P*X_2 != Y_2", None), ("P*Y_2 != X_2", None),
    ],
    "unipotent-polynomial_chart-n2: swapped F/P, identity frame": [
        ("F*X_1 != X_1", None), ("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None),
    ],
    "unipotent-polynomial_chart-n2: zero frame": None,
    "unipotent-polynomial_chart-n2: F := 2 Id, zero frame": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "3"}),
        ("F∘P + P∘F != 0", {"row": 0, "col": 0, "value": "4"}), ("trace(F) != 0", {"value": "8"}),
    ],
    "unipotent-polynomial_chart-n2: X_1 scaled": [("P*X_1 != Y_1", None), ("P*Y_1 != X_1", None)],
    "unipotent-polynomial_chart-n2: X_1 and Y_1 scaled": None,
    "unipotent-polynomial_chart-n2: F := 2F, X_1 and Y_1 scaled": [
        ("F^2 != Id", {"row": 0, "col": 0, "value": "3"}), ("F*X_1 != X_1", None), ("F*Y_1 != -Y_1", None),
        ("F*X_2 != X_2", None), ("F*Y_2 != -Y_2", None),
    ],
}


def test_validate_failure_lists_are_unchanged():
    cases = _pin_cases()
    assert [case_id for case_id, *_ in cases] == list(VALIDATE_FAILURES)
    for case_id, f, p, frame in cases:
        assert _failure_list(f, p, frame) == VALIDATE_FAILURES[case_id], case_id


def test_zero_frame_certifies_nothing(generated_pool, fixture_dir):
    # Every column check passes vacuously on a zero frame, so only its rank
    # at the origin stops it from vouching for F = 2 Id.
    for backend in ("constant_frame", "polynomial_chart"):
        s = flat_structure(2, backend)
        zero_frame = PolyMatrix.identity(s.dim, s.context.variables).scale(0)
        with pytest.raises(StructureError) as err:
            BiparaStructure.validate(EndoField.identity(s.context).scale(2), s.P, adapted_frame=zero_frame)
        assert "F^2 != Id" in [fail["name"] for fail in err.value.failures]

    fixtures = [build_structure(load_spec(str(path))) for path in sorted(fixture_dir.glob("*.json"))]
    assert len(fixtures) == 4
    for s in list(generated_pool) + fixtures:
        f, p = s.F.matrix, s.P.matrix
        identity = PolyMatrix.identity(s.dim, s.context.variables)
        assert f @ f == identity and p @ p == identity
        assert (f @ p + p @ f).is_zero
        assert f.trace().is_zero and p.trace().is_zero


def test_j_is_f_after_p_and_turns_the_adapted_frame(generated_pool, fixture_dir):
    # J X_i = F P X_i = F Y_i = -Y_i and J Y_i = F X_i = X_i.
    fixtures = [build_structure(load_spec(str(path))) for path in sorted(fixture_dir.glob("*.json"))]
    builtins = [flat_structure(2, "constant_frame"), heisenberg_structure(), affine_structure()]
    for s in list(generated_pool) + fixtures + builtins:
        assert s.J == EndoField(s.context, s.F.matrix @ s.P.matrix)
        for i in range(s.n):
            x_i, y_i = s.frame_field(i), s.frame_field(s.n + i)
            assert s.J.apply(x_i) == -y_i
            assert s.J.apply(y_i) == x_i


def test_certified_validate_forms_no_matrix_product(generated_pool, monkeypatch):
    def refuse(self, other):
        raise AssertionError("validate formed a matrix product")

    monkeypatch.setattr(PolyMatrix, "__matmul__", refuse)
    for s in generated_pool:
        t = BiparaStructure.validate(s.F, s.P, adapted_frame=s.adapted_frame)
        assert "J" not in t.__dict__
