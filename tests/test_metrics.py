import random
from fractions import Fraction

import pytest

from bipara.connections import (
    DifferenceTensor,
    canonical_connection,
    torsion,
    well_adapted_connection,
)
from bipara.geometry import (
    BilinearField,
    EndoField,
    PolyMap,
    algebra_context,
    pushforward_bilinear,
)
from bipara.linalg import PolyMatrix, rat_signature
from bipara.metrics import (
    MetricError,
    bi_lagrangian_assembly,
    build_orthogonal_metric,
    classify_metric,
    is_positive_definite_at,
    metric_covariant_derivative_is_zero,
    solve_hypersymplectic_metric,
    special_metric_predicates,
)
from bipara.structure import affine_structure, flat_structure, heisenberg_structure


def bilinear(ctx, rows):
    return BilinearField(ctx, PolyMatrix.from_rational_rows(rows, ctx.variables))


@pytest.fixture(scope="module")
def flat2():
    return flat_structure(2)


def test_classify_euclidean(flat2):
    g = bilinear(flat2.context, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    klass = classify_metric(flat2, g)
    assert (klass.eps1, klass.eps2, klass.eps_j) == (1, 1, 1)
    assert klass.signature == (4, 0, 0)


def test_classify_split_diagonal(flat2):
    g = bilinear(flat2.context, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    klass = classify_metric(flat2, g)
    assert (klass.eps1, klass.eps2) == (-1, 1)
    assert klass.signature == (2, 2, 0)


def test_classify_cross_block(flat2):
    g = bilinear(flat2.context, [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    klass = classify_metric(flat2, g)
    assert (klass.eps1, klass.eps2) == (1, -1)
    assert klass.signature == (2, 2, 0)


def test_classify_rejects_bad_metrics(flat2):
    ctx = flat2.context
    asym = bilinear(ctx, [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(MetricError, match="symmetric"):
        classify_metric(flat2, asym)
    degenerate = bilinear(ctx, [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(MetricError, match="degenerate"):
        classify_metric(flat2, degenerate)


def test_classify_equivariant_under_constant_conjugation():
    s = heisenberg_structure()
    ctx = s.context
    g = bilinear(ctx, [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1]])
    before = classify_metric(s, g)
    from bipara.structure import _random_isomorphism, pushforward_structure

    rng = random.Random(4)
    # conjugating structure and metric together cannot change the signs
    from bipara.structure import random_structure

    conj = random_structure(2, "constant_frame", seed=641, conjugate=True)
    # build the same-metric comparison on the conjugated copy of s itself
    m = _random_isomorphism(ctx, rng)
    moved = pushforward_structure(m, s)
    moved_metric = pushforward_bilinear(m, g)
    after = classify_metric(moved, moved_metric)
    assert (before.eps1, before.eps2, before.signature) == (
        after.eps1,
        after.eps2,
        after.signature,
    )


def test_build_orthogonal_metric_flat_identity(flat2):
    h = bilinear(flat2.context, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    g = build_orthogonal_metric(flat2, h)
    assert g.matrix == h.matrix.scale(2)
    assert classify_metric(flat2, g).eps1 == 1


def test_build_orthogonal_metric_cancels_cross_terms(flat2):
    h = bilinear(
        flat2.context,
        [[1, 0, Fraction(1, 2), 0], [0, 1, 0, 0], [Fraction(1, 2), 0, 1, 0], [0, 0, 0, 1]],
    )
    g = build_orthogonal_metric(flat2, h)
    fp = flat2.projectors.f_plus.matrix
    fm = flat2.projectors.f_minus.matrix
    assert (fp.transpose() @ g.matrix @ fm).is_zero


def test_build_orthogonal_metric_random_h(flat2):
    rng = random.Random(314)
    done = 0
    while done < 8:
        rows = [[Fraction(0)] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                v = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                rows[i][j] += v
                rows[j][i] += v if i != j else 0
            rows[i][i] += 5  # diagonally dominant: positive definite
        h = bilinear(flat2.context, rows)
        if not is_positive_definite_at(h):
            continue
        g = build_orthogonal_metric(flat2, h)
        fp = flat2.projectors.f_plus.matrix
        fm = flat2.projectors.f_minus.matrix
        assert (fp.transpose() @ g.matrix @ fm).is_zero
        assert classify_metric(flat2, g).eps1 == 1
        done += 1


def test_build_orthogonal_metric_rejects_indefinite(flat2):
    h = bilinear(flat2.context, [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(MetricError, match="positive definite"):
        build_orthogonal_metric(flat2, h)


def test_hypersymplectic_solution_on_flat(flat2):
    g = solve_hypersymplectic_metric(flat2)
    assert g is not None
    assert rat_signature(g.matrix.constant_rows()) == (2, 2, 0)
    verdicts = special_metric_predicates(flat2, g, canonical_connection(flat2))
    assert verdicts["hypersymplectic"].holds
    klass = classify_metric(flat2, g)
    assert (klass.eps1, klass.eps2) == (-1, -1)
    assert klass.eps_j == 1
    assert verdicts["paraquaternionic_hermitian"].holds


def test_euclidean_not_hypersymplectic(flat2):
    g = bilinear(flat2.context, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    verdicts = special_metric_predicates(flat2, g, canonical_connection(flat2))
    assert not verdicts["hypersymplectic"].holds
    assert verdicts["riemannian_product"].holds
    assert not verdicts["norden"].holds


def test_hpkt_style_predicate_on_flat_constant_metric(flat2):
    # zero Christoffels + constant g: the parallel-skew-torsion check reduces
    # to the algebraic metric identities and passes
    g = solve_hypersymplectic_metric(flat2)
    verdicts = special_metric_predicates(flat2, g, canonical_connection(flat2))
    assert verdicts["parallel_skew_torsion"].holds
    assert metric_covariant_derivative_is_zero(canonical_connection(flat2), g)


def _quadratic_shear(ctx):
    from bipara.poly import parse_poly

    v = ctx.variables
    forward = [parse_poly(t, v) for t in ("x1", "x2 + x1^2", "y1 + x1^2", "y2")]
    inverse = [parse_poly(t, v) for t in ("x1", "x2 - x1^2", "y1 - x1^2", "y2")]
    return PolyMap(ctx, ctx, forward=forward, inverse=inverse)


def test_classify_polynomial_metric_after_conjugation(flat2):
    # transporting structure and metric by the same unipotent map yields
    # polynomial tensors whose classification is unchanged
    from bipara.structure import pushforward_structure

    m = _quadratic_shear(flat2.context)
    moved = pushforward_structure(m, flat2)
    g = bilinear(flat2.context, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    moved_g = pushforward_bilinear(m, g)
    assert not moved_g.matrix.is_constant  # the transport really is polynomial
    before = classify_metric(flat2, g)
    after = classify_metric(moved, moved_g)
    assert (before.eps1, before.eps2, before.signature) == (
        after.eps1,
        after.eps2,
        after.signature,
    )


def test_parallel_skew_torsion_predicate_on_chart_structure(flat2):
    from bipara.structure import pushforward_structure

    m = _quadratic_shear(flat2.context)
    moved = pushforward_structure(m, flat2)
    g = solve_hypersymplectic_metric(flat2)
    moved_g = pushforward_bilinear(m, g)
    law = canonical_connection(moved)
    assert metric_covariant_derivative_is_zero(law, moved_g)
    verdicts = special_metric_predicates(moved, moved_g, law)
    assert verdicts["hypersymplectic"].holds
    assert verdicts["parallel_skew_torsion"].holds


def test_metric_and_skew_torsion_checks_fail_on_the_affine_structure():
    aff = affine_structure()
    g = bilinear(aff.context, [[int(i == j) for j in range(4)] for i in range(4)])
    canon = canonical_connection(aff)
    wa = well_adapted_connection(DifferenceTensor(torsion(canon)))
    assert not metric_covariant_derivative_is_zero(wa, g)
    verdict = special_metric_predicates(aff, g, wa)["parallel_skew_torsion"]
    assert verdict.witness == {
        "failed": ["nabla g != 0", "lowered torsion is not totally skew"]
    }
    verdict = special_metric_predicates(aff, g, canon)["parallel_skew_torsion"]
    assert verdict.witness == {"failed": ["lowered torsion is not totally skew"]}


def test_hypersymplectic_dimension_guard():
    s = flat_structure(1, "constant_frame")
    g = bilinear(s.context, [[1, 0], [0, 1]])
    verdicts = special_metric_predicates(s, g, canonical_connection(s))
    assert not verdicts["hypersymplectic"].holds
    assert "divisible by 4" in verdicts["hypersymplectic"].witness["reason"]


def _verdict_json(name, witness=None):
    """``Verdict.to_json()`` of a check that holds exactly when it has no witness."""
    return {"name": name, "holds": witness is None, "witness": witness}


NORDEN_FAILS = _verdict_json("norden", {"reason": "g(J., J.) != -g"})
PQH_FAILS = _verdict_json(
    "paraquaternionic_hermitian", {"reason": "(eps1, eps2) = (1, 1), need (-, -)"}
)
HYPER_FAILS = _verdict_json(
    "hypersymplectic", {"reason": "g(J.,J.)=g: True, g(F.,F.)=-g: False"}
)
HYPERSYMPLECTIC_VERDICTS = [
    _verdict_json("hypersymplectic"),
    _verdict_json("paraquaternionic_hermitian"),
    NORDEN_FAILS,
    _verdict_json("riemannian_product", {"reason": "needs eps1 = + and positive definiteness"}),
    _verdict_json("parallel_skew_torsion"),
]


def test_special_metric_predicates_verdicts_are_pinned(flat2):
    from bipara.structure import pushforward_structure

    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    hyper = solve_hypersymplectic_metric(flat2)
    m = _quadratic_shear(flat2.context)
    moved = pushforward_structure(m, flat2)
    aff = affine_structure()
    canon = canonical_connection(aff)
    wa = well_adapted_connection(DifferenceTensor(torsion(canon)))
    flat1 = flat_structure(1, "constant_frame")
    cases = {
        "flat, hypersymplectic g": (flat2, hyper, canonical_connection(flat2)),
        "flat, euclidean g": (flat2, bilinear(flat2.context, eye), canonical_connection(flat2)),
        "sheared flat, pushed g": (moved, pushforward_bilinear(m, hyper), canonical_connection(moved)),
        "affine, well-adapted": (aff, bilinear(aff.context, eye), wa),
        "affine, canonical": (aff, bilinear(aff.context, eye), canon),
        "flat n = 1": (flat1, bilinear(flat1.context, [[1, 0], [0, 1]]), canonical_connection(flat1)),
    }
    got = {
        label: [v.to_json() for v in special_metric_predicates(*args).values()]
        for label, args in cases.items()
    }
    skew = "lowered torsion is not totally skew"
    assert got == {
        "flat, hypersymplectic g": HYPERSYMPLECTIC_VERDICTS,
        "flat, euclidean g": [
            HYPER_FAILS, PQH_FAILS, NORDEN_FAILS,
            _verdict_json("riemannian_product"), _verdict_json("parallel_skew_torsion"),
        ],
        "sheared flat, pushed g": HYPERSYMPLECTIC_VERDICTS,
        "affine, well-adapted": [
            HYPER_FAILS, PQH_FAILS, NORDEN_FAILS, _verdict_json("riemannian_product"),
            _verdict_json("parallel_skew_torsion", {"failed": ["nabla g != 0", skew]}),
        ],
        "affine, canonical": [
            HYPER_FAILS, PQH_FAILS, NORDEN_FAILS, _verdict_json("riemannian_product"),
            _verdict_json("parallel_skew_torsion", {"failed": [skew]}),
        ],
        "flat n = 1": [
            _verdict_json("hypersymplectic", {"reason": "dimension 2 is not divisible by 4"}),
            PQH_FAILS, NORDEN_FAILS,
            _verdict_json("riemannian_product"), _verdict_json("parallel_skew_torsion"),
        ],
    }


# -- bi-Lagrangian assembly ----------------------------------------------------


def r2_model():
    ctx = algebra_context(2, {})
    omega = bilinear(ctx, [[0, 1], [-1, 0]])
    f = EndoField(ctx, PolyMatrix.from_rational_rows([[1, 0], [0, -1]], ()))
    h = bilinear(ctx, [[1, 0], [0, 1]])
    return ctx, omega, f, h


def r4_model():
    ctx = algebra_context(4, {})
    omega = bilinear(ctx, [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    f = EndoField(
        ctx,
        PolyMatrix.from_rational_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], ()
        ),
    )
    h = bilinear(ctx, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    return ctx, omega, f, h


def test_bilagrangian_r2():
    ctx, omega, f, h = r2_model()
    big_g, j_endo, p_endo, verdicts = bi_lagrangian_assembly(omega, f, h)
    assert big_g.matrix == PolyMatrix.identity(2, ()).scale(2)
    assert j_endo.matrix.constant_rows() == [[0, -1], [1, 0]]
    assert p_endo.matrix.constant_rows() == [[0, 1], [1, 0]]
    for name in ("structure_valid", "norden_pair", "riemannian_product_pair",
                 "para_metric_minus_plus", "riemannian_metric_plus_plus"):
        assert verdicts[name].holds, name


def test_bilagrangian_r4():
    ctx, omega, f, h = r4_model()
    _, _, _, verdicts = bi_lagrangian_assembly(omega, f, h)
    assert all(v.holds for v in verdicts.values())


def test_bilagrangian_h_with_cross_terms():
    ctx, omega, f, _ = r2_model()
    h = bilinear(ctx, [[1, Fraction(1, 2)], [Fraction(1, 2), 1]])
    big_g, j_endo, p_endo, verdicts = bi_lagrangian_assembly(omega, f, h)
    # the cross term cancels in G, so the output is unchanged
    assert big_g.matrix == PolyMatrix.identity(2, ()).scale(2)
    assert all(v.holds for v in verdicts.values())


def test_bilagrangian_verdicts_are_pinned():
    # the five properties follow from the inputs the assembly accepts, so
    # every verdict holds
    ctx, omega, f, h = r2_model()
    cross_h = bilinear(ctx, [[1, Fraction(1, 2)], [Fraction(1, 2), 1]])
    _, omega4, f4, h4 = r4_model()
    names = (
        "structure_valid", "norden_pair", "riemannian_product_pair",
        "para_metric_minus_plus", "riemannian_metric_plus_plus",
    )
    for args in ((omega, f, h), (omega, f, cross_h), (omega4, f4, h4)):
        verdicts = bi_lagrangian_assembly(*args)[3]
        assert [v.to_json() for v in verdicts.values()] == [_verdict_json(n) for n in names]


def test_bilagrangian_conjugated_random_models():
    rng = random.Random(2024)
    from bipara.linalg import rat_inverse, rat_matmul

    ctx, omega, f, h = r4_model()
    produced = 0
    attempts = 0
    while produced < 5 and attempts < 40:
        attempts += 1
        mat = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        try:
            inv = rat_inverse(mat)
        except Exception:
            continue
        trans = [list(row) for row in zip(*mat)]
        omega2 = bilinear(ctx, rat_matmul(rat_matmul(trans, omega.matrix.constant_rows()), mat))
        f2 = EndoField(
            ctx,
            PolyMatrix.from_rational_rows(
                rat_matmul(rat_matmul(inv, f.matrix.constant_rows()), mat), ()
            ),
        )
        h2 = bilinear(ctx, rat_matmul(rat_matmul(trans, h.matrix.constant_rows()), mat))
        try:
            _, _, _, verdicts = bi_lagrangian_assembly(omega2, f2, h2)
        except MetricError:
            continue  # rescaling left the rationals for this sample
        produced += 1
        for name in ("structure_valid", "riemannian_product_pair", "riemannian_metric_plus_plus"):
            assert verdicts[name].holds, name
    assert produced >= 3


def test_bilagrangian_rejects_bad_inputs():
    ctx, omega, f, h = r2_model()
    # dim 4: the +1 eigenspace span(e1, e3) pairs symplectically with itself
    ctx4, omega4, _, h4 = r4_model()
    interleaved_f = EndoField(
        ctx4,
        PolyMatrix.from_rational_rows(
            [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]], ()
        ),
    )
    with pytest.raises(MetricError, match="Lagrangian"):
        bi_lagrangian_assembly(omega4, interleaved_f, h4)
    degenerate = bilinear(ctx, [[0, 0], [0, 0]])
    with pytest.raises(MetricError, match="degenerate"):
        bi_lagrangian_assembly(degenerate, f, h)
    indefinite_h = bilinear(ctx, [[1, 0], [0, -1]])
    with pytest.raises(MetricError, match="positive definite"):
        bi_lagrangian_assembly(omega, f, indefinite_h)
    # omega(F., F.) = -omega, and J0^2 is scalar with a rational root, but
    # F^2 != Id: a bad input, not two routes that disagree
    stretch = EndoField(ctx, PolyMatrix.from_rational_rows([[2, 0], [0, Fraction(-1, 2)]], ()))
    with pytest.raises(MetricError, match=r"F is not an involution: F\^2 != Id"):
        bi_lagrangian_assembly(omega, stretch, h)
