import random
from fractions import Fraction

import pytest

from bipara.cli import Analysis
from bipara.connections import canonical_connection, curvature, torsion
from bipara.diagnostics import (
    Verdict,
    commutant_check,
    equivalence_check,
    first_prolongation_dim,
    flatness_verdict,
    fn_bracket,
    integrability_verdict,
    invariant_count,
    involutivity_flags,
    fp_torsion_identities,
    nijenhuis,
    pair_values,
    trace_pairing_condition,
    transpose_invariance,
)
from bipara.geometry import EndoField, PolyMap, identity_map
from bipara.linalg import PolyMatrix
from bipara.structure import (
    flat_structure,
    pushforward_structure,
    random_structure,
    random_unipotent_map,
)


def test_verdict_witness_discipline():
    with pytest.raises(ValueError):
        Verdict("x", True, {"unexpected": 1})
    with pytest.raises(ValueError):
        Verdict("x", False, None)


def test_nijenhuis_flat_vanishes(flat_n2):
    nf = nijenhuis(flat_n2.F)
    basis = flat_n2.basis
    for i in range(4):
        for j in range(4):
            assert nf(basis[i], basis[j]).is_zero


def test_nijenhuis_heis_values(heis):
    x1, x2, y1, y2 = heis.basis
    assert nijenhuis(heis.F)(x1, x2) == y1.scale(4)
    assert nijenhuis(heis.P)(x1, x2) == y1


def test_fn_bracket_values(heis, aff):
    x1, x2, y1, y2 = heis.basis
    value = fn_bracket(heis)(x1, x2)
    assert value == x1.scale(-2)
    t = torsion(canonical_connection(heis))
    assert value == heis.P.apply(t.evaluate(x1, x2)).scale(2)

    a1, a2 = aff.basis[0], aff.basis[1]
    value = fn_bracket(aff)(a1, a2)
    assert value == aff.basis[2].scale(-2)  # -2 Y1
    t_aff = torsion(canonical_connection(aff))
    assert value == aff.P.apply(t_aff.evaluate(a1, a2)).scale(2)


def test_fp_torsion_identities_on_fixtures(flat_n2, heis, aff):
    for s in (flat_n2, heis, aff):
        for verdict in fp_torsion_identities(s):
            assert verdict.holds, verdict.name


def test_fp_torsion_identities_on_generated(generated_pool):
    for s in generated_pool:
        assert all(v.holds for v in fp_torsion_identities(s))


def test_involutivity_flags_match_nijenhuis(heis, flat_n2):
    flags = involutivity_flags(flat_n2)
    assert all(flags.values())
    flags = involutivity_flags(heis)
    assert not all(flags.values())


def lazy_integrability(s):
    """The verdict on lazily evaluated concomitants, as ``classify`` runs it."""
    concomitants = tuple(
        pair_values(evaluate, s.basis)
        for evaluate in (nijenhuis(s.F), nijenhuis(s.P), fn_bracket(s))
    )
    return integrability_verdict(s, concomitants, torsion(canonical_connection(s)))


def test_integrability_verdicts(flat_n2, heis):
    assert lazy_integrability(flat_n2).holds
    verdict = lazy_integrability(heis)
    assert not verdict.holds
    assert verdict.witness["tensor"] == "torsion"
    # witness re-evaluates to a nonzero field
    assert any(c != "0" for c in verdict.witness["components"])


def test_integrability_of_conjugated_flat():
    s = random_structure(2, "polynomial_chart", degree=2, seed=808)
    assert lazy_integrability(s).holds


def test_flatness_verdicts(flat_n2, heis):
    a = Analysis(flat_n2)
    assert flatness_verdict(a.torsion("canonical"), a.curvature("canonical")).holds
    a = Analysis(heis)
    verdict = flatness_verdict(a.torsion("canonical"), a.curvature("canonical"))
    assert not verdict.holds
    assert verdict.witness["tensor"] == "torsion"
    # torsion obstructs although the curvature vanishes
    assert curvature(canonical_connection(heis)).is_zero


def test_equivalence_identity_and_conjugate(flat_n2):
    assert equivalence_check(flat_n2, flat_n2, identity_map(flat_n2.context)).holds
    rng = random.Random(5150)
    m = random_unipotent_map(flat_n2.context, 2, rng)
    target = pushforward_structure(m, flat_n2)
    assert equivalence_check(flat_n2, target, m).holds


def test_heis_not_equivalent_to_flat_for_sampled_maps(heis):
    flat_const = flat_structure(2, "constant_frame")
    rng = random.Random(99)
    from bipara.structure import _random_constant_automorphism

    for _ in range(8):
        mat, inv = _random_constant_automorphism(4, rng)
        # pointwise correspondence would need L F L^-1 = F' and L P L^-1 = P',
        # but no invertible matrix is a bracket morphism onto the abelian
        # algebra anyway, so our map constructor must reject every candidate
        with pytest.raises(Exception):
            PolyMap(heis.context, flat_const.context, matrix=mat, matrix_inverse=inv)
    # the invariance argument behind it: torsion transports along equivalences
    assert not torsion(canonical_connection(heis)).is_zero
    assert torsion(canonical_connection(flat_const)).is_zero


def test_commutant_check(heis):
    eye = EndoField.identity(heis.context)
    assert commutant_check(heis, eye).holds
    # F commutes with F but anticommutes with P: not in the adjoint algebra
    verdict = commutant_check(heis, heis.F)
    assert not verdict.holds
    assert verdict.witness["fails_to_commute_with"] == "P"
    block = PolyMatrix.from_rational_rows(
        [
            [1, 2, 0, 0],
            [3, 4, 0, 0],
            [0, 0, 1, 2],
            [0, 0, 3, 4],
        ],
        (),
    )
    assert commutant_check(heis, EndoField(heis.context, block)).holds


def test_commutant_check_requires_adapted_frame():
    from bipara.linalg import PolyMatrix
    from bipara.structure import BiparaStructure, StructureError
    from bipara.geometry import algebra_context

    ctx = algebra_context(2, {})
    f = EndoField(ctx, PolyMatrix.from_rational_rows([[1, 0], [0, -1]], ()))
    p = EndoField(ctx, PolyMatrix.from_rational_rows([[0, 1], [1, 0]], ()))
    bare = BiparaStructure.validate(f, p)
    with pytest.raises(StructureError, match="adapted frame"):
        commutant_check(bare, EndoField.identity(ctx))


def test_commutant_check_on_chart_conjugate():
    s = random_structure(2, "polynomial_chart", degree=1, seed=22)
    # transport diag(A, A) written in the adapted frame to the coordinate frame
    from bipara.linalg import poly_matrix_inverse

    block = PolyMatrix.from_rational_rows(
        [
            [2, 1, 0, 0],
            [0, 3, 0, 0],
            [0, 0, 2, 1],
            [0, 0, 0, 3],
        ],
        s.context.variables,
    )
    endo_matrix = s.adapted_frame @ block @ poly_matrix_inverse(s.adapted_frame)
    assert commutant_check(s, EndoField(s.context, endo_matrix)).holds


def test_first_prolongation_dimensions():
    for n in (1, 2, 3):
        assert first_prolongation_dim(n) == 0
        assert transpose_invariance(n)


def test_first_prolongation_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    # independent nullity computation of the same symmetric-value system
    for n in (1, 2):
        dim = 2 * n
        ncols = dim * n * n
        rows = []
        for k in range(dim):
            for l in range(k + 1, dim):
                for out in range(dim):
                    row = [0] * ncols
                    half_l, idx_l = divmod(l, n)
                    half_k, idx_k = divmod(k, n)
                    if out < n:
                        if half_l == 0:
                            row[k * n * n + out * n + idx_l] += 1
                        if half_k == 0:
                            row[l * n * n + out * n + idx_k] -= 1
                    else:
                        if half_l == 1:
                            row[k * n * n + (out - n) * n + idx_l] += 1
                        if half_k == 1:
                            row[l * n * n + (out - n) * n + idx_k] -= 1
                    if any(row):
                        rows.append(row)
        m = sympy.Matrix(rows)
        assert ncols - m.rank() == first_prolongation_dim(n)


def test_trace_pairing_condition_default_form():
    assert trace_pairing_condition(1)
    assert trace_pairing_condition(2)


def test_trace_pairing_condition_scaled_form():
    # any positive rescaling of the pairing keeps the criterion
    def form(a, b):
        return 7 * (a @ b.transpose()).trace().constant_value()

    assert trace_pairing_condition(1, form)


def test_invariant_count_frozen_values():
    # independent arithmetic: values computed by hand from the closed formula
    expected = {
        (1, 0): Fraction(0),
        (1, 1): Fraction(-1),
        (1, 2): Fraction(0),
        (1, 3): Fraction(2),
        (1, 4): Fraction(5),
        (2, 0): Fraction(0),
        (2, 1): Fraction(4),
        (2, 2): Fraction(44),
        (2, 3): Fraction(144),
        (2, 4): Fraction(340),
        (3, 0): Fraction(0),
        (3, 1): Fraction(27),
        (3, 2): Fraction(258),
        (3, 3): Fraction(1014),
        (3, 4): Fraction(2904),
    }
    for (n, r), value in expected.items():
        count = invariant_count(n, r)
        assert count.general == value, (n, r)
        assert count.general.denominator == 1


def test_invariant_count_surface_disagreements():
    # the n = 1 specialization disagrees at r in {1, 3, 4}; agrees (= 0) at r = 2
    for r in range(5):
        count = invariant_count(1, r)
        if r in (0, 2):
            assert count.consistent
            assert count.general == 0 and count.surface == 0
        else:
            assert not count.consistent
            assert count.warnings
    assert invariant_count(1, 3).surface == Fraction(4, 3)
    assert invariant_count(2, 1).surface is None


def test_invariant_count_rejects_bad_args():
    with pytest.raises(ValueError):
        invariant_count(0, 1)
    with pytest.raises(ValueError):
        invariant_count(1, -1)
