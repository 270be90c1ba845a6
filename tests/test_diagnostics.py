import dataclasses
import random
from fractions import Fraction
from functools import partial

import pytest

from bipara import diagnostics
from bipara.cli import Analysis, build_structure, load_spec
from bipara.connections import (
    DifferenceTensor,
    PairTensor,
    canonical_connection,
    curvature,
    pair_cell,
    torsion,
    well_adapted_connection,
)
from bipara.diagnostics import (
    InconsistencyError,
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
    trace_pairing_condition,
    transpose_invariance,
)
from bipara.geometry import EndoField, PolyMap, VectorField, identity_map, lie_bracket
from bipara.linalg import PolyMatrix
from bipara.poly import MultiPoly
from bipara.structure import (
    _random_isomorphism,
    affine_structure,
    flat_structure,
    nilpotent_chart,
    pushforward_structure,
    random_structure,
    random_unipotent_map,
)
from conftest import FIXTURE_DIR, nilpotent_table


def test_verdict_witness_discipline():
    with pytest.raises(ValueError):
        Verdict("x", True, {"unexpected": 1})
    with pytest.raises(ValueError):
        Verdict("x", False, None)


def test_verdict_of_keeps_only_a_failing_witness():
    witness = {"reason": "r"}
    assert Verdict.of("x", False, witness) == Verdict("x", False, witness)
    assert Verdict.of("x", True, witness) == Verdict("x", True)
    assert Verdict.of("x", True, witness).to_json() == {"name": "x", "holds": True, "witness": None}


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


def test_fp_torsion_identities_fail_against_a_connection_with_the_wrong_torsion(monkeypatch):
    # The well-adapted torsion is not the canonical one, so the identities
    # read against it must fail where [F, P] is nonzero: on F+ pairs only.
    aff = affine_structure()
    wa = well_adapted_connection(DifferenceTensor(torsion(canonical_connection(aff))))
    monkeypatch.setattr(diagnostics, "canonical_connection", lambda s: wa)
    plus, minus, mixed = fp_torsion_identities(aff)
    assert plus.name == "fp_bracket_equals_2PT_on_plus"
    assert plus.witness == {"inputs": ["E1", "E2"], "components": ["0", "0", "-2", "0"]}
    assert minus.holds and mixed.holds


def test_involutivity_flags_match_nijenhuis(heis, flat_n2, aff):
    flags = involutivity_flags(flat_n2)
    assert all(flags.values())
    assert involutivity_flags(heis) == {
        "T_F_plus": False,
        "T_F_minus": True,
        "T_P_plus": False,
        "T_P_minus": False,
    }
    assert involutivity_flags(aff) == {
        "T_F_plus": True,
        "T_F_minus": True,
        "T_P_plus": False,
        "T_P_minus": False,
    }


# ---------------------------------------------------------------------------
# The concomitant evaluators against their general, unmemoized forms
# ---------------------------------------------------------------------------


def unmemoized_nijenhuis(e):
    """N_e with every image formed on each call and the e^2 term through e o e."""
    square = e.compose(e)

    def evaluate(x, y):
        ex, ey = e.apply(x), e.apply(y)
        return (
            lie_bracket(ex, ey)
            - e.apply(lie_bracket(ex, y) + lie_bracket(x, ey))
            + square.apply(lie_bracket(x, y))
        )

    return evaluate


def unmemoized_fn_bracket(s):
    """[F, P] with every image formed on each call."""
    f, p = s.F, s.P

    def evaluate(x, y):
        fx, px, fy, py = f.apply(x), p.apply(x), f.apply(y), p.apply(y)
        return (
            lie_bracket(fx, py)
            + lie_bracket(px, fy)
            - f.apply(lie_bracket(px, y) + lie_bracket(x, py))
            - p.apply(lie_bracket(fx, y) + lie_bracket(x, fy))
        )

    return evaluate


def _fixture(name: str):
    return build_structure(load_spec(str(FIXTURE_DIR / f"{name}.json")))


def _pushed_chart(n: int, seed: int):
    rng = random.Random(seed)
    base = nilpotent_chart(n, nilpotent_table(n, rng))
    return pushforward_structure(random_unipotent_map(base.context, 2, rng), base)


# The 4 fixtures, conjugated random constant frames and pushed nilpotent charts.
CONCOMITANT_STRUCTURES = {
    **{name: partial(_fixture, name) for name in ("flat_n1", "flat_n2", "heis_n2", "aff_n2")},
    **{
        f"conjugated_frame_n{n}_{k}": partial(
            random_structure, n, "constant_frame", seed=100 * n + k, conjugate=True
        )
        for n in (2, 3)
        for k in range(2)
    },
    "pushed_chart_n2": partial(_pushed_chart, 2, 7),
    "pushed_chart_n3": partial(_pushed_chart, 3, 8),
}


def _field(s, k: int) -> VectorField:
    """A non-basis field: a rational combination of the frame, times a variable on a chart."""
    ctx = s.context
    combo = VectorField.from_rationals(ctx, [Fraction(k + i + 1, 1 + (i * k) % 3) for i in range(s.dim)])
    if not ctx.variables:
        return combo
    v = ctx.variables[k % s.dim]
    return VectorField(ctx, [c * MultiPoly.var(ctx.variables, v) for c in combo.components])


def _check_against(evaluate, reference, s):
    """``evaluate`` equals ``reference`` on non-basis fields, equal copies and temporaries.

    One evaluator serves every call, so each field is reused across calls.
    The copies are equal to a field but distinct objects; each temporary is
    dropped after its call, so a memo keyed by ``id`` alone would see ids
    come back with other fields.
    """
    basis = s.basis
    u, w = _field(s, 1), _field(s, 2)
    u_copy, e0_copy = VectorField(s.context, u.components), VectorField(s.context, basis[0].components)
    args = [*basis, u, w, u_copy, e0_copy]
    for i, x in enumerate(args):
        for j, y in enumerate(args):
            if max(i, j) >= s.dim:  # the frame pairs are the tables' to check
                assert evaluate(x, y) == reference(x, y)
    for k in range(6):
        x = _field(s, k + 3)
        assert evaluate(x, basis[k % s.dim]) == reference(x, basis[k % s.dim])
        del x


@pytest.mark.parametrize("name", sorted(CONCOMITANT_STRUCTURES))
def test_analysis_concomitants_equal_their_unmemoized_forms(name):
    s = CONCOMITANT_STRUCTURES[name]()
    a = Analysis(s)
    for tensor, e in (("F", s.F), ("P", s.P)):
        reference = unmemoized_nijenhuis(e)
        table = a.concomitant(tensor).table
        assert all(table[i][j] == reference(x, y) for i, x in enumerate(s.basis) for j, y in enumerate(s.basis))
        # The evaluator ``Analysis`` builds, off the frame.
        _check_against(nijenhuis(e, involution=True), reference, s)
        _check_against(nijenhuis(e), reference, s)
    reference = unmemoized_fn_bracket(s)
    table = a.concomitant("FP").table
    assert all(table[i][j] == reference(x, y) for i, x in enumerate(s.basis) for j, y in enumerate(s.basis))
    _check_against(fn_bracket(s), reference, s)


def test_nijenhuis_of_a_non_involution_keeps_its_square_term(heis):
    # e = 2F has e o e = 4 Id: the involution shortcut must not apply by default.
    e = heis.F.scale(2)
    _check_against(nijenhuis(e), unmemoized_nijenhuis(e), heis)
    x1, x2 = heis.basis[0], heis.basis[1]
    assert nijenhuis(e)(x1, x2) != nijenhuis(e, involution=True)(x1, x2)


def lazy_integrability(s):
    """The verdict on lazily evaluated concomitants, as ``classify`` runs it."""
    concomitants = tuple(
        PairTensor(s.context, partial(pair_cell, evaluate, s.basis), antisymmetric=True)
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


# Integrable charts and constant frames, and a non-integrable nilpotent chart.
SOURCES = pytest.mark.parametrize("kind", ["polynomial_chart", "constant_frame", "nilpotent_chart"])


def _equivalent_pair(kind):
    """A freshly built structure, an equivalence m and the structure m carries it to."""
    rng = random.Random(4242)
    if kind == "polynomial_chart":
        source = random_structure(2, kind, degree=2, seed=31)
        m = random_unipotent_map(source.context, 2, rng)
    elif kind == "nilpotent_chart":
        source = nilpotent_chart(2, nilpotent_table(2, rng))
        m = random_unipotent_map(source.context, 2, rng)
    else:
        source = affine_structure()
        m = _random_isomorphism(source.context, rng)
    return source, m, pushforward_structure(m, source)


@SOURCES
def test_equivalence_compares_table_route_laws_without_projectors(kind):
    source, m, target = _equivalent_pair(kind)
    assert equivalence_check(source, target, m).holds
    # Nothing on this path reads the eigenprojectors or J, so none were built.
    for s in (source, target):
        assert "projectors" not in s.__dict__
        assert "J" not in s.__dict__


@SOURCES
def test_equivalence_check_fails_on_a_perturbed_target_table(kind, monkeypatch):
    source, m, target = _equivalent_pair(kind)
    original = diagnostics.canonical_christoffels

    def perturbed(s):
        table = original(s)
        if s is not target:
            return table
        cell = table.xx[0][0]
        row = (cell[0] + 1,) + cell[1:]
        return dataclasses.replace(table, xx=((row,) + table.xx[0][1:],) + table.xx[1:])

    monkeypatch.setattr(diagnostics, "canonical_christoffels", perturbed)
    with pytest.raises(InconsistencyError):
        equivalence_check(source, target, m)


def test_heis_not_equivalent_to_flat_for_sampled_maps(heis):
    flat_const = flat_structure(2, "constant_frame")
    rng = random.Random(99)
    from bipara.structure import _random_constant_automorphism

    for _ in range(8):
        mat, _ = _random_constant_automorphism(4, rng)
        # pointwise correspondence would need L F L^-1 = F' and L P L^-1 = P',
        # but no invertible matrix is a bracket morphism onto the abelian
        # algebra anyway, so our map constructor must reject every candidate
        with pytest.raises(Exception):
            PolyMap(heis.context, flat_const.context, matrix=mat)
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
    for n in (1, 2, 3, 4):
        assert trace_pairing_condition(n)


def test_trace_pairing_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    # dense, from the definition: each basis map L of Hom(R^{2n}, g) gives the
    # pairings trace(M_w S^T) of M_w = (u -> L(e_w) e_u - L(e_u) e_w) with
    # each basis element S of g; the criterion holds iff only L = 0 pairs to 0
    for n in (1, 2):
        dim = 2 * n
        units = []
        for a in range(n):
            for b in range(n):
                unit = sympy.zeros(n, n)
                unit[a, b] = 1
                units.append(sympy.diag(unit, unit))
        columns = []
        for k in range(dim):
            for unit in units:
                values = [unit if v == k else sympy.zeros(dim, dim) for v in range(dim)]
                column = []
                for w in range(dim):
                    m = sympy.Matrix(dim, dim, lambda r, u: values[w][r, u] - values[u][r, w])
                    column.extend((m * s.T).trace() for s in units)
                columns.append(column)
        assert sympy.Matrix(columns).rank() == len(columns)
        assert trace_pairing_condition(n)


def test_alternation_terms_match_definition():
    # Both criteria return the same answer with one sign of the alternation
    # flipped, so its terms are compared with the definition itself:
    # (Alt L)(e_w, e_u) = L(e_w) e_u - L(e_u) e_w for each basis map
    # L: e_k -> diag(E_ab, E_ab), written densely.
    for n in (1, 2, 3):
        dim = 2 * n
        ncols, terms = diagnostics._alternation(n)
        got = {}
        for w, u, r, col, c in terms:
            got[w, u, r, col] = got.get((w, u, r, col), 0) + c
        expected = {}
        zero = [[0] * dim for _ in range(dim)]
        maps = [(k, a, b) for k in range(dim) for a in range(n) for b in range(n)]
        for col, (k, a, b) in enumerate(maps):
            unit = [
                [int(i // n == j // n and i % n == a and j % n == b) for j in range(dim)]
                for i in range(dim)
            ]
            values = [unit if v == k else zero for v in range(dim)]
            for w in range(dim):
                for u in range(dim):
                    for r in range(dim):
                        c = values[w][r][u] - values[u][r][w]
                        if c:
                            expected[w, u, r, col] = c
        assert ncols == len(maps)
        assert {key: c for key, c in got.items() if c} == expected


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize(
    "check", [first_prolongation_dim, trace_pairing_condition, transpose_invariance]
)
def test_structure_algebra_checks_reject_nonpositive_n(check, n):
    with pytest.raises(ValueError, match="n must be positive"):
        check(n)


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
