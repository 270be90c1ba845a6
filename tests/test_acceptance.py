"""Acceptance gate: one test per criterion, every check exact (zero tolerance).

Each test prints a single PASS line on success (run with ``pytest -s`` to see
them); a failed assertion in any criterion fails the build.  The generated
structure pool mixes both backends and n in {1, 2, 3} with chart conjugation
degree <= 2; BIPARA_SEED overrides its seed.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from bipara.cli import Analysis
from bipara.connections import (
    DifferenceTensor,
    canonical_christoffels,
    canonical_connection,
    connection_from_table,
    curvature,
    is_parallel,
    pushforward_connection,
    torsion,
    trace_condition_holds,
    well_adapted_christoffels,
    well_adapted_connection,
)
from bipara.diagnostics import (
    flatness_verdict,
    integrability_verdict,
    invariant_count,
    first_prolongation_dim,
    nijenhuis,
    fn_bracket,
    pair_values,
    transpose_invariance,
)
from bipara.geometry import BilinearField, EndoField, algebra_context
from bipara.linalg import PolyMatrix, rat_signature
from bipara.metrics import (
    bi_lagrangian_assembly,
    build_orthogonal_metric,
    classify_metric,
    is_positive_definite_at,
    solve_hypersymplectic_metric,
)
from bipara.structure import (
    flat_structure,
    pushforward_structure,
    random_unipotent_map,
)

BIN = [sys.executable, "-m", "bipara.cli"]


def report(name: str):
    print(f"ACCEPTANCE {name}: PASS")


def concomitants(s):
    """Lazy N_F, N_P and [F, P] pair values, as integrability_verdict reads them."""
    return tuple(
        pair_values(evaluate, s.basis)
        for evaluate in (nijenhuis(s.F), nijenhuis(s.P), fn_bracket(s))
    )


@pytest.fixture(scope="module")
def pool_with_laws(generated_pool):
    return [(s, canonical_connection(s)) for s in generated_pool]


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_canonical_axioms(pool_with_laws):
    assert len(pool_with_laws) >= 50
    seen = {(s.context.backend, s.n) for s, _ in pool_with_laws}
    for backend in ("constant_frame", "polynomial_chart"):
        for n in (1, 2, 3):
            assert (backend, n) in seen
    for s, law in pool_with_laws:
        assert is_parallel(law, s.F)
        assert is_parallel(law, s.P)
        assert is_parallel(law, s.J)
        t = torsion(law)
        fp, fm = s.projectors.f_plus, s.projectors.f_minus
        for i in range(s.dim):
            for j in range(s.dim):
                mixed = t.evaluate(fp.apply(s.basis[i]), fm.apply(s.basis[j]))
                assert mixed.is_zero
    report("1 canonical connection axioms on 50 generated structures")


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_2_uniqueness_cross_check(pool_with_laws, flat_n2, heis, aff):
    cases = [(s, canonical_connection(s)) for s in (flat_n2, heis, aff)]
    cases += [(s, law) for s, law in pool_with_laws if s.adapted_frame is not None]
    assert len(cases) >= 50
    for s, law in cases:
        recon = connection_from_table(s, canonical_christoffels(s), kind="canonical")
        n = s.n
        frame_fields = [s.frame_field(k) for k in range(s.dim)]
        for a in frame_fields:
            for b in frame_fields:
                assert recon.nabla(a, b) == law.nabla(a, b)
    report("2 Christoffel reconstruction equals the invariant law")


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_fixture_tables(flat_n2, heis, aff):
    # FLAT: everything vanishes
    law = canonical_connection(flat_n2)
    assert torsion(law).is_zero
    assert curvature(law).is_zero
    assert DifferenceTensor(torsion(law)).is_zero

    # HEIS: T(X1,X2) = -Y1, R = 0, N_F(X1,X2) = 4 Y1,
    #       [F,P](X1,X2) = -2 X1 = 2 P T(X1,X2), A = 0
    law = canonical_connection(heis)
    x1, x2, y1, y2 = heis.basis
    t = torsion(law)
    assert t.evaluate(x1, x2) == -y1
    assert curvature(law).is_zero
    assert nijenhuis(heis.F)(x1, x2) == y1.scale(4)
    fp_value = fn_bracket(heis)(x1, x2)
    assert fp_value == x1.scale(-2)
    assert fp_value == heis.P.apply(t.evaluate(x1, x2)).scale(2)
    assert DifferenceTensor(t).is_zero

    # AFF: T(X1,X2) = -X1, Gamma'^1_{12} = 1/3, nabla'_{X1}X2 = X1/3,
    #      T'(X1,X2) = -X1/3, A(X1,X2) = -X1/3
    law = canonical_connection(aff)
    a1, a2 = aff.basis[0], aff.basis[1]
    t = torsion(law)
    assert t.evaluate(a1, a2) == -a1
    table = well_adapted_christoffels(aff)
    assert table.xx[0][1][0] == Fraction(1, 3)
    diff = DifferenceTensor(t)
    wa = well_adapted_connection(diff)
    assert wa.nabla(a1, a2) == a1.scale(Fraction(1, 3))
    assert torsion(wa).evaluate(a1, a2) == a1.scale(Fraction(-1, 3))
    assert diff.evaluate(a1, a2) == a1.scale(Fraction(-1, 3))

    # both well-adapted constructions agree exactly on all three fixtures
    for s in (flat_n2, heis, aff):
        frame_free = Analysis(s).well_adapted
        via_table = connection_from_table(s, well_adapted_christoffels(s))
        for i in range(s.dim):
            for j in range(s.dim):
                assert frame_free.frame_table[i][j] == via_table.nabla(
                    s.basis[i], s.basis[j]
                )
    report("3 fixture tables match the hand-derived oracle values")


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_4_integrability_biconditional(pool_with_laws, flat_n2, heis, aff):
    # integrability_verdict raises InconsistencyError if its three
    # independently evaluated conditions ever disagree
    for s, law in pool_with_laws:
        integrability_verdict(s, concomitants(s), torsion(law))
    for s in (flat_n2, heis, aff):
        a = Analysis(s)
        tables = tuple(a.concomitant(tensor).items() for tensor in ("F", "P", "FP"))
        integrability_verdict(s, tables, a.torsion("canonical"))
    report("4 three integrability conditions agree on every structure")


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_5_flatness(pool_with_laws, heis):
    conjugates = [
        (s, law)
        for s, law in pool_with_laws
        if s.context.backend == "polynomial_chart"
    ]
    assert len(conjugates) >= 20
    for s, law in conjugates:
        assert torsion(law).is_zero
        assert curvature(law).is_zero
        assert flatness_verdict(torsion(law), curvature(law)).holds
    heis_law = canonical_connection(heis)
    assert curvature(heis_law).is_zero
    assert not torsion(heis_law).is_zero
    verdict = flatness_verdict(torsion(heis_law), curvature(heis_law))
    assert not verdict.holds
    report("5 flat conjugates are flat; the torsion fixture is not")


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_6_difference_tensor_ties_connections(pool_with_laws, aff):
    for s, law in pool_with_laws:
        t = torsion(law)
        diff = DifferenceTensor(t)  # constructor cross-checks both routes
        wa = well_adapted_connection(diff)
        integrable = integrability_verdict(s, concomitants(s), t).holds
        for i in range(s.dim):
            for j in range(s.dim):
                assert law.frame_table[i][j] - wa.frame_table[i][j] == diff.table[i][j]
                if integrable:
                    assert diff.table[i][j].is_zero
        if s.adapted_frame is not None:
            assert trace_condition_holds(torsion(wa))
    assert not trace_condition_holds(torsion(canonical_connection(aff)))
    report("6 difference tensor ties the two connections together")


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_7_functoriality(suite_seed):
    rng = random.Random(suite_seed + 77)
    checked = 0
    for n in (1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 2, 2, 3, 3):
        base = flat_structure(n)
        m = random_unipotent_map(base.context, 2, rng)
        target = pushforward_structure(m, base)
        pushed = pushforward_connection(m, canonical_connection(base), target_structure=target)
        direct = canonical_connection(target)
        for i in range(base.dim):
            for j in range(base.dim):
                assert pushed.frame_table[i][j] == direct.frame_table[i][j]
        checked += 1
    assert checked >= 20
    report("7 pushforward and canonical construction commute (functoriality)")


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_8_prolongation():
    for n in (1, 2, 3):
        assert first_prolongation_dim(n) == 0
        assert transpose_invariance(n)
    report("8 first prolongation vanishes and the algebra is transpose-stable")


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_9_invariant_counts():
    sympy = pytest.importorskip("sympy")
    assert invariant_count(1, 0).general == 0
    for n in (1, 2, 3):
        for r in range(5):
            count = invariant_count(n, r)
            if r == 0:
                oracle = sympy.Integer(0)
            else:
                oracle = 2 * n + sympy.binomial(2 * n + r, r) * sympy.Rational(
                    (3 * r - 1) * n * n - 2 * (r + 1) * n, r + 1
                )
            assert count.general == Fraction(int(oracle.p), int(oracle.q))
            if n == 1 and r in (1, 3, 4):
                assert not count.consistent
                assert count.warnings
    count = invariant_count(1, 2)
    assert count.consistent and count.general == 0 and count.surface == 0
    report("9 invariant counts reproduce the closed formula; n=1 mismatch flagged")


# -- criterion 10 --------------------------------------------------------------


def test_criterion_10_metrics(flat_n2, suite_seed):
    ctx = flat_n2.context

    def const_metric(rows):
        return BilinearField(ctx, PolyMatrix.from_rational_rows(rows, ctx.variables))

    klass = classify_metric(flat_n2, const_metric(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    assert (klass.eps1, klass.eps2, klass.signature) == (1, 1, (4, 0, 0))
    klass = classify_metric(flat_n2, const_metric(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]))
    assert (klass.eps1, klass.eps2, klass.signature) == (-1, 1, (2, 2, 0))
    klass = classify_metric(flat_n2, const_metric(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]))
    assert (klass.eps1, klass.eps2, klass.signature) == (1, -1, (2, 2, 0))

    rng = random.Random(suite_seed + 10)
    produced = 0
    while produced < 20:
        rows = [[Fraction(0)] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                v = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                rows[i][j] += v
                if i != j:
                    rows[j][i] += v
            rows[i][i] += 6
        h = const_metric(rows)
        if not is_positive_definite_at(h):
            continue
        g = build_orthogonal_metric(flat_n2, h)
        fp = flat_n2.projectors.f_plus.matrix
        fm = flat_n2.projectors.f_minus.matrix
        assert (fp.transpose() @ g.matrix @ fm).is_zero
        produced += 1

    hs = solve_hypersymplectic_metric(flat_n2)
    assert hs is not None
    assert rat_signature(hs.matrix.constant_rows()) == (2, 2, 0)

    for build in (_r2_bilagrangian, _r4_bilagrangian):
        omega, f, h = build()
        _, _, _, verdicts = bi_lagrangian_assembly(omega, f, h)
        for name in (
            "structure_valid",
            "riemannian_product_pair",
            "para_metric_minus_plus",
            "riemannian_metric_plus_plus",
        ):
            assert verdicts[name].holds, name
    report("10 metric classification, orthogonalization and assembly")


def _r2_bilagrangian():
    ctx = algebra_context(2, {})
    omega = BilinearField(ctx, PolyMatrix.from_rational_rows([[0, 1], [-1, 0]], ()))
    f = EndoField(ctx, PolyMatrix.from_rational_rows([[1, 0], [0, -1]], ()))
    h = BilinearField(ctx, PolyMatrix.identity(2, ()))
    return omega, f, h


def _r4_bilagrangian():
    ctx = algebra_context(4, {})
    omega = BilinearField(
        ctx,
        PolyMatrix.from_rational_rows(
            [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]], ()
        ),
    )
    f = EndoField(
        ctx,
        PolyMatrix.from_rational_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], ()
        ),
    )
    h = BilinearField(ctx, PolyMatrix.identity(4, ()))
    return omega, f, h


# -- criterion 11 --------------------------------------------------------------


def test_criterion_11_cli_contract(fixture_dir, tmp_path):
    def run_cli(*args):
        return subprocess.run(
            BIN + [str(a) for a in args], capture_output=True, text=True
        )

    for name in ("flat_n1.json", "flat_n2.json", "heis_n2.json", "aff_n2.json"):
        first = run_cli("report", fixture_dir / name)
        second = run_cli("report", fixture_dir / name)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    bad_f = tmp_path / "bad_f.json"
    bad_f.write_text(
        json.dumps(
            {
                "backend": "constant_frame",
                "n": 1,
                "F": [["1", "1"], ["0", "1"]],
                "P": [["0", "1"], ["1", "0"]],
            }
        )
    )
    proc = run_cli("validate", bad_f)
    assert proc.returncode == 1 and "F^2 != Id" in proc.stderr

    bad_var = tmp_path / "bad_var.json"
    bad_var.write_text(
        json.dumps(
            {
                "backend": "polynomial_chart",
                "n": 1,
                "variables": ["x1", "y1"],
                "F": [["0", "qq"], ["1", "0"]],
                "P": [["1", "0"], ["0", "-1"]],
            }
        )
    )
    proc = run_cli("validate", bad_var)
    assert proc.returncode == 2 and "offset" in proc.stderr

    proc = run_cli("connection", "--christoffels", "--kind", "canonical", tmp_path / "nope.json")
    assert proc.returncode == 2  # unreadable file is a schema failure

    noframe = tmp_path / "noframe.json"
    noframe.write_text(
        json.dumps(
            {
                "backend": "constant_frame",
                "n": 1,
                "F": [["1", "0"], ["0", "-1"]],
                "P": [["0", "1"], ["1", "0"]],
            }
        )
    )
    proc = run_cli("connection", "--christoffels", noframe)
    assert proc.returncode == 1 and "adapted_frame" in proc.stderr
    report("11 deterministic reports and the exit-code contract")
