import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipara.linalg import (
    LinAlgError,
    PolyMatrix,
    matrix_signature,
    poly_matrix_inverse,
    rat_inverse,
    rat_matmul,
    rat_nullspace,
    rat_rank,
    rat_signature,
)
from bipara.poly import MultiPoly, parse_poly


def rational_matrix(rows):
    return [[Fraction(v) for v in row] for row in rows]


def test_signature_identity():
    assert rat_signature(rational_matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])) == (4, 0, 0)


def test_signature_diagonal_mixed():
    assert rat_signature(rational_matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])) == (2, 2, 0)


def test_signature_antidiagonal_pair():
    # eigenvalues are +-1, frozen by hand
    assert rat_signature(rational_matrix([[0, 1], [1, 0]])) == (1, 1, 0)


def test_signature_zero_rows_counted():
    assert rat_signature(rational_matrix([[0, 0], [0, 0]])) == (0, 0, 2)
    assert rat_signature(rational_matrix([[1, 0, 0], [0, 0, 0], [0, 0, -2]])) == (1, 1, 1)


def test_signature_requires_symmetry():
    with pytest.raises(LinAlgError):
        rat_signature(rational_matrix([[0, 1], [0, 0]]))


def test_matrix_signature_requires_constants():
    m = PolyMatrix.from_rows([[parse_poly("x1", ("x1",)), parse_poly("0", ("x1",))],
                              [parse_poly("0", ("x1",)), parse_poly("1", ("x1",))]])
    with pytest.raises(LinAlgError):
        matrix_signature(m)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_signature_congruence_invariant(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    sym = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            sym[i][j] = v
            sym[j][i] = v
    while True:
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        try:
            rat_inverse(a)
            break
        except LinAlgError:
            continue
    congruent = rat_matmul(rat_matmul([list(r) for r in zip(*a)], sym), a)
    assert rat_signature(congruent) == rat_signature(sym)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_signature_matches_known_inertia_after_congruence(seed):
    # oracle: start from a diagonal with known inertia, transport it by a
    # random invertible congruence, and demand the counts come back
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    diag_entries = [Fraction(rng.choice([-3, -1, 0, 0, 1, 2])) for _ in range(n)]
    expected = (
        sum(1 for d in diag_entries if d > 0),
        sum(1 for d in diag_entries if d < 0),
        sum(1 for d in diag_entries if d == 0),
    )
    diag = [
        [diag_entries[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)
    ]
    while True:
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        try:
            rat_inverse(a)
            break
        except LinAlgError:
            continue
    moved = rat_matmul(rat_matmul([list(r) for r in zip(*a)], diag), a)
    assert rat_signature(moved) == expected


def test_signature_zero_diagonal_needs_fixup_path():
    # all diagonal pivots vanish: only the row/column addition step applies
    m = rational_matrix(
        [[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, -5], [0, 0, -5, 0]]
    )
    assert rat_signature(m) == (2, 2, 0)


def test_rank_and_nullspace():
    m = rational_matrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert rat_rank(m) == 2
    basis = rat_nullspace(m)
    assert len(basis) == 1
    rng = random.Random(2718)
    matrices = [m] + [
        rational_matrix(
            [[rng.choice([0, 0, 0, 1, -1, 2, Fraction(1, 3)]) for _ in range(cols)] for _ in range(rows)]
        )
        for rows, cols in ((rng.randint(1, 6), rng.randint(1, 6)) for _ in range(60))
    ]
    for m in matrices:
        basis = rat_nullspace(m)
        assert rat_rank(m) + len(basis) == len(m[0])
        assert rat_rank(m) == rat_rank([list(col) for col in zip(*m)])
        for vec in basis:
            image = rat_matmul(m, [[v] for v in vec])
            assert all(entry[0] == 0 for entry in image)


def test_rat_inverse_round_trip():
    m = rational_matrix([[2, 1], [1, 1]])
    inv = rat_inverse(m)
    assert rat_matmul(m, inv) == rational_matrix([[1, 0], [0, 1]])
    with pytest.raises(LinAlgError):
        rat_inverse(rational_matrix([[1, 2], [2, 4]]))


def test_poly_matrix_inverse_constant():
    m = PolyMatrix.from_rational_rows([[2, 1], [1, 1]], ())
    inv = poly_matrix_inverse(m)
    assert (m @ inv) == PolyMatrix.identity(2, ())


def test_poly_matrix_inverse_unipotent():
    variables = ("x1", "y1")
    one = MultiPoly.const(variables, 1)
    zero = MultiPoly.zero(variables)
    x = MultiPoly.var(variables, "x1")
    m = PolyMatrix.from_rows([[one, zero], [x * x, one]])
    inv = poly_matrix_inverse(m)
    assert (m @ inv) == PolyMatrix.identity(2, variables)
    assert (inv @ m) == PolyMatrix.identity(2, variables)


def test_poly_matrix_inverse_rejects_non_invertible():
    variables = ("x1",)
    one = MultiPoly.const(variables, 1)
    x = MultiPoly.var(variables, "x1")
    with pytest.raises(LinAlgError):
        poly_matrix_inverse(PolyMatrix.from_rows([[one + x]]))


def test_trace_and_transpose():
    variables = ("x1",)
    x = MultiPoly.var(variables, "x1")
    one = MultiPoly.const(variables, 1)
    m = PolyMatrix.from_rows([[x, one], [one, x]])
    assert m.trace() == x + x
    assert m.transpose() == m


def _dense_matvec(m, vector):
    out = []
    for i in range(m.rows):
        acc = MultiPoly.zero(m.variables)
        for k in range(m.cols):
            acc = acc + m.get(i, k) * vector[k]
        out.append(acc)
    return out


def _dense_matmul(a, b):
    entries = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = MultiPoly.zero(a.variables)
            for k in range(a.cols):
                acc = acc + a.get(i, k) * b.get(k, j)
            entries.append(acc)
    return PolyMatrix(a.rows, b.cols, entries)


def _random_poly(rng, variables, density):
    if rng.random() >= density:
        return MultiPoly.zero(variables)
    terms = {
        tuple(rng.randint(0, 2) for _ in variables): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        for _ in range(rng.randint(1, 3))
    }
    return MultiPoly(variables, terms)


def _random_sparse_matrix(rng, rows, cols, variables, density):
    zero_rows = {i for i in range(rows) if rng.random() < 0.3}
    return PolyMatrix(
        rows,
        cols,
        [
            MultiPoly.zero(variables) if i in zero_rows else _random_poly(rng, variables, density)
            for i in range(rows)
            for _ in range(cols)
        ],
    )


@pytest.mark.parametrize("variables", [(), ("x1", "y1")], ids=["constant", "chart"])
def test_sparse_kernels_match_dense_reference(variables):
    rng = random.Random(20260)
    for _ in range(60):
        rows, inner, cols = (rng.randint(1, 5) for _ in range(3))
        density = rng.choice([0.0, 0.15, 0.4, 1.0])
        a = _random_sparse_matrix(rng, rows, inner, variables, density)
        b = _random_sparse_matrix(rng, inner, cols, variables, density)
        assert a @ b == _dense_matmul(a, b)
        for vector in (
            [MultiPoly.zero(variables)] * inner,
            [_random_poly(rng, variables, density) for _ in range(inner)],
            [_random_poly(rng, variables, 1.0) for _ in range(inner)],
        ):
            assert a.matvec(vector) == _dense_matvec(a, vector)
