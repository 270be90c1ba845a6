"""Dense matrices over the exact polynomial ring, and rational linear algebra.

Two layers live here:

* :class:`PolyMatrix` -- small dense matrices of :class:`~bipara.poly.MultiPoly`
  entries, used for endomorphism fields, bilinear fields and frames; frozen
  values, compared and hashed by shape and entries.
* plain ``list[list[Fraction]]`` helpers (``rat_*``) for exact Gaussian
  elimination: inverses, ranks, nullspaces and Sylvester signatures.  Every
  homogeneous system the library solves is assembled by :func:`rat_system`
  from sparse ``(row key, column, coefficient)`` terms.

General polynomial matrices are never inverted.  :func:`poly_matrix_inverse`
only succeeds when the matrix is constant, or has an invertible constant part
with a nilpotent polynomial remainder (the unipotent case), which keeps every
inverse inside the polynomial ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Sequence

from .poly import MultiPoly, PolyError

__all__ = [
    "LinAlgError",
    "PolyMatrix",
    "poly_matrix_inverse",
    "rat_blocks",
    "rat_inverse",
    "rat_matmul",
    "rat_nullspace",
    "rat_rank",
    "rat_signature",
    "rat_system",
]


class LinAlgError(ValueError):
    """Raised on singular solves, shape mismatches or unsupported inverses."""


@dataclass(frozen=True, init=False, repr=False)
class PolyMatrix:
    """A rows x cols matrix of polynomials sharing one variable tuple.

    A frozen value: equality and hash read ``rows``, ``cols`` and ``entries``.
    ``variables`` and ``_sparse_rows`` are derived from them when the matrix
    is made: ``_sparse_rows[i]`` holds the ``(column, entry)`` pairs of the
    nonzero entries of row ``i``, in column order; the products visit only
    those.
    """

    __slots__ = ("rows", "cols", "entries", "variables", "_sparse_rows")
    rows: int
    cols: int
    entries: tuple[MultiPoly, ...]

    def __init__(self, rows: int, cols: int, entries: Sequence[MultiPoly]):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise LinAlgError(f"expected {rows * cols} entries, got {len(entries)}")
        if rows <= 0 or cols <= 0:
            raise LinAlgError("matrix dimensions must be positive")
        variables = entries[0].variables
        for e in entries:
            if e.variables != variables:
                raise PolyError("matrix entries live in different rings")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(
            self,
            "_sparse_rows",
            tuple(
                tuple((k, e) for k, e in enumerate(entries[i * cols : (i + 1) * cols]) if e.terms)
                for i in range(rows)
            ),
        )

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[MultiPoly]]) -> "PolyMatrix":
        nrows = len(rows)
        ncols = len(rows[0])
        flat: list[MultiPoly] = []
        for row in rows:
            if len(row) != ncols:
                raise LinAlgError("ragged rows")
            flat.extend(row)
        return cls(nrows, ncols, flat)

    @classmethod
    def identity(cls, n: int, variables: Sequence[str]) -> "PolyMatrix":
        one = MultiPoly.const(variables, 1)
        zero = MultiPoly.zero(variables)
        return cls(n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    @classmethod
    def from_rational_rows(
        cls, rows: Sequence[Sequence[Fraction]], variables: Sequence[str]
    ) -> "PolyMatrix":
        return cls.from_rows(
            [[MultiPoly.const(variables, v) for v in row] for row in rows]
        )

    # -- access ---------------------------------------------------------------

    def get(self, i: int, j: int) -> MultiPoly:
        return self.entries[i * self.cols + j]

    def column(self, j: int) -> tuple[MultiPoly, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    # -- algebra --------------------------------------------------------------

    def _check_same_shape(self, other: "PolyMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise LinAlgError("shape mismatch")

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_same_shape(other)
        return PolyMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_same_shape(other)
        return PolyMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)]
        )

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols, [-a for a in self.entries])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise LinAlgError("inner dimensions do not match")
        out: list[MultiPoly] = []
        zero = MultiPoly.zero(self.variables)
        for row in self._sparse_rows:
            accs = [zero] * other.cols
            for k, left in row:
                for j, right in other._sparse_rows[k]:
                    accs[j] = accs[j] + left * right
            out.extend(accs)
        return PolyMatrix(self.rows, other.cols, out)

    def scale(self, scalar) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols, [e.scale(scalar) for e in self.entries])

    def matvec(self, vector: Sequence[MultiPoly]) -> list[MultiPoly]:
        if len(vector) != self.cols:
            raise LinAlgError("vector length does not match column count")
        out = []
        zero = MultiPoly.zero(self.variables)
        for row in self._sparse_rows:
            acc = zero
            for k, entry in row:
                v = vector[k]
                if v.terms:
                    acc = acc + entry * v
            out.append(acc)
        return out

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(
            self.cols,
            self.rows,
            [self.get(i, j) for j in range(self.cols) for i in range(self.rows)],
        )

    def trace(self) -> MultiPoly:
        if self.rows != self.cols:
            raise LinAlgError("trace of a non-square matrix")
        acc = MultiPoly.zero(self.variables)
        for i in range(self.rows):
            acc = acc + self.get(i, i)
        return acc

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    @property
    def is_constant(self) -> bool:
        return all(e.is_constant for e in self.entries)

    def map_entries(self, fn: Callable[[MultiPoly], MultiPoly]) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols, [fn(e) for e in self.entries])

    def substitute(self, images) -> "PolyMatrix":
        return self.map_entries(lambda e: e.substitute(images))

    def evaluate(self, point: Sequence[Fraction]) -> list[list[Fraction]]:
        return [[self.get(i, j).evaluate(point) for j in range(self.cols)] for i in range(self.rows)]

    def constant_rows(self) -> list[list[Fraction]]:
        """Entries as rationals; raises if any entry is non-constant."""
        if not self.is_constant:
            raise LinAlgError("matrix has non-constant entries")
        return [
            [self.get(i, j).constant_value() for j in range(self.cols)]
            for i in range(self.rows)
        ]

    def constant_parts(self) -> list[list[Fraction]]:
        return [
            [self.get(i, j).constant_part() for j in range(self.cols)]
            for i in range(self.rows)
        ]

    def __repr__(self) -> str:
        rows = [", ".join(str(self.get(i, j)) for j in range(self.cols)) for i in range(self.rows)]
        return "PolyMatrix[" + "; ".join(rows) + "]"


# ---------------------------------------------------------------------------
# Exact rational linear algebra on list[list[Fraction]]
# ---------------------------------------------------------------------------


def _rat_copy(m: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """New rows of ``m`` with every entry a ``Fraction``; entries that are one are kept as they are."""
    return [[v if type(v) is Fraction else Fraction(v) for v in row] for row in m]


def rat_blocks(n: int, blocks) -> list[list[Fraction]]:
    """The 2n × 2n rational matrix [[A, B], [C, D]] from ``blocks`` = ((A, B), (C, D)).

    Each block is n × n rows, or a number c that stands for c times the
    identity: ``rat_blocks(n, ((1, 0), (0, -1)))`` is diag(I, -I).
    """

    def rows(block) -> list[list[Fraction]]:
        if isinstance(block, (int, Fraction)):
            return [[Fraction(block if i == j else 0) for j in range(n)] for i in range(n)]
        return _rat_copy(block)

    return [left + right for a, b in blocks for left, right in zip(rows(a), rows(b))]


def rat_matmul(a, b) -> list[list[Fraction]]:
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise LinAlgError("inner dimensions do not match")
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


def rat_system(
    ncols: int, terms: Iterable[tuple[Hashable, int, int | Fraction]]
) -> list[list[Fraction]]:
    """The rows of a homogeneous system in ``ncols`` unknowns, from sparse terms.

    Each term ``(key, column, coefficient)`` adds its coefficient to the row
    named ``key``; terms with a key of None are dropped.  Rows come in the
    order their keys first appear.
    """
    rows: dict[Hashable, list[Fraction]] = {}
    for key, col, coeff in terms:
        if key is not None:
            row = rows.get(key)
            if row is None:
                row = rows[key] = [Fraction(0)] * ncols
            row[col] += coeff
    return list(rows.values())


def _rat_rref(m: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], dict[int, int]]:
    """Reduced row echelon form, and the row of the pivot in each pivot column."""
    a = _rat_copy(m)
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots: dict[int, int] = {}
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        pivot_row = next((r for r in range(row, nrows) if a[r][col] != 0), None)
        if pivot_row is None:
            continue
        a[row], a[pivot_row] = a[pivot_row], a[row]
        pivot = a[row][col]
        # zero entries are left as they are: the systems assembled here are sparse
        a[row] = [v / pivot if v else v for v in a[row]]
        for r in range(nrows):
            if r != row and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w if w else v for v, w in zip(a[r], a[row])]
        pivots[col] = row
        row += 1
    return a, pivots


def rat_inverse(m: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse: the right half of the reduced form of [m | Id]; raises if singular."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise LinAlgError("inverse of a non-square matrix")
    augmented = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    a, pivots = _rat_rref(augmented)
    if any(col not in pivots for col in range(n)):
        raise LinAlgError("matrix is singular")
    return [row[n:] for row in a]


def rat_rank(m: Sequence[Sequence[Fraction]]) -> int:
    return len(_rat_rref(m)[1])


def rat_nullspace(m: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace of ``m`` in ``ncols`` unknowns, via reduced row echelon form.

    The unknowns are counted by ``ncols``, not read off a row, so a system
    with no rows has the whole space as its nullspace.
    """
    if any(len(row) != ncols for row in m):
        raise LinAlgError(f"system rows must have {ncols} entries")
    a, pivots = _rat_rref(m)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for col, prow in pivots.items():
            vec[col] = -a[prow][free]
        basis.append(vec)
    return basis


def rat_signature(m: Sequence[Sequence[Fraction]]) -> tuple[int, int, int]:
    """Sylvester signature (positives, negatives, zeros) of a symmetric matrix.

    Computed by exact congruence diagonalization with symmetric pivoting.
    When every remaining diagonal entry vanishes but some off-diagonal entry
    survives, a row+column addition creates a nonzero pivot (a congruence, so
    the inertia is unchanged).
    """
    n = len(m)
    a = _rat_copy(m)
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i]:
                raise LinAlgError("matrix is not symmetric")
    pos = neg = zero = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                fill = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if fill is None:
                    zero += 1
                    continue
                # all remaining diagonal entries vanish, so the new pivot is
                # a[k][k] + 2 a[k][fill] + a[fill][fill] = 2 a[k][fill] != 0
                for j in range(n):
                    a[k][j] = a[k][j] + a[fill][j]
                for i in range(n):
                    a[i][k] = a[i][k] + a[i][fill]
        pivot = a[k][k]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k] == 0:
                continue
            factor = a[i][k] / pivot
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
            for j in range(k, n):
                a[j][i] -= factor * a[j][k]
    return pos, neg, zero


# ---------------------------------------------------------------------------
# Polynomial matrix inverses (constant or unipotent-type only)
# ---------------------------------------------------------------------------


def poly_matrix_inverse(m: PolyMatrix) -> PolyMatrix:
    """Exact inverse of a polynomially invertible square matrix.

    Supported inputs: constant invertible matrices, and matrices whose
    constant part is invertible with nilpotent polynomial remainder (Jacobian
    frames of unipotent coordinate changes are of this shape).  Anything else
    raises :class:`LinAlgError`, since its inverse would leave the ring.
    """
    if m.rows != m.cols:
        raise LinAlgError("inverse of a non-square matrix")
    n = m.rows
    variables = m.variables
    const = m.constant_parts()
    try:
        const_inv = rat_inverse(const)
    except LinAlgError:
        raise LinAlgError("matrix is not polynomially invertible (singular constant part)")
    const_inv_poly = PolyMatrix.from_rational_rows(const_inv, variables)
    if m.is_constant:
        return const_inv_poly
    identity = PolyMatrix.identity(n, variables)
    nil = (const_inv_poly @ m) - identity
    # (I + N)^-1 = I - N + N^2 - ...  terminates iff N is nilpotent
    acc = identity
    power = identity
    sign = -1
    for _ in range(n):
        power = power @ nil
        if power.is_zero:
            break
        acc = acc + power.scale(sign)
        sign = -sign
    if not power.is_zero:
        raise LinAlgError("matrix is not polynomially invertible (non-nilpotent part)")
    inverse = acc @ const_inv_poly
    if not (m @ inverse) == PolyMatrix.identity(n, variables):
        raise LinAlgError("inverse verification failed")  # pragma: no cover
    return inverse
