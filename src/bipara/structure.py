"""Almost biparacomplex structures: validation, fixtures, generation, classification.

A structure is a pair (F, P) of anticommuting involutive (1,1)-tensor fields.
Validation establishes every defining identity exactly, optionally against
an adapted frame {X_1..X_n, Y_1..Y_n} with F X_i = X_i, F Y_i = -Y_i,
P X_i = Y_i, P Y_i = X_i.  The almost complex structure J = F o P, the
four eigenprojectors, the split frame (F+-E_i and P F+-E_i for each basis
field E_i, see ``BiparaStructure.split``) and the coframe pairing of each
frame bracket (``BiparaStructure.frame_bracket``) are derived values, each
built on first read.

An adapted frame E is a certificate when it passes those 4n column checks and
E(0) (its constant parts) has full rank: then det E is a nonzero polynomial,
E is invertible over the rational functions, and F = E diag(I, -I) E^-1,
P = E [[0, I], [I, 0]] E^-1 imply F^2 = P^2 = Id, FP + PF = 0 and zero
traces without forming any of those products.  Without a certificate (no
frame, a failed column check, or E(0) singular) every identity is checked
directly, and the failure list is the same as if no shortcut existed.

``adapted_structure(ctx, E)`` is the one place that assembles F and P from
the blocks of the adapted presentation; every built-in structure, the
alpha-structure solve and ``nilpotent_chart`` go through it.  The block
constants (F = diag(I, -I), P the block swap and the flat chart's frame
[[I, I], [I, -I]]) all come from ``linalg.rat_blocks``.

Three named fixtures ship as built-ins:

* ``flat_structure``       -- the integrable flat model (both backends),
* ``heisenberg_structure`` -- [X1, X2] = Y1: non-integrable, torsion present
  but with vanishing difference tensor,
* ``affine_structure``     -- [X1, X2] = X1: non-integrable with a nonzero
  difference tensor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .geometry import (
    POLYNOMIAL_CHART,
    ContextMismatch,
    EndoField,
    FrameContext,
    GeometryError,
    PolyMap,
    VectorField,
    algebra_context,
    basis_fields,
    chart_context,
    first_nonzero,
    lie_bracket,
    pushforward_endo,
)
from .linalg import LinAlgError, PolyMatrix, poly_matrix_inverse, rat_blocks, rat_inverse, rat_matmul, rat_rank
from .poly import MultiPoly

__all__ = [
    "BiparaStructure",
    "Projectors",
    "StructureError",
    "TRIPLE_KINDS",
    "adapted_basis",
    "adapted_structure",
    "affine_structure",
    "classify_triple",
    "delta_gl_algebra_membership",
    "delta_gl_membership",
    "flat_structure",
    "heisenberg_structure",
    "matrix_witness",
    "nilpotent_chart",
    "pushforward_structure",
    "random_structure",
    "random_unipotent_map",
    "structure_from_alpha",
]


def failure(name: str, witness=None) -> dict:
    """One broken identity as ``StructureError.failures`` lists it."""
    return {"name": name, "witness": witness}


class StructureError(ValueError):
    """Validation failure; ``failures`` lists each broken identity separately.

    The message renders each failure as ``name (witness ...)``, or as its
    name alone when it has no witness, joined by ``"; "``.
    """

    def __init__(self, failures: list[dict]):
        self.failures = failures
        super().__init__(
            "; ".join(
                f["name"] if f["witness"] is None else f"{f['name']} (witness {f['witness']})"
                for f in failures
            )
        )

    @classmethod
    def of(cls, name: str, witness=None) -> "StructureError":
        """The error for a single broken identity."""
        return cls([failure(name, witness)])


@dataclass(frozen=True)
class Projectors:
    """Eigenprojectors (Id +- F)/2 and (Id +- P)/2 of a validated structure."""

    f_plus: EndoField
    f_minus: EndoField
    p_plus: EndoField
    p_minus: EndoField


def matrix_witness(matrix: PolyMatrix) -> dict | None:
    """Row, column and value of the first nonzero entry, or None for a zero matrix."""
    hit = first_nonzero(
        ((i, j), matrix.get(i, j)) for i in range(matrix.rows) for j in range(matrix.cols)
    )
    if hit is None:
        return None
    (i, j), entry = hit
    return {"row": i, "col": j, "value": str(entry)}


class BiparaStructure:
    """A validated almost biparacomplex structure (F, P) with derived data."""

    __slots__ = ("context", "F", "P", "adapted_frame", "__dict__")

    # ``validate`` establishes F^2 = P^2 = Id and FP = -PF, so every instance
    # is of this ``classify_triple`` kind.
    triple_kind = "biparacomplex-type"

    def __init__(self, context, F, P, adapted_frame):
        self.context = context
        self.F = F
        self.P = P
        self.adapted_frame = adapted_frame
        # frame_bracket's pairings by (a, b); plain values, never the structure.
        self._frame_pairings: dict[tuple[int, int], tuple[MultiPoly, ...]] = {}

    @property
    def dim(self) -> int:
        return self.context.dim

    @property
    def n(self) -> int:
        return self.context.dim // 2

    @cached_property
    def basis(self) -> tuple[VectorField, ...]:
        return basis_fields(self.context)

    @cached_property
    def J(self) -> EndoField:
        """The almost complex structure J = F o P, built on first read."""
        return EndoField(self.context, self.F.matrix @ self.P.matrix)

    @cached_property
    def projectors(self) -> Projectors:
        """The eigenprojectors (Id +- F)/2 and (Id +- P)/2, built on first read."""
        half = Fraction(1, 2)
        eye = EndoField.identity(self.context)
        return Projectors(
            f_plus=(eye + self.F).scale(half),
            f_minus=(eye - self.F).scale(half),
            p_plus=(eye + self.P).scale(half),
            p_minus=(eye - self.P).scale(half),
        )

    def split(self, x: VectorField) -> tuple[VectorField, VectorField, VectorField, VectorField]:
        """(F+X, F-X, P F+X, P F-X): the projections the connection formulas read."""
        proj = self.projectors
        return self._with_p_images(proj.f_plus.apply(x), proj.f_minus.apply(x))

    @cached_property
    def frame_split(self) -> tuple[tuple[VectorField, VectorField, VectorField, VectorField], ...]:
        """``split(E_i)`` for each basis field, built once; F+-E_i is column i of the projector."""
        proj = self.projectors
        return tuple(
            self._with_p_images(proj.f_plus.column_field(i), proj.f_minus.column_field(i))
            for i in range(self.dim)
        )

    def _with_p_images(self, xp: VectorField, xm: VectorField):
        return xp, xm, self.P.apply(xp), self.P.apply(xm)

    @cached_property
    def coframe(self) -> PolyMatrix:
        """Inverse of the adapted frame; its rows pair with X_1..X_n, Y_1..Y_n."""
        if self.adapted_frame is None:
            raise StructureError.of("missing adapted frame")
        return _frame_inverse(self.adapted_frame)

    def frame_bracket(self, a: int, b: int) -> tuple[MultiPoly, ...]:
        """The coframe pairing of [F_a, F_b]: entry c is its F_c-component.

        F = (X_1..X_n, Y_1..Y_n) is the adapted frame.  A pair is bracketed on
        its first read and kept, so a caller that reads only some pairs
        brackets only those.  Each unordered pair is bracketed once, as
        [F_a, F_b] with a < b: [F_b, F_a] = -[F_a, F_b], the pairing is linear,
        and the diagonal is zero.
        """
        pairing = self._frame_pairings.get((a, b))
        if pairing is None:
            if a == b:
                pairing = (self.context.zero,) * self.dim
            elif a > b:
                pairing = tuple(-c for c in self.frame_bracket(b, a))
            else:
                bracket = lie_bracket(self.frame_field(a), self.frame_field(b))
                pairing = tuple(self.coframe.matvec(list(bracket.components)))
            self._frame_pairings[a, b] = pairing
        return pairing

    @classmethod
    def validate(
        cls,
        F: EndoField,
        P: EndoField,
        adapted_frame: PolyMatrix | None = None,
    ) -> "BiparaStructure":
        """Establish every defining identity exactly; collect all failures.

        A certifying adapted frame (see the module docstring) proves the
        identities on its own, so no matrix product is formed.  Otherwise the
        identities are checked one by one, and any frame failures follow
        the identity failures in the raised ``StructureError``.
        """
        if F.context != P.context:
            raise ContextMismatch("F and P live in different frame contexts")
        ctx = F.context
        n = ctx.dim // 2
        frame_failures: list[dict] = []
        if adapted_frame is not None:
            frame_endo = EndoField(ctx, adapted_frame)
            xs = [frame_endo.column_field(i) for i in range(n)]
            ys = [frame_endo.column_field(n + i) for i in range(n)]
            for i, (x_i, y_i) in enumerate(zip(xs, ys), 1):
                columns = (
                    (F, x_i, x_i, f"F*X_{i} != X_{i}"),
                    (F, y_i, -y_i, f"F*Y_{i} != -Y_{i}"),
                    (P, x_i, y_i, f"P*X_{i} != Y_{i}"),
                    (P, y_i, x_i, f"P*Y_{i} != X_{i}"),
                )
                frame_failures += [failure(name) for e, v, image, name in columns if e.apply(v) != image]
        certified = (
            adapted_frame is not None
            and not frame_failures
            and rat_rank(adapted_frame.constant_parts()) == ctx.dim
        )
        if not certified:
            failures: list[dict] = []
            identity = PolyMatrix.identity(ctx.dim, ctx.variables)

            def check(name: str, matrix: PolyMatrix):
                witness = matrix_witness(matrix)
                if witness is not None:
                    failures.append(failure(name, witness))

            check("F^2 != Id", (F.matrix @ F.matrix) - identity)
            check("P^2 != Id", (P.matrix @ P.matrix) - identity)
            fp = F.matrix @ P.matrix
            check("F∘P + P∘F != 0", fp + (P.matrix @ F.matrix))
            for name, e in (("F", F), ("P", P)):
                trace = e.matrix.trace()
                if not trace.is_zero:
                    failures.append(failure(f"trace({name}) != 0", {"value": str(trace)}))
            if not failures:
                # J^2 = -Id follows from the identities above; a failure here
                # would mean the checks themselves are broken.
                assert ((fp @ fp) + identity).is_zero
            failures += frame_failures
            if failures:
                raise StructureError(failures)

        return cls(ctx, F, P, adapted_frame)

    # -- adapted frame access --------------------------------------------------

    def frame_field(self, index: int) -> VectorField:
        if self.adapted_frame is None:
            raise StructureError.of("missing adapted frame")
        return VectorField(self.context, self.adapted_frame.column(index))


# ---------------------------------------------------------------------------
# Built-in fixtures
# ---------------------------------------------------------------------------


# diag(I, -I) and the block swap [[0, I], [I, 0]], as ``rat_blocks`` blocks.
_DIAG = ((1, 0), (0, -1))
_SWAP = ((0, 1), (1, 0))


def _frame_inverse(frame: PolyMatrix) -> PolyMatrix:
    """E^-1 by ``poly_matrix_inverse``; a failure names the adapted frame."""
    try:
        return poly_matrix_inverse(frame)
    except LinAlgError as err:
        raise LinAlgError(f"adapted_frame: {err}") from err


def adapted_structure(ctx: FrameContext, frame: PolyMatrix | None = None) -> BiparaStructure:
    """The structure whose adapted frame is E = ``frame``, certified by E.

    F = E diag(I, -I) E^-1 and P = E [[0, I], [I, 0]] E^-1.  With no frame,
    E = I and F, P are the blocks themselves, with no conjugation.  A frame
    with no polynomial inverse raises ``LinAlgError`` naming ``adapted_frame``.
    """
    n = ctx.dim // 2
    f, p = (PolyMatrix.from_rational_rows(rat_blocks(n, blocks), ctx.variables) for blocks in (_DIAG, _SWAP))
    if frame is None:
        frame = PolyMatrix.identity(ctx.dim, ctx.variables)
    else:
        coframe = _frame_inverse(frame)
        f, p = frame @ f @ coframe, frame @ p @ coframe
    return BiparaStructure.validate(EndoField(ctx, f), EndoField(ctx, p), adapted_frame=frame)


def _chart_variables(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n)) + tuple(f"y{i + 1}" for i in range(n))


def flat_structure(n: int, backend: str = POLYNOMIAL_CHART) -> BiparaStructure:
    """The integrable flat model on R^{2n}.

    Chart backend: F swaps the x/y coordinate blocks and P is diag(I, -I);
    the adapted frame is X_i = dx_i + dy_i, Y_i = dx_i - dy_i.  Constant
    backend: the abelian Lie algebra in adapted presentation (F = diag(I, -I),
    P the block swap, frame = standard basis).
    """
    if backend == POLYNOMIAL_CHART:
        variables = _chart_variables(n)
        frame = PolyMatrix.from_rational_rows(rat_blocks(n, ((1, 1), (1, -1))), variables)
        return adapted_structure(chart_context(variables), frame)
    return adapted_structure(algebra_context(2 * n, {}))


def heisenberg_structure() -> BiparaStructure:
    """Constant-frame fixture with [X1, X2] = Y1 (dim 4, adapted frame)."""
    return adapted_structure(algebra_context(4, {(0, 1): (0, 0, 1, 0)}))


def affine_structure() -> BiparaStructure:
    """Constant-frame fixture with [X1, X2] = X1 (dim 4, adapted frame)."""
    return adapted_structure(algebra_context(4, {(0, 1): (1, 0, 0, 0)}))


def nilpotent_chart(n: int, table: dict[tuple[int, int], Sequence]) -> BiparaStructure:
    """The chart structure adapted to X_j = dx_j + sum_{i<j} c^k_ij x_i dy_k, Y_k = dy_k.

    ``table`` maps each pair 0 <= i < j < n to the 2n coefficients of
    [X_i, X_j] = sum_k c^k_ij Y_k (zero X part), as ``algebra_context`` reads
    it; the constant-frame twin is ``adapted_structure(algebra_context(2n, table))``.
    A nonzero c makes the structure non-integrable.
    """
    variables = _chart_variables(n)
    dim = 2 * n
    rows = [[MultiPoly.const(variables, int(a == b)) for b in range(dim)] for a in range(dim)]
    for (i, j), coeffs in table.items():
        if not (0 <= i < j < n and len(coeffs) == dim and not any(coeffs[:n])):
            raise StructureError.of(f"bracket ({i}, {j}) is not 2-step nilpotent for n = {n}")
        x_i = MultiPoly.var(variables, variables[i])
        for k in range(n):
            rows[n + k][j] = rows[n + k][j] + x_i.scale(coeffs[n + k])
    return adapted_structure(chart_context(variables), PolyMatrix.from_rows(rows))


# ---------------------------------------------------------------------------
# Derived bases and the alpha-structure correspondence
# ---------------------------------------------------------------------------


def adapted_basis(
    s: BiparaStructure, xs: Sequence[VectorField]
) -> tuple[list[VectorField], list[VectorField], list[VectorField]]:
    """From a basis {X_i} of T_F^+, return bases of T_F^-, T_P^+ and T_P^-.

    Outputs {P X_i}, {X_i + P X_i} and {X_i - P X_i}.  Inputs must satisfy
    F X_i = X_i exactly and be independent at the evaluation point (the
    origin on the chart backend).
    """
    n = s.n
    if len(xs) != n:
        raise StructureError.of(f"expected {n} fields, got {len(xs)}")
    for k, x in enumerate(xs):
        if x.context != s.context:
            raise ContextMismatch("input field lives in a different frame context")
        if s.F.apply(x) != x:
            raise StructureError.of(f"input {k + 1} is not in T_F^+ (F*X != X)")
    columns = [[c.constant_part() for c in x.components] for x in xs]
    if rat_rank(columns) != n:
        raise StructureError.of("inputs are dependent at the evaluation point")
    p_images = [s.P.apply(x) for x in xs]
    sums = [x + px for x, px in zip(xs, p_images)]
    diffs = [x - px for x, px in zip(xs, p_images)]
    return p_images, sums, diffs


def structure_from_alpha(
    v1: Sequence[VectorField], v2: Sequence[VectorField], v3: Sequence[VectorField]
) -> BiparaStructure:
    """The unique structure with T_F^+ = span(v1), T_F^- = span(v2), T_P^+ = span(v3).

    Constant-coefficient inputs only: the graph-map solve is plain linear
    algebra.  The identity T_P^- = F(span v3) is a consequence and is
    re-verified, not assumed.
    """
    ctx = v1[0].context
    for field in list(v1) + list(v2) + list(v3):
        if field.context != ctx:
            raise ContextMismatch("alpha-structure inputs live in different contexts")
        for c in field.components:
            if not c.is_constant:
                raise StructureError.of("alpha-structure inputs must be constant fields")
    dim = ctx.dim
    n = dim // 2
    if not (len(v1) == len(v2) == len(v3) == n):
        raise StructureError.of("each distribution needs n spanning fields")

    def columns(fields):
        return [[c.constant_value() for c in f.components] for f in fields]

    c1, c2, c3 = columns(v1), columns(v2), columns(v3)

    def stack(*col_groups):
        cols = [col for group in col_groups for col in group]
        return [[cols[j][i] for j in range(len(cols))] for i in range(dim)]

    for name, pair in (("V1+V2", (c1, c2)), ("V1+V3", (c1, c3)), ("V2+V3", (c2, c3))):
        if rat_rank(stack(*pair)) != dim:
            raise StructureError.of(f"transversality failure: {name} != TM")

    # Decompose each V3 spanning vector as a_k + b_k with a_k in V1, b_k in V2;
    # P swaps the graph: P a_k = b_k, P b_k = a_k, so (a_1..a_n, b_1..b_n) is
    # an adapted frame.
    coeffs = rat_matmul(rat_inverse(stack(c1, c2)), stack(c3))
    a = rat_matmul(stack(c1), coeffs[:n])
    b = rat_matmul(stack(c2), coeffs[n:])
    ab = [a_row + b_row for a_row, b_row in zip(a, b)]
    if rat_rank(ab) != dim:
        raise StructureError.of("transversality failure: degenerate graph map")
    s = adapted_structure(ctx, PolyMatrix.from_rational_rows(ab, ctx.variables))
    # T_P^- = F(V3): every F w with w in V3 must be a (-1)-eigenvector of P.
    for w in v3:
        fw = s.F.apply(w)
        if s.P.apply(fw) != -fw:
            raise StructureError.of("derived identity T_P^- = F(V3) failed")
    return s


# ---------------------------------------------------------------------------
# Triple-structure classification
# ---------------------------------------------------------------------------

TRIPLE_KINDS = (
    "biparacomplex-type",
    "hyperproduct-type",
    "bicomplex-type",
    "hypercomplex-type",
    "none",
)


def classify_triple(F: EndoField, P: EndoField) -> str:
    """Classify (F, P) by the signs of F^2, P^2 and (anti)commutation."""
    if F.context != P.context:
        raise ContextMismatch("F and P live in different frame contexts")
    ctx = F.context
    identity = PolyMatrix.identity(ctx.dim, ctx.variables)
    f2 = F.matrix @ F.matrix
    p2 = P.matrix @ P.matrix
    fp = F.matrix @ P.matrix
    pf = P.matrix @ F.matrix
    anticommute = (fp + pf).is_zero
    commute = (fp - pf).is_zero
    if (f2 - identity).is_zero and (p2 - identity).is_zero:
        if anticommute:
            return "biparacomplex-type"
        if commute:
            return "hyperproduct-type"
    if (f2 + identity).is_zero and (p2 + identity).is_zero:
        if commute:
            return "bicomplex-type"
        if anticommute:
            return "hypercomplex-type"
    return "none"


# ---------------------------------------------------------------------------
# Block-diagonal structure group membership
# ---------------------------------------------------------------------------


def _delta_blocks(m: PolyMatrix):
    if m.rows != m.cols or m.rows % 2 != 0:
        return None
    if not m.is_constant:
        raise StructureError.of("membership test needs constant entries")
    n = m.rows // 2
    rows = m.constant_rows()
    for i in range(n):
        for j in range(n):
            if rows[i][n + j] != 0 or rows[n + i][j] != 0:
                return None
            if rows[i][j] != rows[n + i][n + j]:
                return None
    return [row[:n] for row in rows[:n]]


def delta_gl_algebra_membership(m: PolyMatrix) -> bool:
    """True iff m = diag(A, A) for some n x n block A."""
    return _delta_blocks(m) is not None


def delta_gl_membership(m: PolyMatrix) -> bool:
    """True iff m = diag(A, A) with A invertible."""
    block = _delta_blocks(m)
    if block is None:
        return False
    return rat_rank(block) == len(block)


# ---------------------------------------------------------------------------
# Pushforward of whole structures
# ---------------------------------------------------------------------------


def pushforward_structure(m: PolyMap, s: BiparaStructure) -> BiparaStructure:
    """Transport a structure along a diffeomorphism; output is re-validated."""
    if s.context != m.source:
        raise ContextMismatch("structure does not live on the map source")
    f_new = pushforward_endo(m, s.F)
    p_new = pushforward_endo(m, s.P)
    frame_new = None
    if s.adapted_frame is not None:
        frame_new = m.jacobian_at_inverse @ s.adapted_frame.substitute(m._sub_inverse)
    return BiparaStructure.validate(f_new, p_new, adapted_frame=frame_new)


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------


def _random_coeff(rng: random.Random) -> Fraction:
    return rng.choice(
        [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(3)]
    )


def random_unipotent_map(ctx: FrameContext, degree: int, rng: random.Random) -> PolyMap:
    """A random unipotent chart change: v_i -> v_i + p_i(v_1 .. v_{i-1}).

    The triangular shape guarantees a polynomial inverse, computed by
    back-substitution.
    """
    if ctx.backend != POLYNOMIAL_CHART:
        raise GeometryError("unipotent maps are chart-backend objects")
    variables = ctx.variables
    dim = ctx.dim
    budget = 2 if degree > 0 else 0  # at most two nonlinear terms; degree 0: the identity
    forward = []
    for i in range(dim):
        expr = MultiPoly.var(variables, variables[i])
        if i > 0 and budget > 0 and rng.random() < 0.7:
            total_degree = rng.randint(1, degree)
            exps = [0] * dim
            for _ in range(total_degree):
                exps[rng.randrange(i)] += 1
            expr = expr + MultiPoly(variables, {tuple(exps): _random_coeff(rng)})
            budget -= 1
        forward.append(expr)
    inverse: list[MultiPoly] = []
    for i in range(dim):
        correction = forward[i] - MultiPoly.var(variables, variables[i])
        sub = {variables[k]: (inverse[k] if k < i else MultiPoly.var(variables, variables[k])) for k in range(dim)}
        inverse.append(MultiPoly.var(variables, variables[i]) - correction.substitute(sub))
    return PolyMap(ctx, ctx, forward=forward, inverse=inverse)


def _random_constant_automorphism(dim: int, rng: random.Random):
    """A random integer matrix with exact inverse, built from elementary ops."""
    eye = [[Fraction(1) if i == j else Fraction(0) for j in range(dim)] for i in range(dim)]
    mat = [row[:] for row in eye]
    inv = [row[:] for row in eye]
    for _ in range(3):  # elementary shears
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if i == j:
            continue
        c = Fraction(rng.choice([-2, -1, 1, 2]))
        # row op on mat: R_i += c R_j ; inverse gets the opposite column op
        mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
        for row in inv:
            row[j] -= c * row[i]
    return mat, inv


def _random_bracket_table(n: int, rng: random.Random) -> dict[tuple[int, int], tuple]:
    """Random structure constants that satisfy Jacobi by construction."""
    dim = 2 * n
    family = rng.choice(["abelian", "nilpotent", "nilpotent", "affine", "solvable"])
    table: dict[tuple[int, int], tuple] = {}
    if family == "nilpotent":
        # Two-step nilpotent: [X_i, X_j] lands in the central Y-span.
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.8:
                    coeffs = [Fraction(0)] * dim
                    coeffs[n + rng.randrange(n)] = _random_coeff(rng)
                    table[(i, j)] = tuple(coeffs)
    elif family == "affine" and n >= 2:
        # [X_1, X_j] = c_j X_1 for j >= 2; pairwise Jacobi terms cancel.
        for j in range(1, n):
            if rng.random() < 0.9:
                coeffs = [Fraction(0)] * dim
                coeffs[0] = _random_coeff(rng)
                table[(0, j)] = tuple(coeffs)
    elif family == "solvable":
        # Mixed block [X_1, Y_1] = a X_1 + b Y_1 with everything else abelian:
        # the bracket image commutes with all generators, so Jacobi holds.
        # These give integrable structures whose connection coefficients are
        # nonzero, unlike the purely nilpotent families.
        coeffs = [Fraction(0)] * dim
        coeffs[0] = _random_coeff(rng)
        if rng.random() < 0.5:
            coeffs[n] = _random_coeff(rng)
        table[(0, n)] = tuple(coeffs)
    return table


def random_structure(
    n: int,
    backend: str = POLYNOMIAL_CHART,
    degree: int = 2,
    seed: int = 0,
    conjugate: bool | None = None,
) -> BiparaStructure:
    """A random validated structure carrying an adapted frame.

    Chart backend: the flat model conjugated by a random unipotent map, hence
    integrable by construction; non-integrable charts come from
    ``nilpotent_chart``.  Constant backend: a Jacobi-valid random
    bracket table in adapted presentation, optionally transported along a
    random constant isomorphism; mixed brackets generally make it
    non-integrable.
    """
    rng = random.Random(seed)
    if backend == POLYNOMIAL_CHART:
        base = flat_structure(n, POLYNOMIAL_CHART)
        m = random_unipotent_map(base.context, degree, rng)
        return pushforward_structure(m, base)
    table = _random_bracket_table(n, rng)
    ctx = algebra_context(2 * n, table)
    s = adapted_structure(ctx)
    if conjugate is None:
        conjugate = rng.random() < 0.5
    if not conjugate:
        return s
    return pushforward_structure(_random_isomorphism(ctx, rng), s)


def _random_isomorphism(ctx: FrameContext, rng: random.Random) -> PolyMap:
    """A random constant automorphism of R^dim, as a map onto the algebra it transports ``ctx`` to.

    The bracket is transported along the matrix, [E_i, E_j]' = M [M^-1 E_i,
    M^-1 E_j], so the matrix is an isomorphism onto the new context; Jacobi
    is preserved exactly by transport.
    """
    dim = ctx.dim
    mat, inv = _random_constant_automorphism(dim, rng)
    table: dict[tuple[int, int], tuple] = {}
    cols_inv = [VectorField.from_rationals(ctx, [inv[r][c] for r in range(dim)]) for c in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            pre = [v.constant_value() for v in lie_bracket(cols_inv[i], cols_inv[j]).components]
            image = [
                sum((mat[r][t] * pre[t] for t in range(dim)), Fraction(0)) for r in range(dim)
            ]
            if any(image):
                table[(i, j)] = tuple(image)
    return PolyMap(ctx, algebra_context(dim, table), matrix=mat)
