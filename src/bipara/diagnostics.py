"""Integrability and flatness verdicts, bracket concomitants, and exact counts.

Every verdict is computed from independent routes where the theory supplies
them: the integrability verdict evaluates three equivalent conditions
(Nijenhuis vanishing, the [F, P] concomitant vanishing, canonical torsion
vanishing) on separate code paths and errors out if they ever disagree --
such a disagreement would falsify the implementation, not the theory.

The Nijenhuis convention used throughout is

    N_e(X, Y) = [eX, eY] - e[eX, Y] - e[X, eY] + e^2 [X, Y]

whose vanishing, for an involution e, is equivalent to both eigendistributions
being involutive; the direct involutivity check is kept as a guard on the
convention.  For F and P, validation has already established e^2 = Id, so
their evaluators read the e^2 term as [X, Y] and never compose e with e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Callable

from .connections import (
    ConnectionLaw,
    CurvatureTensor,
    PairTensor,
    TorsionTensor,
    canonical_christoffels,
    canonical_connection,
    connection_from_table,
    pushforward_connection,
    torsion,
)
from .geometry import (
    ContextMismatch,
    EndoField,
    PolyMap,
    VectorField,
    first_nonzero,
    lie_bracket,
    pushforward_endo,
)
from .linalg import LinAlgError, PolyMatrix, rat_blocks, rat_rank, rat_system
from .structure import (
    BiparaStructure,
    StructureError,
    delta_gl_algebra_membership,
    matrix_witness,
)

__all__ = [
    "InconsistencyError",
    "InvariantCount",
    "Verdict",
    "coframe_error",
    "commutant_check",
    "equivalence_check",
    "first_prolongation_dim",
    "flatness_verdict",
    "fn_bracket",
    "integrability_verdict",
    "invariant_count",
    "involutivity_flags",
    "fp_torsion_identities",
    "nijenhuis",
    "trace_pairing_condition",
    "transpose_invariance",
]


class InconsistencyError(RuntimeError):
    """Two theoretically equivalent routes disagreed: the build is broken."""


@dataclass(frozen=True)
class Verdict:
    """A named boolean check; carries a re-evaluable witness when it fails."""

    name: str
    holds: bool
    witness: dict | None = None

    def __post_init__(self):
        if self.holds and self.witness is not None:
            raise ValueError("a passing verdict must not carry a witness")
        if not self.holds and self.witness is None:
            raise ValueError("a failing verdict must carry a witness")

    @classmethod
    def of(cls, name: str, holds: bool, witness: dict | None) -> "Verdict":
        """The check ``name``; ``witness`` is kept only when it fails."""
        return cls(name, holds, None if holds else witness)

    def to_json(self) -> dict:
        return {"name": self.name, "holds": self.holds, "witness": self.witness}


def _field_witness(pair, value: VectorField) -> dict:
    return {
        "inputs": [f"E{p + 1}" for p in pair],
        "components": [str(c) for c in value.components],
    }


# ---------------------------------------------------------------------------
# Nijenhuis tensor and the [F, P] concomitant
# ---------------------------------------------------------------------------


def _per_field(image: Callable[[VectorField], object]) -> Callable[[VectorField], object]:
    """``image`` formed once per field object.

    The memo is keyed by ``id`` and each entry holds its field, so no key is
    reused by another field while the memo lives.  Equal but distinct fields
    are computed separately.
    """
    memo: dict[int, tuple] = {}

    def cached(x: VectorField):
        hit = memo.get(id(x))
        if hit is None:
            hit = memo[id(x)] = (x, image(x))
        return hit[1]

    return cached


def nijenhuis(
    e: EndoField, involution: bool = False
) -> Callable[[VectorField, VectorField], VectorField]:
    """The Nijenhuis evaluator of a (1,1)-tensor field.

    e X is formed once per argument field object.  With ``involution`` the
    caller vouches for e o e = Id, so the e^2 term is [X, Y] itself;
    otherwise e^2 = e o e is formed on the first call.
    """
    apply_e = _per_field(e.apply)

    @cache
    def square() -> EndoField:
        return e.compose(e)

    def evaluate(x: VectorField, y: VectorField) -> VectorField:
        ex, ey = apply_e(x), apply_e(y)
        xy = lie_bracket(x, y)
        return (
            lie_bracket(ex, ey)
            - e.apply(lie_bracket(ex, y) + lie_bracket(x, ey))
            + (xy if involution else square().apply(xy))
        )

    return evaluate


def fn_bracket(s: BiparaStructure) -> Callable[[VectorField, VectorField], VectorField]:
    """The [F, P] concomitant, in its anticommutation-reduced form.

    F X and P X are formed once per argument field object.
    """
    f, p = s.F, s.P
    images = _per_field(lambda x: (f.apply(x), p.apply(x)))

    def evaluate(x: VectorField, y: VectorField) -> VectorField:
        (fx, px), (fy, py) = images(x), images(y)
        return (
            lie_bracket(fx, py)
            + lie_bracket(px, fy)
            - f.apply(lie_bracket(px, y) + lie_bracket(x, py))
            - p.apply(lie_bracket(fx, y) + lie_bracket(x, fy))
        )

    return evaluate


def fp_torsion_identities(s: BiparaStructure) -> tuple[Verdict, Verdict, Verdict]:
    """Check the three [F, P]-vs-torsion identities on projected frame pairs.

    Both sides come from independent code paths: the concomitant is expanded
    bracket by bracket, the torsion side contracts the canonical torsion
    table.  The projected frame fields are read from ``s.frame_split``.
    """
    fp_eval = fn_bracket(s)
    t = torsion(canonical_connection(s))
    proj = s.projectors
    split = s.frame_split
    two = Fraction(2)

    def failures(a, b, rhs):
        """((i, j), left side) wherever [F, P](x, y) != rhs on x = split[i][a], y = split[j][b]."""
        for i, xs in enumerate(split):
            for j, ys in enumerate(split):
                lhs = fp_eval(xs[a], ys[b])
                if lhs != rhs(xs, ys):
                    yield (i, j), lhs

    def check(name, a, b, rhs) -> Verdict:
        hit = next(failures(a, b, rhs), None)
        return Verdict(name, True) if hit is None else Verdict(name, False, _field_witness(*hit))

    # split(X) = (F+X, F-X, P F+X, P F-X)
    plus = check(
        "fp_bracket_equals_2PT_on_plus",
        0,
        0,
        lambda xs, ys: s.P.apply(t.evaluate(xs[0], ys[0])).scale(two),
    )
    minus = check(
        "fp_bracket_equals_minus_2PT_on_minus",
        1,
        1,
        lambda xs, ys: s.P.apply(t.evaluate(xs[1], ys[1])).scale(-two),
    )
    mixed = check(
        "fp_bracket_mixed_identity",
        0,
        1,
        lambda xs, ys: (
            proj.f_minus.apply(lie_bracket(xs[0], ys[3]))
            - proj.f_plus.apply(lie_bracket(xs[2], ys[1]))
        ).scale(two),
    )
    return plus, minus, mixed


def involutivity_flags(s: BiparaStructure) -> dict[str, bool]:
    """Direct involutivity of the four eigendistributions (spanning-set check).

    The projections of the basis fields, which span each distribution, are
    the columns of its projector; the nonzero ones are bracketed pairwise.
    """
    proj = s.projectors
    out = {}
    for name, into, complement in (
        ("T_F_plus", proj.f_plus, proj.f_minus),
        ("T_F_minus", proj.f_minus, proj.f_plus),
        ("T_P_plus", proj.p_plus, proj.p_minus),
        ("T_P_minus", proj.p_minus, proj.p_plus),
    ):
        spans = [c for c in map(into.column_field, range(s.dim)) if not c.is_zero]
        out[name] = all(
            complement.apply(lie_bracket(x, y)).is_zero for x, y in combinations(spans, 2)
        )
    return out


# ---------------------------------------------------------------------------
# Integrability and flatness
# ---------------------------------------------------------------------------


def integrability_verdict(
    s: BiparaStructure, concomitants: tuple[PairTensor, PairTensor, PairTensor], t: TorsionTensor
) -> Verdict:
    """Evaluate the three equivalent integrability conditions independently.

    ``concomitants`` are the N_F, N_P and [F, P] tensors; each is evaluated
    up to its first nonzero pair, and N_P not at all when N_F is nonzero.
    ``t`` is the canonical torsion, and the witness of a failing verdict: the
    consistency check leaves no other.
    """
    nf, np_, fp = concomitants
    cond_nijenhuis = nf.is_zero and np_.is_zero

    flags = involutivity_flags(s)
    cond_involutive = all(flags.values())
    if cond_involutive != cond_nijenhuis:
        raise InconsistencyError(
            f"Nijenhuis convention disagrees with direct involutivity: {flags}"
        )

    fp_zero = fp.is_zero
    torsion_witness = first_nonzero(t.cells())
    torsion_zero = torsion_witness is None
    if not (cond_nijenhuis == fp_zero == torsion_zero):
        raise InconsistencyError(
            "equivalent integrability conditions disagree: "
            f"nijenhuis={cond_nijenhuis}, fp_bracket={fp_zero}, torsion_free={torsion_zero}"
        )
    if cond_nijenhuis:
        return Verdict("integrable", True)
    return Verdict("integrable", False, {"tensor": "torsion", **_field_witness(*torsion_witness)})


def flatness_verdict(t: TorsionTensor, r: CurvatureTensor) -> Verdict:
    """Locally flat iff the canonical torsion ``t`` and curvature ``r`` both vanish."""
    for name, tensor in (("torsion", t), ("curvature", r)):
        hit = first_nonzero(tensor.cells())
        if hit is not None:
            return Verdict("flat", False, {"tensor": name, **_field_witness(*hit)})
    return Verdict("flat", True)


# ---------------------------------------------------------------------------
# Structure equivalence and the adjoint-bundle commutant
# ---------------------------------------------------------------------------


def coframe_error(s: BiparaStructure) -> LinAlgError | None:
    """Why the adapted frame of ``s`` has no polynomial inverse, or None.

    None as well when ``s`` has no adapted frame.  A frame can certify the
    structure and still have an inverse outside the ring; then no
    Christoffel table exists on it.
    """
    if s.adapted_frame is None:
        return None
    try:
        s.coframe
    except LinAlgError as err:
        return err
    return None


def _canonical_law(s: BiparaStructure) -> ConnectionLaw:
    """The canonical law of ``s``, through its adapted-frame Christoffel table.

    The canonical connection is unique, so its table on an adapted frame fixes
    it, and the table route is much cheaper than the invariant law.  Without a
    frame, or when the frame has no polynomial inverse, the law is the
    frame-free one.
    """
    if s.adapted_frame is None or coframe_error(s) is not None:
        return canonical_connection(s)
    return connection_from_table(s, canonical_christoffels(s), kind="canonical")


def equivalence_check(sa: BiparaStructure, sb: BiparaStructure, m: PolyMap) -> Verdict:
    """Is m an equivalence carrying (F_A, P_A) to (F_B, P_B)?

    On success the canonical connections are asserted to correspond under m
    as well; their failure to do so would falsify functoriality.  Each law is
    built from its own structure's adapted frame (see ``_canonical_law``), so
    the pushed law and the target law are independent.
    """
    if sa.context != m.source or sb.context != m.target:
        raise ContextMismatch("map endpoints do not match the structures")
    pushed_f = pushforward_endo(m, sa.F)
    pushed_p = pushforward_endo(m, sa.P)
    if pushed_f != sb.F or pushed_p != sb.P:
        diff = (pushed_f.matrix - sb.F.matrix) if pushed_f != sb.F else (pushed_p.matrix - sb.P.matrix)
        name = "F" if pushed_f != sb.F else "P"
        return Verdict("equivalent", False, {"tensor": name, **matrix_witness(diff)})
    pushed_law = pushforward_connection(m, _canonical_law(sa), target_structure=sb)
    if pushed_law.frame_table != _canonical_law(sb).frame_table:
        raise InconsistencyError("structures correspond but their canonical connections do not")
    return Verdict("equivalent", True)


def commutant_check(s: BiparaStructure, endo: EndoField) -> Verdict:
    """Adjoint-algebra membership, verified through both characterizations.

    An endomorphism commutes with F and P iff its matrix in the adapted frame
    is diag(A, A); the two tests are run independently and must agree.
    """
    if s.adapted_frame is None:
        raise StructureError.of("missing adapted frame")
    if endo.context != s.context:
        raise ContextMismatch("endomorphism lives in a different frame context")
    commutes_f = (endo.matrix @ s.F.matrix - s.F.matrix @ endo.matrix).is_zero
    commutes_p = (endo.matrix @ s.P.matrix - s.P.matrix @ endo.matrix).is_zero
    commutes = commutes_f and commutes_p

    in_frame = s.coframe @ endo.matrix @ s.adapted_frame
    if not in_frame.is_constant:
        raise StructureError.of("endomorphism is not constant in the adapted frame")
    block_form = delta_gl_algebra_membership(in_frame)
    if commutes != block_form:
        raise InconsistencyError(
            f"commutation ({commutes}) and adapted block form ({block_form}) disagree"
        )
    return Verdict.of(
        "adjoint_algebra_member", commutes, {"fails_to_commute_with": "P" if commutes_f else "F"}
    )


# ---------------------------------------------------------------------------
# Prolongation and trace pairing of the block-diagonal algebra
#
# Both criteria are rational systems over the same unknowns, the linear maps
# L from R^{2n} into g = {diag(A, A)}, and both read the same alternation
# (Alt L)(e_w, e_u) = L(e_w) e_u - L(e_u) e_w.  ``_alternation`` lists its
# sparse terms once; each criterion keys them into rows for rat_system.
# ---------------------------------------------------------------------------


def _alternation(n: int) -> tuple[int, list[tuple[int, int, int, int, int]]]:
    """The number of unknowns, and the terms (w, u, r, column, coefficient) of Alt L.

    Column (k n + a) n + b is the basis map e_k -> diag(E_ab, E_ab); it sends
    e_{h+b} to e_{h+a} for h in {0, n}, so it adds e_{h+a} at (w, u) = (k, h+b)
    and -e_{h+a} at (w, u) = (h+b, k).  A term adds its coefficient to
    component r of (Alt L)(e_w, e_u).
    """
    if n < 1:
        raise ValueError("n must be positive")
    dim = 2 * n
    terms = []
    for k in range(dim):
        for a in range(n):
            for b in range(n):
                col = (k * n + a) * n + b
                for h in (0, n):
                    terms.append((k, h + b, h + a, col, 1))
                    terms.append((h + b, k, h + a, col, -1))
    return dim * n * n, terms


def _delta_algebra_basis(n: int) -> list[PolyMatrix]:
    """diag(E_ab, E_ab) for a, b < n in row-major order: a basis of {diag(A, A)}."""
    out = []
    for a in range(n):
        for b in range(n):
            unit = [[int((i, j) == (a, b)) for j in range(n)] for i in range(n)]
            out.append(PolyMatrix.from_rational_rows(rat_blocks(n, ((unit, 0), (0, unit))), ()))
    return out


def first_prolongation_dim(n: int) -> int:
    """Exact dimension of the first prolongation of {diag(A, A)}.

    The prolongation is the kernel of the alternation: the maps L with
    L(e_w) e_u = L(e_u) e_w.  Its rows are the components r of
    (Alt L)(e_w, e_u) for w < u, and the nullity is computed exactly.
    """
    ncols, alt = _alternation(n)
    rows = rat_system(
        ncols, (((w, u, r) if w < u else None, col, c) for w, u, r, col, c in alt)
    )
    return ncols - rat_rank(rows)


def transpose_invariance(n: int) -> bool:
    """Is the block-diagonal algebra stable under matrix transposition?"""
    if n < 1:
        raise ValueError("n must be positive")
    return all(
        delta_gl_algebra_membership(basis_elt.transpose())
        for basis_elt in _delta_algebra_basis(n)
    )


def trace_pairing_condition(n: int) -> bool:
    """The orthogonality criterion for well-adaptedness.

    Checks that the only L in Hom(R^{2n}, g) whose alternation contracts into
    the orthogonal complement of g is L = 0.  With <A, B> = trace(A B^T), the
    matrix M_w = (u -> (Alt L)(e_w, e_u)) pairs with diag(E_ab, E_ab) to
    M_w[a][b] + M_w[n+a][n+b], so a term keys into row (w, a, b) exactly when
    its component r and its argument u lie in the same block.  The system
    shares the prolongation's alternation; the sympy oracles in the tests
    check both from their definitions.
    """
    ncols, alt = _alternation(n)
    rows = rat_system(
        ncols,
        (
            ((w, r % n, u % n) if r // n == u // n else None, col, c)
            for w, u, r, col, c in alt
        ),
    )
    return rat_rank(rows) == ncols


# ---------------------------------------------------------------------------
# Differential invariant counts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantCount:
    """The two printed counts of r-order differential invariants.

    ``general`` follows the closed formula for r >= 1 (the r = 0 count is 0
    by the zero-order statement); ``surface`` is the n = 1 specialization.
    The two are reported side by side with a consistency flag because exact
    evaluation shows they disagree for some r; no guess is made about which
    was intended.
    """

    n: int
    r: int
    general: Fraction
    surface: Fraction | None
    consistent: bool | None
    warnings: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "general": str(self.general),
            "general_is_integer": self.general.denominator == 1,
            "surface": None if self.surface is None else str(self.surface),
            "consistent": self.consistent,
            "warnings": list(self.warnings),
        }


def invariant_count(n: int, r: int) -> InvariantCount:
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    warnings: list[str] = []
    if r == 0:
        general = Fraction(0)
    else:
        binom = Fraction(math.comb(2 * n + r, r))
        general = 2 * n + binom * Fraction((3 * r - 1) * n * n - 2 * (r + 1) * n, r + 1)
    if general.denominator != 1:
        warnings.append("general count is not an integer")
    surface = None
    consistent = None
    if n == 1:
        surface = Fraction(0) if r == 0 else Fraction((r + 1) * (r - 2), 3)
        consistent = surface == general
        if not consistent:
            warnings.append(
                f"surface specialization {surface} disagrees with general formula {general} at r={r}"
            )
    return InvariantCount(n, r, general, surface, consistent, tuple(warnings))
