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
convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .connections import (
    CurvatureTensor,
    TorsionTensor,
    canonical_connection,
    pushforward_connection,
    torsion,
)
from .geometry import (
    ContextMismatch,
    EndoField,
    PolyMap,
    VectorField,
    lie_bracket,
    pushforward_endo,
)
from .linalg import PolyMatrix, rat_rank
from .structure import (
    BiparaStructure,
    StructureError,
    delta_gl_algebra_membership,
)

__all__ = [
    "InconsistencyError",
    "InvariantCount",
    "Verdict",
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
    "pair_values",
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


def nijenhuis(e: EndoField) -> Callable[[VectorField, VectorField], VectorField]:
    """The Nijenhuis evaluator of a (1,1)-tensor field."""
    e2 = e.compose(e)

    def evaluate(x: VectorField, y: VectorField) -> VectorField:
        ex, ey = e.apply(x), e.apply(y)
        return (
            lie_bracket(ex, ey)
            - e.apply(lie_bracket(ex, y))
            - e.apply(lie_bracket(x, ey))
            + e2.apply(lie_bracket(x, y))
        )

    return evaluate


def pair_values(evaluate, basis):
    """Yield ((i, j), evaluate(E_i, E_j)) over frame pairs i < j, lazily."""
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            yield (i, j), evaluate(basis[i], basis[j])


def _all_zero(pairs) -> bool:
    return all(value.is_zero for _, value in pairs)


def fn_bracket(s: BiparaStructure) -> Callable[[VectorField, VectorField], VectorField]:
    """The [F, P] concomitant, in its anticommutation-reduced form."""
    f, p = s.F, s.P

    def evaluate(x: VectorField, y: VectorField) -> VectorField:
        fx, px = f.apply(x), p.apply(x)
        fy, py = f.apply(y), p.apply(y)
        return (
            lie_bracket(fx, py)
            + lie_bracket(px, fy)
            - f.apply(lie_bracket(px, y))
            - f.apply(lie_bracket(x, py))
            - p.apply(lie_bracket(fx, y))
            - p.apply(lie_bracket(x, fy))
        )

    return evaluate


def fp_torsion_identities(s: BiparaStructure) -> tuple[Verdict, Verdict, Verdict]:
    """Check the three [F, P]-vs-torsion identities on projected frame pairs.

    Both sides come from independent code paths: the concomitant is expanded
    bracket by bracket, the torsion side contracts the canonical torsion
    table.
    """
    fp_eval = fn_bracket(s)
    t = torsion(canonical_connection(s))
    proj = s.projectors
    basis = s.basis
    two = Fraction(2)

    def check(name, left_args, rhs) -> Verdict:
        for i in range(s.dim):
            for j in range(s.dim):
                x, y = left_args(basis[i], basis[j])
                if x.is_zero or y.is_zero:
                    continue
                lhs = fp_eval(x, y)
                if lhs != rhs(x, y):
                    return Verdict(name, False, _field_witness((i, j), lhs))
        return Verdict(name, True)

    plus = check(
        "fp_bracket_equals_2PT_on_plus",
        lambda a, b: (proj.f_plus.apply(a), proj.f_plus.apply(b)),
        lambda x, y: s.P.apply(t.evaluate(x, y)).scale(two),
    )
    minus = check(
        "fp_bracket_equals_minus_2PT_on_minus",
        lambda a, b: (proj.f_minus.apply(a), proj.f_minus.apply(b)),
        lambda x, y: s.P.apply(t.evaluate(x, y)).scale(-two),
    )
    mixed = check(
        "fp_bracket_mixed_identity",
        lambda a, b: (proj.f_plus.apply(a), proj.f_minus.apply(b)),
        lambda x, y: (
            proj.f_minus.apply(lie_bracket(x, s.P.apply(y)))
            - proj.f_plus.apply(lie_bracket(s.P.apply(x), y))
        ).scale(two),
    )
    return plus, minus, mixed


def involutivity_flags(s: BiparaStructure) -> dict[str, bool]:
    """Direct involutivity of the four eigendistributions (spanning-set check)."""
    proj = s.projectors
    basis = s.basis
    out = {}
    for name, into, complement in (
        ("T_F_plus", proj.f_plus, proj.f_minus),
        ("T_F_minus", proj.f_minus, proj.f_plus),
        ("T_P_plus", proj.p_plus, proj.p_minus),
        ("T_P_minus", proj.p_minus, proj.p_plus),
    ):
        ok = True
        spans = [into.apply(b) for b in basis]
        for i in range(s.dim):
            if not ok:
                break
            for j in range(i + 1, s.dim):
                if spans[i].is_zero or spans[j].is_zero:
                    continue
                if not complement.apply(lie_bracket(spans[i], spans[j])).is_zero:
                    ok = False
                    break
        out[name] = ok
    return out


# ---------------------------------------------------------------------------
# Integrability and flatness
# ---------------------------------------------------------------------------


def integrability_verdict(
    s: BiparaStructure, concomitants: tuple, t: TorsionTensor
) -> Verdict:
    """Evaluate the three equivalent integrability conditions independently.

    ``concomitants`` gives the N_F, N_P and [F, P] values as ``pair_values``
    yields them, built already or lazily; a lazy one is evaluated up to its
    first nonzero pair.  ``t`` is the canonical torsion, and the witness of a
    failing verdict: the consistency check leaves no other.
    """
    nf_pairs, np_pairs, fp_pairs = concomitants
    cond_nijenhuis = _all_zero(nf_pairs) and _all_zero(np_pairs)

    flags = involutivity_flags(s)
    cond_involutive = all(flags.values())
    if cond_involutive != cond_nijenhuis:
        raise InconsistencyError(
            f"Nijenhuis convention disagrees with direct involutivity: {flags}"
        )

    fp_zero = _all_zero(fp_pairs)
    torsion_zero = t.is_zero
    if not (cond_nijenhuis == fp_zero == torsion_zero):
        raise InconsistencyError(
            "equivalent integrability conditions disagree: "
            f"nijenhuis={cond_nijenhuis}, fp_bracket={fp_zero}, torsion_free={torsion_zero}"
        )
    if cond_nijenhuis:
        return Verdict("integrable", True)
    i, j, value = t.first_nonzero()
    return Verdict("integrable", False, {"tensor": "torsion", **_field_witness((i, j), value)})


def flatness_verdict(t: TorsionTensor, r: CurvatureTensor) -> Verdict:
    """Locally flat iff the canonical torsion ``t`` and curvature ``r`` both vanish."""
    if t.is_zero and r.is_zero:
        return Verdict("flat", True)
    if not t.is_zero:
        i, j, value = t.first_nonzero()
        witness = {"tensor": "torsion", **_field_witness((i, j), value)}
    else:
        i, j, k, value = r.first_nonzero()
        witness = {"tensor": "curvature", **_field_witness((i, j, k), value)}
    return Verdict("flat", False, witness)


# ---------------------------------------------------------------------------
# Structure equivalence and the adjoint-bundle commutant
# ---------------------------------------------------------------------------


def equivalence_check(sa: BiparaStructure, sb: BiparaStructure, m: PolyMap) -> Verdict:
    """Is m an equivalence carrying (F_A, P_A) to (F_B, P_B)?

    On success the canonical connections are asserted to correspond under m
    as well; their failure to do so would falsify functoriality.
    """
    if sa.context != m.source or sb.context != m.target:
        raise ContextMismatch("map endpoints do not match the structures")
    pushed_f = pushforward_endo(m, sa.F)
    pushed_p = pushforward_endo(m, sa.P)
    if pushed_f != sb.F or pushed_p != sb.P:
        diff = (pushed_f.matrix - sb.F.matrix) if pushed_f != sb.F else (pushed_p.matrix - sb.P.matrix)
        name = "F" if pushed_f != sb.F else "P"
        entry = next(
            {"row": i, "col": j, "value": str(diff.get(i, j))}
            for i in range(diff.rows)
            for j in range(diff.cols)
            if not diff.get(i, j).is_zero
        )
        return Verdict("equivalent", False, {"tensor": name, **entry})
    pushed_law = pushforward_connection(m, canonical_connection(sa), target_structure=sb)
    target_law = canonical_connection(sb)
    for i in range(sb.dim):
        for j in range(sb.dim):
            if pushed_law.frame_table[i][j] != target_law.frame_table[i][j]:
                raise InconsistencyError(
                    "structures correspond but their canonical connections do not"
                )
    return Verdict("equivalent", True)


def commutant_check(s: BiparaStructure, endo: EndoField) -> Verdict:
    """Adjoint-algebra membership, verified through both characterizations.

    An endomorphism commutes with F and P iff its matrix in the adapted frame
    is diag(A, A); the two tests are run independently and must agree.
    """
    if s.adapted_frame is None:
        raise StructureError([{"name": "missing adapted frame", "witness": None}])
    if endo.context != s.context:
        raise ContextMismatch("endomorphism lives in a different frame context")
    commutes_f = (endo.matrix @ s.F.matrix - s.F.matrix @ endo.matrix).is_zero
    commutes_p = (endo.matrix @ s.P.matrix - s.P.matrix @ endo.matrix).is_zero
    commutes = commutes_f and commutes_p

    in_frame = s.coframe @ endo.matrix @ s.adapted_frame
    if not in_frame.is_constant:
        raise StructureError(
            [{"name": "endomorphism is not constant in the adapted frame", "witness": None}]
        )
    block_form = delta_gl_algebra_membership(in_frame)
    if commutes != block_form:
        raise InconsistencyError(
            f"commutation ({commutes}) and adapted block form ({block_form}) disagree"
        )
    if commutes:
        return Verdict("adjoint_algebra_member", True)
    reason = "F" if not commutes_f else "P"
    return Verdict(
        "adjoint_algebra_member", False, {"fails_to_commute_with": reason}
    )


# ---------------------------------------------------------------------------
# Prolongation of the block-diagonal algebra
# ---------------------------------------------------------------------------


def _delta_algebra_basis(n: int) -> list[PolyMatrix]:
    out = []
    for i in range(n):
        for j in range(n):
            rows = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
            rows[i][j] = Fraction(1)
            rows[n + i][n + j] = Fraction(1)
            out.append(PolyMatrix.from_rational_rows(rows, ()))
    return out


def first_prolongation_dim(n: int) -> int:
    """Exact dimension of the first prolongation of {diag(A, A)}.

    Unknowns are linear maps T from R^{2n} into the algebra; the symmetric
    constraint T(u)v = T(v)u on basis pairs gives a rational linear system
    whose nullity is computed exactly.
    """
    if n < 1:
        raise ValueError("n must be positive")
    dim = 2 * n
    # unknown t[k][i][j]: T(e_k) = diag(A_k, A_k) with (A_k)_{ij} = t[k][i][j]
    ncols = dim * n * n

    def unknown(k, i, j):
        return k * n * n + i * n + j

    rows: list[list[Fraction]] = []
    for k in range(dim):
        for l in range(k + 1, dim):
            # T(e_k) e_l - T(e_l) e_k = 0, componentwise in R^{2n}
            for out_row in range(dim):
                row = [Fraction(0)] * ncols
                half_l, idx_l = divmod(l, n)
                half_k, idx_k = divmod(k, n)
                if out_row < n:
                    if half_l == 0:
                        row[unknown(k, out_row, idx_l)] += 1
                    if half_k == 0:
                        row[unknown(l, out_row, idx_k)] -= 1
                else:
                    if half_l == 1:
                        row[unknown(k, out_row - n, idx_l)] += 1
                    if half_k == 1:
                        row[unknown(l, out_row - n, idx_k)] -= 1
                if any(row):
                    rows.append(row)
    if not rows:
        return ncols
    return ncols - rat_rank(rows)


def transpose_invariance(n: int) -> bool:
    """Is the block-diagonal algebra stable under matrix transposition?"""
    return all(
        delta_gl_algebra_membership(basis_elt.transpose())
        for basis_elt in _delta_algebra_basis(n)
    )


def trace_pairing_condition(n: int, form: Callable[[PolyMatrix, PolyMatrix], Fraction] | None = None) -> bool:
    """The pluggable orthogonality criterion for well-adaptedness.

    Checks that the only L in Hom(R^{2n}, g) whose alternation contracts into
    the orthogonal complement of g (w.r.t. ``form``, default <A, B> =
    trace(A B^T)) is L = 0.  The prolongation route is the authoritative
    sufficiency check; this one is kept because the pairing normalization is
    a free choice.
    """
    if form is None:
        def form(a: PolyMatrix, b: PolyMatrix) -> Fraction:
            return (a @ b.transpose()).trace().constant_value()

    dim = 2 * n
    algebra = _delta_algebra_basis(n)
    ncols = dim * n * n

    def diag_unit(a: int, b: int) -> list[list[Fraction]]:
        rows = [[Fraction(0)] * dim for _ in range(dim)]
        rows[a][b] = Fraction(1)
        rows[n + a][n + b] = Fraction(1)
        return rows

    # For unknown t[k][a][b] (so L(e_k) = t * diag(E_ab, E_ab)), the matrix
    # u -> L(e_w) e_u - L(e_u) e_w picks up diag(E_ab, E_ab) when k = w and
    # minus its w-th column placed in column k.
    rows_out: list[list[Fraction]] = []
    for w in range(dim):
        for s_mat in algebra:
            row = [Fraction(0)] * ncols
            for k in range(dim):
                for a in range(n):
                    for b in range(n):
                        unit = diag_unit(a, b)
                        contrib = [r[:] for r in unit] if k == w else [
                            [Fraction(0)] * dim for _ in range(dim)
                        ]
                        for r in range(dim):
                            contrib[r][k] -= unit[r][w]
                        if any(any(r) for r in contrib):
                            value = form(
                                PolyMatrix.from_rational_rows(contrib, ()), s_mat
                            )
                            if value:
                                row[k * n * n + a * n + b] += value
            if any(row):
                rows_out.append(row)
    if not rows_out:
        return ncols == 0
    return ncols - rat_rank(rows_out) == 0


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
