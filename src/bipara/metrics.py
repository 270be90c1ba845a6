"""Metrics adapted to a biparacomplex structure.

Sign classification (does the metric see F and P as isometries or
anti-isometries), signatures at a base point, the canonical orthogonalizing
metric G(X, Y) = H(X, Y) + H(FX, FY), the special-metric predicates
(hypersymplectic, paraquaternionic-Hermitian, Norden, Riemannian product,
parallel-with-skew-torsion), and the bi-Lagrangian assembly.

Every metric identity is an exact polynomial matrix equation; only the
signature is pointwise, evaluated at rational points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .connections import ConnectionLaw, is_parallel, torsion
from .diagnostics import InconsistencyError, Verdict
from .geometry import BilinearField, ContextMismatch, EndoField
from .linalg import PolyMatrix, rat_inverse, rat_matmul, rat_nullspace, rat_rank, rat_signature, rat_system
from .structure import BiparaStructure

__all__ = [
    "MetricClass",
    "MetricError",
    "bi_lagrangian_assembly",
    "build_orthogonal_metric",
    "classify_metric",
    "is_positive_definite_at",
    "metric_covariant_derivative_is_zero",
    "solve_hypersymplectic_metric",
    "special_metric_predicates",
]


class MetricError(ValueError):
    """Degenerate, non-symmetric or otherwise unusable metric input."""


@dataclass(frozen=True)
class MetricClass:
    """Signs (+1, -1 or None) for F, P and the derived J, plus a signature."""

    eps1: int | None
    eps2: int | None
    eps_j: int | None
    signature: tuple[int, int, int]

    def to_json(self) -> dict:
        def sign(v):
            return None if v is None else ("+" if v > 0 else "-")

        return {
            "eps1": sign(self.eps1),
            "eps2": sign(self.eps2),
            "epsJ": sign(self.eps_j),
            "signature": list(self.signature),
        }


def _pullback_sign(g: BilinearField, e: EndoField) -> int | None:
    """+1 / -1 if g(e., e.) = +-g exactly, else None."""
    pulled = e.matrix.transpose() @ g.matrix @ e.matrix
    if pulled == g.matrix:
        return 1
    if (pulled + g.matrix).is_zero:
        return -1
    return None


def is_positive_definite_at(g: BilinearField) -> bool:
    """True iff the symmetric field ``g`` is positive definite at the base point."""
    pos, neg, zero = rat_signature(g.matrix.constant_parts())
    return neg == 0 and zero == 0


def classify_metric(s: BiparaStructure, g: BilinearField) -> MetricClass:
    """Exact sign classification plus the signature at the base point."""
    if g.context != s.context:
        raise ContextMismatch("metric lives in a different frame context")
    if not g.is_symmetric:
        raise MetricError("metric is not symmetric")
    rows = g.matrix.constant_parts()
    if rat_rank(rows) != s.dim:
        raise MetricError("metric is degenerate at the base point")
    eps1 = _pullback_sign(g, s.F)
    eps2 = _pullback_sign(g, s.P)
    eps_j = _pullback_sign(g, s.J)
    if eps1 is not None and eps2 is not None:
        if eps_j != eps1 * eps2:  # pragma: no cover - algebraic identity
            raise InconsistencyError("J-sign does not match the product of the F/P signs")
    signature = rat_signature(rows)
    if (eps1 == -1 or eps2 == -1) and signature[0] != signature[1]:
        # an anti-isometry forces a balanced signature
        raise InconsistencyError("anti-isometry present but signature is unbalanced")
    return MetricClass(eps1, eps2, eps_j, signature)


def _orthogonal_metric(f: EndoField, h: BilinearField) -> BilinearField:
    """G = H + H(F., F.) for a symmetric H that is positive definite at the base point."""
    if not h.is_symmetric:
        raise MetricError("H is not symmetric")
    if not is_positive_definite_at(h):
        raise MetricError("H is not positive definite at the base point")
    return BilinearField(h.context, h.matrix + (f.matrix.transpose() @ h.matrix @ f.matrix))


def build_orthogonal_metric(s: BiparaStructure, h: BilinearField) -> BilinearField:
    """G = H + H(F., F.); makes the two F-eigendistributions G-orthogonal."""
    if h.context != s.context:
        raise ContextMismatch("metric lives in a different frame context")
    out = _orthogonal_metric(s.F, h)
    cross = (
        s.projectors.f_plus.matrix.transpose() @ out.matrix @ s.projectors.f_minus.matrix
    )
    if not cross.is_zero:  # pragma: no cover - construction guarantees this
        raise InconsistencyError("orthogonalized metric keeps a cross block")
    return out


def metric_covariant_derivative_is_zero(law: ConnectionLaw, g: BilinearField) -> bool:
    """(nabla_X g)(Y, Z) = X g(Y,Z) - g(nabla_X Y, Z) - g(Y, nabla_X Z) on frames."""
    ctx = law.context
    if g.context != ctx:
        raise ContextMismatch("metric lives in a different frame context")
    table = law.frame_table
    basis = law.structure.basis
    dim = range(ctx.dim)
    residues = (
        ctx.frame_derivative(i, g.matrix.get(j, k))
        - g.value(table[i][j], basis[k])
        - g.value(basis[j], table[i][k])
        for i in dim
        for j in dim
        for k in dim
    )
    return all(r.is_zero for r in residues)


def _lowered_torsion_totally_skew(law: ConnectionLaw, g: BilinearField) -> bool:
    t = torsion(law).table
    basis = law.structure.basis
    dim = law.context.dim
    # antisymmetry in the first two slots is automatic; together with
    # g(T(X,Y),Z) = -g(T(X,Z),Y) it generates total skewness
    residues = (
        g.value(t[i][j], basis[k]) + g.value(t[i][k], basis[j])
        for i in range(dim)
        for j in range(dim)
        for k in range(j + 1, dim)
    )
    return all(r.is_zero for r in residues)


def special_metric_predicates(
    s: BiparaStructure, g: BilinearField, law: ConnectionLaw
) -> dict[str, Verdict]:
    """Exact predicates for the named metric classes.

    The parallel-torsion predicate is evaluated against the connection
    ``law``; no existence search is performed.
    """
    if not g.is_symmetric:
        raise MetricError("metric is not symmetric")
    eps1, eps2, eps_j = (_pullback_sign(g, e) for e in (s.F, s.P, s.J))

    # hypersymplectic / neutral-hyperkaehler: dim = 4m, g(J.,J.) = g,
    # g(F.,F.) = -g, neutral signature
    if s.dim % 4 != 0:
        hypersymplectic = False
        hyper_reason = f"dimension {s.dim} is not divisible by 4"
    else:
        hypersymplectic = eps_j == 1 and eps1 == -1
        hyper_reason = f"g(J.,J.)=g: {eps_j == 1}, g(F.,F.)=-g: {eps1 == -1}"
        neutral = (s.dim // 2, s.dim // 2, 0)
        if hypersymplectic and rat_signature(g.matrix.constant_parts()) != neutral:  # pragma: no cover
            raise InconsistencyError("hypersymplectic identities with non-neutral signature")
    failed = [
        name
        for name, holds in (
            ("nabla g != 0", metric_covariant_derivative_is_zero(law, g)),
            ("nabla F != 0", is_parallel(law, s.F)),
            ("nabla P != 0", is_parallel(law, s.P)),
            ("nabla J != 0", is_parallel(law, s.J)),
            ("lowered torsion is not totally skew", _lowered_torsion_totally_skew(law, g)),
        )
        if not holds
    ]
    checks = (
        ("hypersymplectic", hypersymplectic, {"reason": hyper_reason}),
        (
            "paraquaternionic_hermitian",
            eps1 == -1 and eps2 == -1,
            {"reason": f"(eps1, eps2) = ({eps1}, {eps2}), need (-, -)"},
        ),
        ("norden", eps_j == -1, {"reason": "g(J., J.) != -g"}),
        (
            "riemannian_product",
            eps1 == 1 and is_positive_definite_at(g),
            {"reason": "needs eps1 = + and positive definiteness"},
        ),
        ("parallel_skew_torsion", not failed, {"failed": failed}),
    )
    return {name: Verdict.of(name, holds, witness) for name, holds, witness in checks}


def solve_hypersymplectic_metric(s: BiparaStructure) -> BilinearField | None:
    """A nonzero symmetric solution of {g(J.,J.) = g, g(F.,F.) = -g}, if any.

    Constant-coefficient structures only: the constraints become an exact
    rational linear system on the symmetric matrix entries.  Returns a
    nondegenerate solution when one exists in the solution space spanned by
    the nullspace basis (basis vectors are tried first, then their sums).
    """
    if not (s.F.matrix.is_constant and s.P.matrix.is_constant):
        raise MetricError("hypersymplectic solve needs constant F and P")
    dim = s.dim
    f_rows = s.F.matrix.constant_rows()
    j_rows = s.J.matrix.constant_rows()
    unknowns = [(i, j) for i in range(dim) for j in range(i, dim)]
    index = {pair: t for t, pair in enumerate(unknowns)}

    def terms():
        # A^T g A - sign * g = 0 entrywise, for (A, sign) = (J, 1) and (F, -1)
        for name, a, sign in (("J", j_rows, 1), ("F", f_rows, -1)):
            for r, c in unknowns:
                key = (name, r, c)
                yield key, index[r, c], -sign
                for i in range(dim):
                    for j in range(dim):
                        yield key, index[min(i, j), max(i, j)], a[i][r] * a[j][c]

    system = rat_system(len(unknowns), terms())
    basis = rat_nullspace(system, len(unknowns))
    if not basis:
        return None

    def to_field(vec) -> BilinearField:
        rows = [[Fraction(0)] * dim for _ in range(dim)]
        for (i, j), t in index.items():
            rows[i][j] = vec[t]
            rows[j][i] = vec[t]
        return BilinearField(
            s.context, PolyMatrix.from_rational_rows(rows, s.context.variables)
        )

    candidates = [list(v) for v in basis]
    candidates.append([sum(col) for col in zip(*basis)])
    for vec in candidates:
        field = to_field(vec)
        if rat_rank(field.matrix.constant_parts()) == dim:
            return field
    return None


# ---------------------------------------------------------------------------
# Bi-Lagrangian assembly
# ---------------------------------------------------------------------------


def _rational_sqrt(value: Fraction) -> Fraction | None:
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    root_num = math.isqrt(num)
    root_den = math.isqrt(den)
    if root_num * root_num == num and root_den * root_den == den:
        return Fraction(root_num, root_den)
    return None


def bi_lagrangian_assembly(
    omega: BilinearField, f: EndoField, h: BilinearField
) -> tuple[BilinearField, EndoField, EndoField, dict[str, Verdict]]:
    """From a symplectic form with Lagrangian eigendistributions of an
    involution F, build the orthogonal metric G, the compatible complex
    structure J and P = J o F, then check the five advertised properties
    exactly.

    J is solved from omega(X, Y) = G(JX, Y) by an exact linear solve and then
    rescaled by the rational square root that makes J^2 = -Id; inputs whose
    compatibility defect is not a rational square are rejected (the scaling
    would leave the rational field).
    """
    ctx = omega.context
    if f.context != ctx or h.context != ctx:
        raise ContextMismatch("assembly inputs live in different frame contexts")
    for field_obj in (omega, h, f):
        if not field_obj.matrix.is_constant:
            raise MetricError("bi-Lagrangian assembly needs constant inputs")
    if f.matrix @ f.matrix != PolyMatrix.identity(ctx.dim, ctx.variables):
        raise MetricError("F is not an involution: F^2 != Id")
    if not omega.is_antisymmetric:
        raise MetricError("omega is not antisymmetric")
    omega_rows = omega.matrix.constant_rows()
    if rat_rank(omega_rows) != ctx.dim:
        raise MetricError("omega is degenerate")
    if _pullback_sign(omega, f) != -1:
        raise MetricError("F-eigendistributions are not omega-Lagrangian")

    # G orthogonalizes the eigendistributions regardless of H's cross terms.
    big_g = _orthogonal_metric(f, h)

    g_rows = big_g.matrix.constant_rows()
    j0 = rat_matmul(rat_inverse(g_rows), omega_rows)
    j0 = [[-v for v in row] for row in j0]
    square = rat_matmul(j0, j0)
    scalar = square[0][0]
    for i in range(ctx.dim):
        for j in range(ctx.dim):
            expected = scalar if i == j else Fraction(0)
            if square[i][j] != expected:
                raise MetricError(
                    "associated complex structure is not a scalar multiple of one: "
                    "J0^2 is not scalar"
                )
    root = _rational_sqrt(-scalar)
    if root is None or root == 0:
        raise MetricError(
            "associated complex structure needs an irrational rescaling; "
            "not representable over the rationals"
        )
    j_rows = [[v / root for v in row] for row in j0]
    j_endo = EndoField(ctx, PolyMatrix.from_rational_rows(j_rows, ctx.variables))
    p_endo = EndoField(ctx, j_endo.matrix @ f.matrix)

    # Given omega(F., F.) = -omega, F^T omega is symmetric exactly when
    # F^2 = Id, which is checked above.  Then F preserves G and anticommutes
    # with J, so (F, J o F) is a valid structure and ``validate`` cannot fail
    # here.
    g_para = BilinearField(ctx, f.matrix.transpose() @ omega.matrix)
    if not g_para.is_symmetric:
        raise InconsistencyError("associated para-Kaehler metric is not symmetric")
    structure = BiparaStructure.validate(f, p_endo)
    para = classify_metric(structure, g_para)
    riem = classify_metric(structure, big_g)
    g_positive = is_positive_definite_at(big_g)
    checks = (
        ("structure_valid", True, None),
        # structure.J = F o P = -J, with the same pullback sign
        ("norden_pair", para.eps_j == -1, {"reason": "g(J., J.) != -g"}),
        (
            "riemannian_product_pair",
            riem.eps1 == 1 and g_positive,
            {"reason": "G is not an F-invariant Riemannian metric"},
        ),
        ("para_metric_minus_plus", (para.eps1, para.eps2) == (-1, 1), {"classified": para.to_json()}),
        (
            "riemannian_metric_plus_plus",
            (riem.eps1, riem.eps2) == (1, 1) and g_positive,
            {"classified": riem.to_json()},
        ),
    )
    verdicts = {name: Verdict.of(name, holds, witness) for name, holds, witness in checks}
    return big_g, j_endo, p_endo, verdicts
