"""The canonical and well-adapted connections, torsion, curvature, difference tensor.

The canonical connection of a structure (F, P) is built directly from its
invariant derivation law:

    nabla_X Y = F+([F-X, F+Y] + P[F+X, P F+Y]) + F-([F+X, F-Y] + P[F-X, P F-Y])

It parallelizes F, P and J and has no torsion on mixed eigendistribution
arguments; both facts are re-checked by the test suite rather than assumed.

The well-adapted connection is constructed twice, by independent routes:

* frame-free, as canonical minus the difference tensor A (which is expressed
  through the canonical torsion alone);
* on an adapted frame, through its Christoffel symbols (a 1/3-weighted
  combination of coframe pairings of frame brackets).

The two routes must agree exactly; the acceptance suite enforces this.

Tensor tables (torsion, curvature, covariant derivatives) are computed from
the cached frame-pair table of a law by Leibniz expansion with exact
polynomial differentiation of the coefficient fields.  Tables are pure
values: recomputing them yields equal results, so lazy caching is safe under
concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

from .geometry import (
    CONSTANT_FRAME,
    POLYNOMIAL_CHART,
    BilinearField,
    ContextMismatch,
    EndoField,
    FrameContext,
    PolyMap,
    VectorField,
    directional_derivative,
    lie_bracket,
    pushforward_bilinear,
    pushforward_endo,
    pushforward_vector,
)
from .poly import MultiPoly
from .structure import BiparaStructure, StructureError, pushforward_structure

__all__ = [
    "ChristoffelTable",
    "ConnectionLaw",
    "CurvatureTensor",
    "DifferenceTensor",
    "TorsionTensor",
    "canonical_christoffels",
    "canonical_connection",
    "connection_from_table",
    "curvature",
    "endo_covariant_derivative",
    "is_parallel",
    "preserves_distributions",
    "pushforward",
    "pushforward_connection",
    "torsion",
    "trace_condition_holds",
    "well_adapted_christoffels",
    "well_adapted_connection",
    "well_adapted_routes_agree",
]


class ConnectionLaw:
    """A derivation law usable on arbitrary fields.

    ``kind`` is one of ``canonical``, ``well_adapted``, ``custom``.  The law
    is immutable; the frame-pair table is computed once from the evaluator
    and reused by every tensor computation.
    """

    def __init__(
        self,
        structure: BiparaStructure,
        kind: str,
        evaluator: Callable[[VectorField, VectorField], VectorField],
        frame_table: tuple | None = None,
    ):
        self.structure = structure
        self.kind = kind
        self._evaluator = evaluator
        if frame_table is not None:
            self.__dict__["frame_table"] = frame_table

    @property
    def context(self) -> FrameContext:
        return self.structure.context

    def nabla(self, x: VectorField, y: VectorField) -> VectorField:
        if x.context != self.context or y.context != self.context:
            raise ContextMismatch("fields do not live on the connection's context")
        return self._evaluator(x, y)

    @cached_property
    def frame_table(self) -> tuple[tuple[VectorField, ...], ...]:
        """nabla_{E_i} E_j for all frame pairs."""
        basis = self.structure.basis
        return tuple(
            tuple(self._evaluator(ei, ej) for ej in basis) for ei in basis
        )

    def nabla_of_field(self, i: int, w: VectorField) -> VectorField:
        """nabla_{E_i} W via the frame table and Leibniz expansion."""
        ctx = self.context
        table = self.frame_table
        out = [ctx.zero_poly() for _ in range(ctx.dim)]
        for m, wm in enumerate(w.components):
            if not wm.is_zero:
                if ctx.backend == POLYNOMIAL_CHART:
                    dwm = wm.derivative(ctx.variables[i])
                    if not dwm.is_zero:
                        out[m] = out[m] + dwm
                for t, comp in enumerate(table[i][m].components):
                    if not comp.is_zero:
                        out[t] = out[t] + wm * comp
        return VectorField(ctx, out)


def canonical_connection(s: BiparaStructure) -> ConnectionLaw:
    """The unique connection parallelizing F and P with T(T_F^+, T_F^-) = 0."""
    fp = s.projectors.f_plus
    fm = s.projectors.f_minus
    p = s.P

    def law(x: VectorField, y: VectorField) -> VectorField:
        xp, xm = fp.apply(x), fm.apply(x)
        yp, ym = fp.apply(y), fm.apply(y)
        plus_part = fp.apply(
            lie_bracket(xm, yp) + p.apply(lie_bracket(xp, p.apply(yp)))
        )
        minus_part = fm.apply(
            lie_bracket(xp, ym) + p.apply(lie_bracket(xm, p.apply(ym)))
        )
        return plus_part + minus_part

    return ConnectionLaw(s, "canonical", law)


# ---------------------------------------------------------------------------
# Torsion and curvature
# ---------------------------------------------------------------------------


def _contract(ctx: FrameContext, table, x: VectorField, y: VectorField) -> VectorField:
    """sum_ij x_i y_j table[i][j]: a (1,2)-tensor from its frame-pair table."""
    acc = VectorField(ctx, [ctx.zero_poly()] * ctx.dim)
    for i, xi in enumerate(x.components):
        if xi.is_zero:
            continue
        for j, yj in enumerate(y.components):
            if yj.is_zero:
                continue
            cell = table[i][j]
            if not cell.is_zero:
                acc = acc + cell.scale(xi * yj)
    return acc


class TorsionTensor:
    """T(X, Y) = nabla_X Y - nabla_Y X - [X, Y], with a cached frame table."""

    def __init__(self, law: ConnectionLaw):
        self.law = law

    @cached_property
    def table(self) -> tuple[tuple[VectorField, ...], ...]:
        ctx = self.law.context
        basis = self.law.structure.basis
        ft = self.law.frame_table
        dim = ctx.dim
        rows = []
        for i in range(dim):
            row = []
            for j in range(dim):
                if j < i:
                    row.append(-rows[j][i])
                elif j == i:
                    row.append(VectorField(ctx, [ctx.zero_poly()] * dim))
                else:
                    row.append(ft[i][j] - ft[j][i] - lie_bracket(basis[i], basis[j]))
            rows.append(row)
        return tuple(tuple(r) for r in rows)

    def evaluate(self, x: VectorField, y: VectorField) -> VectorField:
        """Tensorial contraction of the frame table against the components."""
        return _contract(self.law.context, self.table, x, y)

    @property
    def is_zero(self) -> bool:
        dim = self.law.context.dim
        return all(
            self.table[i][j].is_zero for i in range(dim) for j in range(i + 1, dim)
        )

    def first_nonzero(self):
        dim = self.law.context.dim
        for i in range(dim):
            for j in range(i + 1, dim):
                if not self.table[i][j].is_zero:
                    return (i, j, self.table[i][j])
        return None


class CurvatureTensor:
    """R(X, Y)Z from the frame table by Leibniz expansion."""

    def __init__(self, law: ConnectionLaw):
        self.law = law

    @cached_property
    def table(self) -> dict[tuple[int, int, int], VectorField]:
        ctx = self.law.context
        law = self.law
        ft = law.frame_table
        dim = ctx.dim
        out: dict[tuple[int, int, int], VectorField] = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                if ctx.backend == CONSTANT_FRAME:
                    bracket_coeffs = ctx.basis_bracket(i, j)
                else:
                    bracket_coeffs = None
                for k in range(dim):
                    value = law.nabla_of_field(i, ft[j][k]) - law.nabla_of_field(j, ft[i][k])
                    if bracket_coeffs is not None:
                        for m, c in enumerate(bracket_coeffs):
                            if c:
                                value = value - ft[m][k].scale(c)
                    out[(i, j, k)] = value
        return out

    def evaluate(self, x: VectorField, y: VectorField, z: VectorField) -> VectorField:
        ctx = self.law.context
        acc = VectorField(ctx, [ctx.zero_poly()] * ctx.dim)
        dim = ctx.dim
        for i in range(dim):
            xi = x.components[i]
            if xi.is_zero:
                continue
            for j in range(dim):
                yj = y.components[j]
                if yj.is_zero or i == j:
                    continue
                sign = 1 if i < j else -1
                key = (i, j, 0) if i < j else (j, i, 0)
                for k in range(dim):
                    zk = z.components[k]
                    if zk.is_zero:
                        continue
                    cell = self.table[(key[0], key[1], k)]
                    if not cell.is_zero:
                        acc = acc + cell.scale((xi * yj * zk).scale(sign))
        return acc

    @property
    def is_zero(self) -> bool:
        return all(v.is_zero for v in self.table.values())

    def first_nonzero(self):
        for key in sorted(self.table):
            if not self.table[key].is_zero:
                return (*key, self.table[key])
        return None


def torsion(law: ConnectionLaw) -> TorsionTensor:
    return TorsionTensor(law)


def curvature(law: ConnectionLaw) -> CurvatureTensor:
    return CurvatureTensor(law)


# ---------------------------------------------------------------------------
# Covariant derivatives of endomorphism fields
# ---------------------------------------------------------------------------


def endo_covariant_derivative(law: ConnectionLaw, e: EndoField):
    """(nabla_X e)(Y) = nabla_X(eY) - e(nabla_X Y) as a frame-pair table.

    The result is tensorial in both slots, so the table determines the
    (1,2)-tensor; an evaluator for arbitrary fields contracts it.
    """
    ctx = law.context
    if e.context != ctx:
        raise ContextMismatch("endomorphism lives in a different frame context")
    ft = law.frame_table
    dim = ctx.dim
    table = []
    for i in range(dim):
        row = []
        for j in range(dim):
            value = law.nabla_of_field(i, e.column_field(j)) - e.apply(ft[i][j])
            row.append(value)
        table.append(tuple(row))
    table = tuple(table)

    def evaluate(x: VectorField, y: VectorField) -> VectorField:
        return _contract(ctx, table, x, y)

    return table, evaluate


def is_parallel(law: ConnectionLaw, e: EndoField) -> bool:
    """True iff the covariant derivative of ``e`` vanishes identically."""
    table, _ = endo_covariant_derivative(law, e)
    return all(cell.is_zero for row in table for cell in row)


def preserves_distributions(law: ConnectionLaw, s: BiparaStructure) -> bool:
    """True iff nabla maps sections of V1, V2 and V3 back into themselves.

    The complementary projection of nabla_X (proj Y) is tensorial in both
    slots, so frame pairs decide the identity.
    """
    proj = s.projectors
    checks = (
        (proj.f_plus, proj.f_minus),
        (proj.f_minus, proj.f_plus),
        (proj.p_plus, proj.p_minus),
    )
    basis = s.basis
    dim = s.dim
    for into, complement in checks:
        for i in range(dim):
            for j in range(dim):
                projected = into.apply(basis[j])
                if projected.is_zero:
                    continue
                residue = complement.apply(law.nabla_of_field(i, projected))
                if not residue.is_zero:
                    return False
    return True


# ---------------------------------------------------------------------------
# Christoffel tables on adapted frames
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChristoffelTable:
    """Connection coefficients on an adapted frame.

    ``xx[h][a][i]`` is the X_i-coefficient of nabla_{X_h} X_a and
    ``yx[h][a][i]`` the X_i-coefficient of nabla_{Y_h} X_a.  The remaining
    blocks follow from nabla_. Y_a = P nabla_. X_a unless explicit ``xy`` /
    ``yy`` blocks are injected (used to build custom laws that do not
    parallelize P).
    """

    n: int
    xx: tuple
    yx: tuple
    xy: tuple | None = None
    yy: tuple | None = None


def _pairings(s: BiparaStructure):
    """omega_b and eta_b as row functionals of the adapted coframe."""
    rows = s.coframe
    n = s.n

    def omega(b: int, v: VectorField) -> MultiPoly:
        acc = s.context.zero_poly()
        for entry, comp in zip(rows.row(b), v.components):
            if not (entry.is_zero or comp.is_zero):
                acc = acc + entry * comp
        return acc

    def eta(b: int, v: VectorField) -> MultiPoly:
        return omega(n + b, v)

    return omega, eta


def canonical_christoffels(s: BiparaStructure) -> ChristoffelTable:
    """Adapted-frame coefficients of the canonical connection.

    Extracted purely from coframe pairings of frame brackets, independently
    of the invariant law; reconstructing the connection from this table must
    reproduce the law exactly (the uniqueness cross-check).
    """
    n = s.n
    omega, eta = _pairings(s)
    xs = [s.x_field(i) for i in range(n)]
    ys = [s.y_field(i) for i in range(n)]
    bracket_xy = [[lie_bracket(xs[h], ys[a]) for a in range(n)] for h in range(n)]
    xx = tuple(
        tuple(tuple(eta(i, bracket_xy[h][a]) for i in range(n)) for a in range(n))
        for h in range(n)
    )
    # omega_i([Y_h, X_a]) = -omega_i([X_a, Y_h])
    yx = tuple(
        tuple(tuple(-omega(i, bracket_xy[a][h]) for i in range(n)) for a in range(n))
        for h in range(n)
    )
    return ChristoffelTable(n=n, xx=xx, yx=yx)


def well_adapted_christoffels(s: BiparaStructure) -> ChristoffelTable:
    """Adapted-frame coefficients of the well-adapted connection.

    The coefficient of X_b in nabla_{X_a} X_h is
    (omega_b([X_a,X_h]) + 2 eta_b([X_a,Y_h]) + eta_b([X_h,Y_a])) / 3 and the
    coefficient of X_b in nabla_{Y_a} X_h is
    (omega_b([Y_h,X_a]) + 2 omega_b([Y_a,X_h]) + eta_b([Y_a,Y_h])) / 3; the
    other blocks follow from P-parallelism.
    """
    n = s.n
    omega, eta = _pairings(s)
    xs = [s.x_field(i) for i in range(n)]
    ys = [s.y_field(i) for i in range(n)]
    third = Fraction(1, 3)
    bracket_xx = [[lie_bracket(xs[a], xs[h]) for h in range(n)] for a in range(n)]
    bracket_xy = [[lie_bracket(xs[a], ys[h]) for h in range(n)] for a in range(n)]
    bracket_yx = [[lie_bracket(ys[a], xs[h]) for h in range(n)] for a in range(n)]
    bracket_yy = [[lie_bracket(ys[a], ys[h]) for h in range(n)] for a in range(n)]
    xx = tuple(
        tuple(
            tuple(
                (
                    omega(b, bracket_xx[a][h])
                    + eta(b, bracket_xy[a][h]).scale(2)
                    + eta(b, bracket_xy[h][a])
                ).scale(third)
                for b in range(n)
            )
            for h in range(n)
        )
        for a in range(n)
    )
    yx = tuple(
        tuple(
            tuple(
                (
                    omega(b, bracket_yx[h][a])
                    + omega(b, bracket_yx[a][h]).scale(2)
                    + eta(b, bracket_yy[a][h])
                ).scale(third)
                for b in range(n)
            )
            for h in range(n)
        )
        for a in range(n)
    )
    return ChristoffelTable(n=n, xx=xx, yx=yx)


def connection_from_table(
    s: BiparaStructure, table: ChristoffelTable, kind: str = "custom"
) -> ConnectionLaw:
    """Reconstruct a derivation law from adapted-frame coefficients."""
    n = s.n
    ctx = s.context
    xs = [s.x_field(i) for i in range(n)]
    ys = [s.y_field(i) for i in range(n)]

    def combine(coeffs) -> VectorField:
        acc = VectorField(ctx, [ctx.zero_poly()] * ctx.dim)
        for i, c in enumerate(coeffs):
            if not c.is_zero:
                acc = acc + xs[i].scale(c)
        return acc

    nab_xx = [[combine(table.xx[h][a]) for a in range(n)] for h in range(n)]
    nab_yx = [[combine(table.yx[h][a]) for a in range(n)] for h in range(n)]
    if table.xy is not None:
        nab_xy = [[combine(table.xy[h][a]) for a in range(n)] for h in range(n)]
    else:
        nab_xy = [[s.P.apply(nab_xx[h][a]) for a in range(n)] for h in range(n)]
    if table.yy is not None:
        nab_yy = [[combine(table.yy[h][a]) for a in range(n)] for h in range(n)]
    else:
        nab_yy = [[s.P.apply(nab_yx[h][a]) for a in range(n)] for h in range(n)]

    omega, eta = _pairings(s)

    def law(x: VectorField, y: VectorField) -> VectorField:
        a_coeffs = [omega(h, x) for h in range(n)]
        b_coeffs = [eta(h, x) for h in range(n)]
        c_coeffs = [omega(a, y) for a in range(n)]
        d_coeffs = [eta(a, y) for a in range(n)]
        out = VectorField(ctx, [ctx.zero_poly()] * ctx.dim)
        for a in range(n):
            dc = directional_derivative(x, c_coeffs[a])
            if not dc.is_zero:
                out = out + xs[a].scale(dc)
            dd = directional_derivative(x, d_coeffs[a])
            if not dd.is_zero:
                out = out + ys[a].scale(dd)
        for h in range(n):
            ah = a_coeffs[h]
            bh = b_coeffs[h]
            for a in range(n):
                if not ah.is_zero:
                    if not c_coeffs[a].is_zero and not nab_xx[h][a].is_zero:
                        out = out + nab_xx[h][a].scale(ah * c_coeffs[a])
                    if not d_coeffs[a].is_zero and not nab_xy[h][a].is_zero:
                        out = out + nab_xy[h][a].scale(ah * d_coeffs[a])
                if not bh.is_zero:
                    if not c_coeffs[a].is_zero and not nab_yx[h][a].is_zero:
                        out = out + nab_yx[h][a].scale(bh * c_coeffs[a])
                    if not d_coeffs[a].is_zero and not nab_yy[h][a].is_zero:
                        out = out + nab_yy[h][a].scale(bh * d_coeffs[a])
        return out

    return ConnectionLaw(s, kind, law)


# ---------------------------------------------------------------------------
# Difference tensor and the well-adapted connection
# ---------------------------------------------------------------------------


class DifferenceTensor:
    """A = nabla - nabla', expressed through the canonical torsion ``t``.

    ``t.law`` is taken as the canonical law.  ``evaluate`` contracts the
    frame table (torsion route); ``bracket_route`` is the independent
    bracket-only expansion.  Both must agree exactly, which the constructor
    checks on all frame pairs, so a torsion that changes the torsion route
    is rejected there.
    """

    def __init__(self, t: TorsionTensor):
        self.canonical = t.law
        self.structure = t.law.structure
        self._torsion = t
        mismatch = self._first_route_mismatch()
        if mismatch is not None:
            raise StructureError(
                [{"name": "difference-tensor routes disagree", "witness": mismatch}]
            )

    def torsion_route(self, x: VectorField, y: VectorField) -> VectorField:
        s = self.structure
        fp, fm = s.projectors.f_plus, s.projectors.f_minus
        p = s.P
        t = self._torsion.evaluate
        xp, xm = fp.apply(x), fm.apply(x)
        yp, ym = fp.apply(y), fm.apply(y)
        total = (
            fp.apply(t(xp, yp))
            + p.apply(fp.apply(t(xp, p.apply(ym))))
            + p.apply(fm.apply(t(xm, p.apply(yp))))
            + fm.apply(t(xm, ym))
        )
        return total.scale(Fraction(1, 3))

    def bracket_route(self, x: VectorField, y: VectorField) -> VectorField:
        """Bracket-only expansion, assembled from the four block identities."""
        s = self.structure
        fp, fm = s.projectors.f_plus, s.projectors.f_minus
        p = s.P
        xp, xm = fp.apply(x), fm.apply(x)
        yp, ym = fp.apply(y), fm.apply(y)
        pxp, pxm = p.apply(xp), p.apply(xm)
        pyp, pym = p.apply(yp), p.apply(ym)
        br = lie_bracket
        total = (
            p.apply(fm.apply(br(xp, pyp)))
            - fp.apply(br(xp, yp))
            + p.apply(fm.apply(br(pxp, yp)))
            + fm.apply(br(xp, ym))
            - p.apply(fp.apply(br(xp, pym)))
            + fm.apply(br(pxp, pym))
            + fp.apply(br(xm, yp))
            + fp.apply(br(pxm, pyp))
            - p.apply(fm.apply(br(xm, pyp)))
            + p.apply(fp.apply(br(xm, pym)))
            + p.apply(fp.apply(br(pxm, ym)))
            - fm.apply(br(xm, ym))
        )
        return total.scale(Fraction(1, 3))

    @cached_property
    def table(self) -> tuple[tuple[VectorField, ...], ...]:
        basis = self.structure.basis
        return tuple(
            tuple(self.torsion_route(ei, ej) for ej in basis) for ei in basis
        )

    def _first_route_mismatch(self):
        basis = self.structure.basis
        for i, ei in enumerate(basis):
            for j, ej in enumerate(basis):
                if self.table[i][j] != self.bracket_route(ei, ej):
                    return {"pair": (i, j)}
        return None

    def evaluate(self, x: VectorField, y: VectorField) -> VectorField:
        return _contract(self.structure.context, self.table, x, y)

    @property
    def is_zero(self) -> bool:
        return all(cell.is_zero for row in self.table for cell in row)


def well_adapted_connection(diff: DifferenceTensor) -> ConnectionLaw:
    """Frame-free construction: canonical law minus the difference tensor."""
    s = diff.structure
    canon = diff.canonical

    def law(x: VectorField, y: VectorField) -> VectorField:
        return canon.nabla(x, y) - diff.evaluate(x, y)

    table = tuple(
        tuple(canon.frame_table[i][j] - diff.table[i][j] for j in range(s.dim))
        for i in range(s.dim)
    )
    return ConnectionLaw(s, "well_adapted", law, frame_table=table)


def well_adapted_routes_agree(frame_free: ConnectionLaw, christoffels: ChristoffelTable) -> bool:
    """Cross-validate the two well-adapted constructions on frame pairs."""
    s = frame_free.structure
    via_table = connection_from_table(s, christoffels, kind="well_adapted")
    basis = s.basis
    for i, ei in enumerate(basis):
        for j, ej in enumerate(basis):
            if frame_free.frame_table[i][j] != via_table.nabla(ei, ej):
                return False
    return True


def trace_condition_holds(t: TorsionTensor) -> bool:
    """The well-adaptedness criterion on an adapted frame, checked exactly.

    ``t`` is the torsion T' of the law being checked.  For all a, b, h:
    omega_b(T'(X_h, X_a)) + eta_b(T'(X_h, Y_a)) = 0  and
    omega_b(T'(Y_h, X_a)) + eta_b(T'(Y_h, Y_a)) = 0.
    """
    s = t.law.structure
    n = s.n
    omega, eta = _pairings(s)
    xs = [s.x_field(i) for i in range(n)]
    ys = [s.y_field(i) for i in range(n)]
    for h in range(n):
        for a in range(n):
            t_xx = t.evaluate(xs[h], xs[a])
            t_xy = t.evaluate(xs[h], ys[a])
            t_yx = t.evaluate(ys[h], xs[a])
            t_yy = t.evaluate(ys[h], ys[a])
            for b in range(n):
                if not (omega(b, t_xx) + eta(b, t_xy)).is_zero:
                    return False
                if not (omega(b, t_yx) + eta(b, t_yy)).is_zero:
                    return False
    return True


# ---------------------------------------------------------------------------
# Pushforward of connections
# ---------------------------------------------------------------------------


def pushforward_connection(
    m: PolyMap, law: ConnectionLaw, target_structure: BiparaStructure | None = None
) -> ConnectionLaw:
    """Direct image law: nabla'_{X'} Y' = m . (nabla_{m^-1 . X'} m^-1 . Y')."""
    if law.context != m.source:
        raise ContextMismatch("connection does not live on the map source")
    back = m.inverted()
    structure = (
        target_structure
        if target_structure is not None
        else pushforward_structure(m, law.structure)
    )

    def pushed(x: VectorField, y: VectorField) -> VectorField:
        pulled = law.nabla(pushforward_vector(back, x), pushforward_vector(back, y))
        return pushforward_vector(m, pulled)

    return ConnectionLaw(structure, law.kind, pushed)


def pushforward(m: PolyMap, obj):
    """Transport a vector, endomorphism, bilinear field or connection along m."""
    if isinstance(obj, VectorField):
        return pushforward_vector(m, obj)
    if isinstance(obj, EndoField):
        return pushforward_endo(m, obj)
    if isinstance(obj, BilinearField):
        return pushforward_bilinear(m, obj)
    if isinstance(obj, ConnectionLaw):
        return pushforward_connection(m, obj)
    raise TypeError(f"cannot push forward {type(obj).__name__}")
