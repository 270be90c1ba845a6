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

Every law is two steps, ``nabla(X, Y) = combine(prepare(X), prepare(Y))``:
``prepare`` is the work on one argument and ``combine`` the work on a pair.
A frame table prepares each basis field once and combines the prepared
basis pairwise, so no per-argument work is repeated per pair:

* the canonical law prepares a field by splitting it,
  (F+X, F-X, P F+X, P F-X) (``BiparaStructure.split``); its prepared basis
  is the cached ``BiparaStructure.frame_split``, which the two routes of the
  difference tensor read as well;
* a law rebuilt from a Christoffel table prepares X as (X, coframe . X);
* a pushed law prepares X as the inner law does after pulling X back
  through the inverse map, and pushes each combined value forward.

Torsion, curvature, difference tensor, covariant derivatives of endomorphism
fields and the N_F, N_P, [F, P] concomitants are each a ``PairTensor``: cells on
frame indices, each computed once and kept, when ``cells()`` reaches it.  The
difference tensor reaches every cell in its constructor, to check its two
routes; a law's ``cells()`` walks its whole cached frame table.  Curvature and
covariant derivatives use Leibniz expansion over a law's cached frame table.
Cells and tables are pure values, so caching them is safe under concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Any, Callable

from .geometry import (
    ContextMismatch,
    EndoField,
    FrameContext,
    PolyMap,
    VectorField,
    _require_same_context,
    directional_derivative,
    first_nonzero,
    lie_bracket,
    pushforward_vector,
)
from .structure import BiparaStructure, StructureError

__all__ = [
    "ChristoffelTable",
    "ConnectionLaw",
    "CurvatureTensor",
    "DifferenceTensor",
    "PairTensor",
    "TorsionTensor",
    "canonical_christoffels",
    "canonical_connection",
    "connection_from_table",
    "curvature",
    "endo_covariant_derivative",
    "is_parallel",
    "pair_cell",
    "preserves_distributions",
    "pushforward_connection",
    "torsion",
    "trace_condition_holds",
    "well_adapted_christoffels",
    "well_adapted_connection",
    "well_adapted_routes_agree",
]


class ConnectionLaw:
    """A derivation law usable on arbitrary fields.

    ``kind`` is one of ``canonical``, ``well-adapted``, ``custom``.  The law
    is ``nabla(X, Y) = combine(prepare(X), prepare(Y))``; ``prepare`` holds
    the work on one argument and defaults to passing the field through, so a
    plain two-argument evaluator is a law as it stands.  The law is
    immutable; the frame-pair table is built once, on first read, from the
    prepared basis (each basis field prepared once) and reused by every
    tensor computation.
    """

    def __init__(
        self,
        structure: BiparaStructure,
        kind: str,
        combine: Callable[[Any, Any], VectorField],
        prepare: Callable[[VectorField], Any] = lambda field: field,
    ):
        self.structure = structure
        self.kind = kind
        self.combine = combine
        self.prepare = prepare

    @property
    def context(self) -> FrameContext:
        return self.structure.context

    def nabla(self, x: VectorField, y: VectorField) -> VectorField:
        if x.context != self.context or y.context != self.context:
            raise ContextMismatch("fields do not live on the connection's context")
        return self.combine(self.prepare(x), self.prepare(y))

    @cached_property
    def prepared_basis(self) -> tuple:
        """``prepare(E_i)`` for each basis field, built once."""
        return tuple(self.prepare(e) for e in self.structure.basis)

    @cached_property
    def frame_table(self) -> tuple[tuple[VectorField, ...], ...]:
        """nabla_{E_i} E_j for all frame pairs."""
        basis, combine = self.prepared_basis, self.combine
        return tuple(tuple(combine(a, b) for b in basis) for a in basis)

    def cells(self):
        """((i, j), nabla_{E_i} E_j) over all frame pairs, in index order."""
        return (((i, j), c) for i, row in enumerate(self.frame_table) for j, c in enumerate(row))

    def nabla_of_field(self, i: int, w: VectorField) -> VectorField:
        """nabla_{E_i} W via the frame table and Leibniz expansion."""
        ctx = self.context
        if w.context is not ctx and w.context != ctx:
            raise ContextMismatch("field does not live on the connection's context")
        if w.is_zero:
            return ctx.zero_field
        table = self.frame_table
        out = [ctx.zero] * ctx.dim
        for m, wm in enumerate(w.components):
            if not wm.is_zero:
                dwm = ctx.frame_derivative(i, wm)
                if not dwm.is_zero:
                    out[m] = out[m] + dwm
                for t, comp in enumerate(table[i][m].components):
                    if not comp.is_zero:
                        out[t] = out[t] + wm * comp
        return VectorField._trusted(ctx, out)


def canonical_connection(s: BiparaStructure) -> ConnectionLaw:
    """The unique connection parallelizing F and P with T(T_F^+, T_F^-) = 0."""
    fp = s.projectors.f_plus
    fm = s.projectors.f_minus
    p = s.P

    def split_law(xs, ys) -> VectorField:
        """nabla_X Y from ``split(X)`` and ``split(Y)``."""
        xp, xm, _, _ = xs
        yp, ym, pyp, pym = ys
        plus_part = fp.apply(lie_bracket(xm, yp) + p.apply(lie_bracket(xp, pyp)))
        minus_part = fm.apply(lie_bracket(xp, ym) + p.apply(lie_bracket(xm, pym)))
        return plus_part + minus_part

    law = ConnectionLaw(s, "canonical", split_law, prepare=s.split)
    # The frame fields' splits are cached on the structure, read off the
    # projector columns.
    law.prepared_basis = s.frame_split
    return law


# ---------------------------------------------------------------------------
# Torsion and curvature
# ---------------------------------------------------------------------------


def _contract(ctx: FrameContext, table, xs, ys) -> VectorField:
    """sum_ij xs[i] ys[j] table[i][j]: a (1,2)-tensor on frame components xs, ys."""
    acc = ctx.zero_field
    for i, xi in enumerate(xs):
        if xi.is_zero:
            continue
        for j, yj in enumerate(ys):
            if yj.is_zero:
                continue
            cell = table[i][j]
            if not cell.is_zero:
                acc = acc + cell.scale(xi * yj)
    return acc


class PairTensor:
    """A (1,2)-tensor field S known by its values S(E_i, E_j) on frame pairs.

    ``value(*key)`` computes the cell of a key of ``keys()`` on its first read;
    the cell is kept.  An antisymmetric tensor's keys are the pairs i < j.
    ``value`` must not hold the tensor (bind a module-level function with
    ``functools.partial``), so a tensor forms no reference cycle and is freed once unreachable.
    """

    def __init__(self, context: FrameContext, value: Callable, antisymmetric: bool):
        self.context = context
        self.value = value
        self.antisymmetric = antisymmetric
        self._known: dict[tuple[int, ...], VectorField] = {}

    def keys(self):
        """The independent pairs (i, j) in index order: i < j if antisymmetric, else all."""
        dim = self.context.dim
        return ((i, j) for i in range(dim) for j in range(i + 1 if self.antisymmetric else 0, dim))

    def cells(self):
        """(key, value(*key)) over ``keys()``; a cell is computed when the generator reaches it."""
        known, value = self._known, self.value
        for key in self.keys():
            if key not in known:
                known[key] = value(*key)
            yield key, known[key]

    @cached_property
    def table(self) -> tuple[tuple[VectorField, ...], ...]:
        """S(E_i, E_j) on every frame pair, as rows."""
        cells = dict(self.cells())
        dim = range(self.context.dim)
        if self.antisymmetric:
            cells.update({(j, i): -cell for (i, j), cell in cells.items()})
            cells.update({(i, i): self.context.zero_field for i in dim})
        return tuple(tuple(cells[i, j] for j in dim) for i in dim)

    def evaluate(self, x: VectorField, y: VectorField) -> VectorField:
        """S(X, Y): the frame table contracted against the components of X and Y."""
        ctx = self.context
        if not (x.context is ctx is y.context):
            _require_same_context(self, x, y)
        return _contract(ctx, self.table, x.components, y.components)

    @property
    def is_zero(self) -> bool:
        return first_nonzero(self.cells()) is None


def pair_cell(evaluate, args, i: int, j: int) -> VectorField:
    """``evaluate(args[i], args[j])``: with ``partial``, a ``PairTensor`` value on ``args``."""
    return evaluate(args[i], args[j])


def _torsion_cell(law: ConnectionLaw, i: int, j: int) -> VectorField:
    """T(E_i, E_j) = nabla_{E_i} E_j - nabla_{E_j} E_i - [E_i, E_j]."""
    ctx = law.context
    ft = law.frame_table
    return ft[i][j] - ft[j][i] - ctx.basis_bracket_field(i, j)


class TorsionTensor(PairTensor):
    """T(X, Y) = nabla_X Y - nabla_Y X - [X, Y], from the frame table of ``law``."""

    def __init__(self, law: ConnectionLaw):
        super().__init__(law.context, partial(_torsion_cell, law), antisymmetric=True)
        self.law = law

    # Bound in this class's own namespace too, so perfbench/layers.py can time
    # the torsion table apart from the other pair tensors' tables.
    table = PairTensor.table


def _curvature_cell(law: ConnectionLaw, i: int, j: int, k: int) -> VectorField:
    """R(E_i, E_j)E_k = nabla_i nabla_j E_k - nabla_j nabla_i E_k - nabla_{[E_i, E_j]} E_k."""
    ft = law.frame_table
    value = law.nabla_of_field(i, ft[j][k]) - law.nabla_of_field(j, ft[i][k])
    for m, c in law.context.basis_bracket(i, j):
        value = value - ft[m][k].scale(c)
    return value


class CurvatureTensor(PairTensor):
    """R(X, Y)Z from the frame table by Leibniz expansion; cells keyed (i, j, k), i < j."""

    def __init__(self, law: ConnectionLaw):
        super().__init__(law.context, partial(_curvature_cell, law), antisymmetric=True)

    def keys(self):
        """(i, j, k) over the pairs i < j and every k, in index order."""
        return ((i, j, k) for i, j in super().keys() for k in range(self.context.dim))

    # In this class's own namespace, so perfbench/layers.py can time the
    # curvature table apart from the other pair tensors' tables.
    @cached_property
    def table(self) -> dict[tuple[int, int, int], VectorField]:
        """R(E_i, E_j)E_k keyed (i, j, k), i < j, in ``keys()`` order."""
        return dict(self.cells())

    def evaluate(self, x: VectorField, y: VectorField, z: VectorField) -> VectorField:
        ctx = self.context
        if not (x.context is ctx is y.context is z.context):
            _require_same_context(self, x, y, z)
        xs, ys, zs = x.components, y.components, z.components
        acc = ctx.zero_field
        for (i, j, k), cell in self.cells():
            if cell.is_zero or zs[k].is_zero:
                continue
            # R(E_j, E_i) = -R(E_i, E_j): both orders of the pair share a cell.
            coeff = xs[i] * ys[j] - xs[j] * ys[i]
            if not coeff.is_zero:
                acc = acc + cell.scale(coeff * zs[k])
        return acc


def torsion(law: ConnectionLaw) -> TorsionTensor:
    return TorsionTensor(law)


def curvature(law: ConnectionLaw) -> CurvatureTensor:
    return CurvatureTensor(law)


# ---------------------------------------------------------------------------
# Covariant derivatives of endomorphism fields
# ---------------------------------------------------------------------------


def _endo_derivative_cell(law: ConnectionLaw, e: EndoField, i: int, j: int) -> VectorField:
    """(nabla_{E_i} e)(E_j) = nabla_{E_i}(e E_j) - e(nabla_{E_i} E_j)."""
    return law.nabla_of_field(i, e.column_field(j)) - e.apply(law.frame_table[i][j])


def endo_covariant_derivative(law: ConnectionLaw, e: EndoField) -> PairTensor:
    """(nabla_X e)(Y) = nabla_X(eY) - e(nabla_X Y), on frame pairs.

    The result is tensorial in both slots, so its frame-pair values determine
    the (1,2)-tensor.
    """
    if e.context != law.context:
        raise ContextMismatch("endomorphism lives in a different frame context")
    return PairTensor(law.context, partial(_endo_derivative_cell, law, e), antisymmetric=False)


def is_parallel(law: ConnectionLaw, e: EndoField) -> bool:
    """True iff the covariant derivative of ``e`` vanishes identically."""
    return endo_covariant_derivative(law, e).is_zero


def preserves_distributions(law: ConnectionLaw, s: BiparaStructure) -> bool:
    """True iff nabla maps sections of V1, V2 and V3 back into themselves.

    The complementary projection of nabla_X (proj Y) is tensorial in both
    slots, so frame pairs decide the identity; proj E_j is column j of the
    projector.
    """
    proj = s.projectors
    residues = (
        complement.apply(law.nabla_of_field(i, projected))
        for into, complement in (
            (proj.f_plus, proj.f_minus),
            (proj.f_minus, proj.f_plus),
            (proj.p_plus, proj.p_minus),
        )
        for projected in map(into.column_field, range(s.dim))
        for i in range(s.dim)
    )
    return all(r.is_zero for r in residues)


# ---------------------------------------------------------------------------
# Christoffel tables on adapted frames
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChristoffelTable:
    """Connection coefficients on an adapted frame.

    ``xx[h][a][i]`` is the X_i-coefficient of nabla_{X_h} X_a and
    ``yx[h][a][i]`` the X_i-coefficient of nabla_{Y_h} X_a.  Below, omega_i
    and eta_i are the coframe rows dual to X_i and Y_i.  The remaining
    blocks follow from nabla_. Y_a = P nabla_. X_a.
    """

    xx: tuple
    yx: tuple


def canonical_christoffels(s: BiparaStructure) -> ChristoffelTable:
    """Adapted-frame coefficients of the canonical connection.

    The X_i-coefficient of nabla_{X_h} X_a is eta_i([X_h, Y_a]) and that of
    nabla_{Y_h} X_a is omega_i([Y_h, X_a]).  Extracted purely from coframe
    pairings of frame brackets, independently of the invariant law;
    reconstructing the connection from this table must reproduce the law
    exactly (the uniqueness cross-check).
    """
    n = s.n
    br = s.frame_bracket
    xx = tuple(tuple(br(h, n + a)[n:] for a in range(n)) for h in range(n))
    yx = tuple(tuple(br(n + h, a)[:n] for a in range(n)) for h in range(n))
    return ChristoffelTable(xx=xx, yx=yx)


def _thirds(u, v, w) -> tuple:
    """(u_b + 2 v_b + w_b) / 3 for each b."""
    third = Fraction(1, 3)
    return tuple((x + y.scale(2) + z).scale(third) for x, y, z in zip(u, v, w))


def well_adapted_christoffels(s: BiparaStructure) -> ChristoffelTable:
    """Adapted-frame coefficients of the well-adapted connection.

    The coefficient of X_b in nabla_{X_a} X_h is
    (omega_b([X_a,X_h]) + 2 eta_b([X_a,Y_h]) + eta_b([X_h,Y_a])) / 3 and the
    coefficient of X_b in nabla_{Y_a} X_h is
    (omega_b([Y_h,X_a]) + 2 omega_b([Y_a,X_h]) + eta_b([Y_a,Y_h])) / 3; the
    other blocks follow from P-parallelism.
    """
    n = s.n
    br = s.frame_bracket
    xx = tuple(
        tuple(_thirds(br(a, h)[:n], br(a, n + h)[n:], br(h, n + a)[n:]) for h in range(n))
        for a in range(n)
    )
    yx = tuple(
        tuple(_thirds(br(n + h, a)[:n], br(n + a, h)[:n], br(n + a, n + h)[n:]) for h in range(n))
        for a in range(n)
    )
    return ChristoffelTable(xx=xx, yx=yx)


def connection_from_table(
    s: BiparaStructure, table: ChristoffelTable, kind: str = "custom"
) -> ConnectionLaw:
    """Reconstruct a derivation law from adapted-frame coefficients.

    With F = (X_1..X_n, Y_1..Y_n) and u = coframe . Y, the law is
    nabla_X Y = sum_b X(u_b) F_b + sum_ab (coframe . X)_a u_b nabla_{F_a} F_b.
    """
    n = s.n
    ctx = s.context
    coframe = s.coframe
    frame = s.adapted_frame
    zeros = [ctx.zero] * n

    def row(coeffs):
        """nabla_{F_h} X_a from its X-coefficients, then nabla_{F_h} Y_a = P nabla_{F_h} X_a."""
        x_images = [VectorField(ctx, frame.matvec([*c, *zeros])) for c in coeffs]
        return x_images + [s.P.apply(v) for v in x_images]

    frame_table = [row(coeffs) for coeffs in table.xx + table.yx]

    def with_coframe(x: VectorField):
        """(X, coframe . X): the field and its adapted-frame components."""
        return x, coframe.matvec(list(x.components))

    def law(prepared_x, prepared_y) -> VectorField:
        x, xs = prepared_x
        _, ys = prepared_y
        moved = VectorField(ctx, frame.matvec([directional_derivative(x, c) for c in ys]))
        return moved + _contract(ctx, frame_table, xs, ys)

    return ConnectionLaw(s, kind, law, prepare=with_coframe)


# ---------------------------------------------------------------------------
# Difference tensor and the well-adapted connection
# ---------------------------------------------------------------------------


def _torsion_route(t: TorsionTensor, outer, xs, ys) -> VectorField:
    """A(X, Y) from ``split(X)``, ``split(Y)`` and the canonical torsion ``t``."""
    xp, xm, _, _ = xs
    yp, ym, pyp, pym = ys
    fp, fm, pfp, pfm = outer
    ev = t.evaluate
    total = (
        fp.apply(ev(xp, yp))
        + pfp.apply(ev(xp, pym))
        + pfm.apply(ev(xm, pyp))
        + fm.apply(ev(xm, ym))
    )
    return total.scale(Fraction(1, 3))


def _bracket_route(outer, xs, ys) -> VectorField:
    """A(X, Y) from ``split(X)`` and ``split(Y)`` by brackets alone."""
    xp, xm, pxp, pxm = xs
    yp, ym, pyp, pym = ys
    fp, fm, pfp, pfm = outer
    br = lie_bracket
    total = (
        pfm.apply(br(xp, pyp) + br(pxp, yp) - br(xm, pyp))
        + fp.apply(br(xm, yp) + br(pxm, pyp) - br(xp, yp))
        + fm.apply(br(xp, ym) + br(pxp, pym) - br(xm, ym))
        + pfp.apply(br(xm, pym) + br(pxm, ym) - br(xp, pym))
    )
    return total.scale(Fraction(1, 3))


class DifferenceTensor(PairTensor):
    """A = nabla - nabla', expressed through the canonical torsion ``t``.

    ``t.law`` must be the canonical law.  The cells come from the torsion
    route; ``bracket_route`` is the independent bracket-only expansion.  Both
    must agree exactly, which the constructor checks on all frame pairs.  A
    law with the canonical torsion table passes that check, so the
    constructor also requires ``t.law.kind == "canonical"``.

    Each route is one function of split arguments (``BiparaStructure.split``),
    whose outer maps F+, F-, P∘F+ and P∘F- each apply once to a sum.
    """

    def __init__(self, t: TorsionTensor):
        self.canonical = t.law
        self.structure = s = t.law.structure
        fp, fm = s.projectors.f_plus, s.projectors.f_minus
        # P∘F± is composed once here, so each sum takes one apply.  Applying
        # F± and then P to every sum instead slowed `bipara report` on a 94 KB
        # n = 8 degree-3 chart spec from 4.3-4.4 s to 5.9-6.0 s (three
        # alternating runs each, 2-vCPU Xeon VM).
        self._outer = outer = (fp, fm, s.P.compose(fp), s.P.compose(fm))
        split = s.frame_split
        torsion_route = partial(pair_cell, partial(_torsion_route, t, outer), split)
        super().__init__(s.context, torsion_route, antisymmetric=False)
        for (i, j), cell in self.cells():
            if cell != _bracket_route(outer, split[i], split[j]):
                raise StructureError.of("difference-tensor routes disagree", {"pair": (i, j)})
        if t.law.kind != "canonical":
            raise StructureError.of("difference tensor needs the canonical torsion", t.law.kind)

    def bracket_route(self, x: VectorField, y: VectorField) -> VectorField:
        """Bracket-only expansion, assembled from the four block identities."""
        s = self.structure
        return _bracket_route(self._outer, s.split(x), s.split(y))


def well_adapted_connection(diff: DifferenceTensor) -> ConnectionLaw:
    """Frame-free construction: canonical law minus the difference tensor."""
    s = diff.structure
    canon = diff.canonical

    def law(x: VectorField, y: VectorField) -> VectorField:
        return canon.nabla(x, y) - diff.evaluate(x, y)

    well_adapted = ConnectionLaw(s, "well-adapted", law)
    # Set now rather than built on first read: the difference tensor already
    # holds both tables, and a report builds only the canonical frame table.
    well_adapted.frame_table = tuple(
        tuple(c - a for c, a in zip(canon_row, diff_row))
        for canon_row, diff_row in zip(canon.frame_table, diff.table)
    )
    return well_adapted


def well_adapted_routes_agree(frame_free: ConnectionLaw, christoffels: ChristoffelTable) -> bool:
    """Cross-validate the two well-adapted constructions on frame pairs."""
    s = frame_free.structure
    via_table = connection_from_table(s, christoffels, kind="well-adapted")
    prepared = via_table.prepared_basis
    return all(
        cell == via_table.combine(prepared[i], prepared[j]) for (i, j), cell in frame_free.cells()
    )


def trace_condition_holds(t: TorsionTensor) -> bool:
    """The well-adaptedness criterion on an adapted frame, checked exactly.

    ``t`` is the torsion T' of the law being checked.  With omega_b and
    eta_b the coframe rows dual to X_b and Y_b, for all a, b, h:
    omega_b(T'(X_h, X_a)) + eta_b(T'(X_h, Y_a)) = 0  and
    omega_b(T'(Y_h, X_a)) + eta_b(T'(Y_h, Y_a)) = 0.
    """
    s = t.law.structure
    n = s.n
    frame = [s.frame_field(a) for a in range(s.dim)]
    for u in frame:  # u = X_h, then u = Y_h
        for a in range(n):
            on_x = s.coframe.matvec(list(t.evaluate(u, frame[a]).components))
            on_y = s.coframe.matvec(list(t.evaluate(u, frame[n + a]).components))
            if any(not (on_x[b] + on_y[n + b]).is_zero for b in range(n)):
                return False
    return True


# ---------------------------------------------------------------------------
# Pushforward of connections
# ---------------------------------------------------------------------------


def pushforward_connection(
    m: PolyMap, law: ConnectionLaw, target_structure: BiparaStructure
) -> ConnectionLaw:
    """Direct image law: nabla'_{X'} Y' = m . (nabla_{m^-1 . X'} m^-1 . Y').

    ``target_structure`` is the structure the law lives on after the push,
    validated by the caller (``pushforward_structure`` gives it for ``law.structure``).
    A field is pulled back and prepared by ``law`` once; each combined value
    is pushed forward.  The pulled fields live on ``law.context``, checked
    here, so they need no second context check.
    """
    if law.context != m.source:
        raise ContextMismatch("connection does not live on the map source")
    back = m.inverted()

    def pull_and_prepare(x: VectorField):
        return law.prepare(pushforward_vector(back, x))

    def pushed(prepared_x, prepared_y) -> VectorField:
        return pushforward_vector(m, law.combine(prepared_x, prepared_y))

    return ConnectionLaw(target_structure, law.kind, pushed, prepare=pull_and_prepare)
