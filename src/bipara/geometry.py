"""Frames, vector fields, tensor fields, Lie brackets and pushforwards.

Two backends share one interface and every kernel; they differ only in data:

* ``polynomial_chart`` -- the frame is the coordinate frame of a single
  polynomial chart; brackets use exact partial derivatives.
* ``constant_frame`` -- the frame is a basis of a Lie algebra described by
  structure constants (validated against antisymmetry and the Jacobi
  identity); vector fields have constant components and the bracket is the
  bilinear extension of the table.

Every bracket reads one table, ``FrameContext.structure_constants``:
``[a][b]`` lists the nonzero (m, C_ab^m) of [E_a, E_b], for both orders of
every pair with a nonzero bracket and for no other pair (a chart's table is
empty).  The structure part of ``lie_bracket`` visits only the rows a with
X^a != 0, in each only the b with Y^b != 0, and only their nonzero
coefficients; its derivative part loops over the chart variables outermost,
so a constant frame does no work for it.  The Jacobi check, the bracket
check of a map and the torsion and curvature tables read [E_i, E_j] from the
same table, as ``FrameContext.basis_bracket(i, j)`` (its nonzero
(m, C_ij^m)) or ``basis_bracket_field(i, j)``.

A context keeps its ring's zero once, as ``FrameContext.zero`` (the shared
``MultiPoly.zero(variables)`` instance), and its zero field once, as
``FrameContext.zero_field``; every kernel takes its zero scalars and fields
from these two.  A zero operand short-circuits at the field layer, as the
ring's zero does in ``MultiPoly``: ``+``, ``-`` and ``scale`` return an
operand (or its negation) as it is, and ``EndoField.apply``,
``lie_bracket`` and ``ConnectionLaw.nabla_of_field`` return the context's
zero field, each after its context check (and ``scale`` after its check of
the factor).  ``VectorField.is_zero`` is a slot, set once when a field is
made, so these shortcuts read a flag rather than scan the components.

A diffeomorphism (:class:`PolyMap`) is the same data on both backends: its
forward and inverse coordinate lists (empty on a constant frame) and its two
frame Jacobians J = D(forward) o inverse and K = D(inverse), which are the
given matrix and its inverse on a constant frame.  One validation checks both
round trips, J K = Id and that J carries the source brackets to the target's;
the inverse of a validated map inherits all four and is not checked again.
A map prepares its substitution once for each direction (``_sub_inverse``,
``_sub_forward``, shared with its inverse): the images are checked once, and
each power of an image of several terms is expanded once per map, not once per
pushforward.  Chart maps are generated as unipotent coordinate changes, so
inverses stay polynomial and every pushforward exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Mapping, Sequence

from .linalg import PolyMatrix, rat_inverse
from .poly import MultiPoly, PolyError, _Substitution

__all__ = [
    "BilinearField",
    "ContextMismatch",
    "EndoField",
    "FrameContext",
    "GeometryError",
    "PolyMap",
    "VectorField",
    "algebra_context",
    "basis_fields",
    "chart_context",
    "directional_derivative",
    "first_nonzero",
    "identity_map",
    "lie_bracket",
    "pushforward_bilinear",
    "pushforward_endo",
    "pushforward_vector",
]

CONSTANT_FRAME = "constant_frame"
POLYNOMIAL_CHART = "polynomial_chart"


class GeometryError(ValueError):
    """Raised on malformed geometric data (bad dimensions, Jacobi failure...)."""


class ContextMismatch(GeometryError):
    """Raised when an operation mixes objects from different frame contexts."""


BracketTable = tuple[tuple[int, int, tuple[Fraction, ...]], ...]


@dataclass(frozen=True)
class FrameContext:
    """A 2n-dimensional frame with a Lie bracket.

    ``variables`` is empty for the constant backend; ``bracket_table`` is
    empty for the chart backend (coordinate fields commute).  Kernels read
    both, so ``backend`` is derived, not stored.  A constant-frame context
    checks Jacobi when it is made, on the basis triples that some product of
    two nonzero structure constants reaches (``_check_jacobi``).
    """

    dim: int
    variables: tuple[str, ...]
    bracket_table: BracketTable

    def __post_init__(self):
        if self.dim <= 0 or self.dim % 2 != 0:
            raise GeometryError(f"dimension must be a positive even number, got {self.dim}")
        if self.variables:
            if len(self.variables) != self.dim:
                raise GeometryError("chart context needs one variable per dimension")
            if self.bracket_table:
                raise GeometryError("chart context must not carry structure constants")
        else:
            seen = set()
            for i, j, coeffs in self.bracket_table:
                if not (0 <= i < j < self.dim):
                    raise GeometryError(f"structure constant indices ({i},{j}) out of order")
                if (i, j) in seen:
                    raise GeometryError(f"duplicate structure constant entry ({i},{j})")
                seen.add((i, j))
                if len(coeffs) != self.dim:
                    raise GeometryError("structure constant coefficient vector has wrong length")
            self._check_jacobi()

    @property
    def backend(self) -> str:
        return POLYNOMIAL_CHART if self.variables else CONSTANT_FRAME

    @cached_property
    def brackets(self) -> dict[tuple[int, int], tuple[Fraction, ...]]:
        """``bracket_table`` keyed by pair, as a spec lists it; no kernel reads it."""
        return {(i, j): coeffs for i, j, coeffs in self.bracket_table}

    @cached_property
    def structure_constants(self) -> dict[int, dict[int, tuple[tuple[int, Fraction], ...]]]:
        """``[a][b]``: the nonzero C_ab^m of [E_a, E_b] = sum_m C_ab^m E_m, as ``(m, C_ab^m)``.

        Both orders of every pair with a nonzero bracket are present
        (C_ba^m = -C_ab^m), and nothing else: no zero coefficient, no
        commuting pair, no empty row; a chart's table is empty.  Every bracket
        kernel reads this table and only this one.
        """
        table: dict[int, dict[int, tuple[tuple[int, Fraction], ...]]] = {}
        for i, j, coeffs in self.bracket_table:
            terms = tuple((m, c) for m, c in enumerate(coeffs) if c)
            if terms:
                table.setdefault(i, {})[j] = terms
                table.setdefault(j, {})[i] = tuple((m, -c) for m, c in terms)
        return table

    @cached_property
    def zero(self) -> MultiPoly:
        """The zero of the ring ``variables``: the shared ``MultiPoly.zero`` instance."""
        return MultiPoly.zero(self.variables)

    @cached_property
    def zero_field(self) -> "VectorField":
        """The zero vector field, one shared instance per context."""
        return VectorField._trusted(self, (self.zero,) * self.dim)

    def basis_bracket(self, i: int, j: int) -> tuple[tuple[int, Fraction], ...]:
        """[E_i, E_j] as its nonzero ``(m, C_ij^m)``: entry ``[i][j]`` of ``structure_constants``."""
        row = self.structure_constants.get(i)
        return row.get(j, ()) if row else ()

    def basis_bracket_field(self, i: int, j: int) -> "VectorField":
        """[E_i, E_j] as a field with the constant components ``basis_bracket(i, j)``."""
        terms = self.basis_bracket(i, j)
        if not terms:
            return self.zero_field
        components = [self.zero] * self.dim
        for m, c in terms:
            components[m] = MultiPoly.const(self.variables, c)
        return VectorField._trusted(self, components)

    def _check_jacobi(self):
        """Raise on the first basis triple, in ``combinations`` order, that fails Jacobi.

        [[E_a, E_b], E_c] = sum_m C_ab^m [E_m, E_c] has a nonzero term only
        where some C_ab^m and some C_mc^t are nonzero, so the cyclic sum is
        formed only on the triples such products reach; on every other
        triple it is zero term by term.
        """
        table = self.structure_constants
        reached = {
            tuple(sorted((a, b, c)))
            for a, row in table.items()
            for b, terms in row.items()
            if a < b
            for m, _ in terms
            for c in table.get(m, ())
            if c != a and c != b
        }
        for i, j, k in sorted(reached):
            total: dict[int, Fraction] = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, coeff in self.basis_bracket(a, b):
                    for t, outer in self.basis_bracket(m, c):
                        total[t] = total.get(t, 0) + coeff * outer
            if any(total.values()):
                raise GeometryError(f"Jacobi identity fails on basis triple ({i},{j},{k})")

    def frame_derivative(self, i: int, f: MultiPoly) -> MultiPoly:
        """E_i(f): d f / d v_i on a chart, zero on a constant frame."""
        if not self.variables:
            return self.zero
        return f.derivative(self.variables[i])


def chart_context(variables: Sequence[str]) -> FrameContext:
    return FrameContext(len(variables), tuple(variables), ())

def algebra_context(
    dim: int, brackets: Mapping[tuple[int, int], Sequence[Fraction]] | None = None
) -> FrameContext:
    table = tuple(
        sorted((i, j, tuple(Fraction(c) for c in coeffs)) for (i, j), coeffs in (brackets or {}).items())
    )
    return FrameContext(dim, (), table)


def _require_same_context(*objects):
    ctx = objects[0].context
    for obj in objects[1:]:
        if obj.context is not ctx and obj.context != ctx:
            raise ContextMismatch("objects live in different frame contexts")
    return ctx


_terms = attrgetter("terms")


def _set_field(field: "VectorField", context: FrameContext, components: tuple[MultiPoly, ...]) -> None:
    """Fill the slots of a new field; ``is_zero`` is computed here, once."""
    object.__setattr__(field, "context", context)
    object.__setattr__(field, "components", components)
    object.__setattr__(field, "is_zero", not any(map(_terms, components)))


class VectorField:
    """A vector field given by its components in the frame.

    The public constructor checks the component count and the ring of every
    component.  The kernels build their results with :meth:`_trusted`, which
    skips both checks; it is only for results of operations on validated
    fields of one context, whose components are then in that ring and
    ``dim`` in number by construction.  ``is_zero`` (every component zero)
    is a slot set by both constructors, so reading it scans nothing.
    """

    __slots__ = ("context", "components", "is_zero")

    def __init__(self, context: FrameContext, components: Sequence[MultiPoly]):
        components = tuple(components)
        if len(components) != context.dim:
            raise GeometryError("component count does not match dimension")
        # A constant-frame context has no variables, so this ring check alone
        # forces its components to be constant.
        for c in components:
            if c.variables != context.variables:
                raise PolyError("component lives in the wrong ring")
        _set_field(self, context, components)

    @classmethod
    def _trusted(cls, context: FrameContext, components: Sequence[MultiPoly]) -> "VectorField":
        """Wrap ``dim`` components of the ring of ``context`` without re-checking them."""
        field = object.__new__(cls)
        _set_field(field, context, tuple(components))
        return field

    def __setattr__(self, *a):
        raise AttributeError("VectorField is immutable")

    __delattr__ = __setattr__

    @classmethod
    def from_rationals(cls, context: FrameContext, values: Sequence) -> "VectorField":
        return cls(context, [MultiPoly.const(context.variables, v) for v in values])

    def __add__(self, other: "VectorField") -> "VectorField":
        if other.context is not self.context:
            _require_same_context(self, other)
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        return VectorField._trusted(self.context, [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "VectorField") -> "VectorField":
        if other.context is not self.context:
            _require_same_context(self, other)
        if other.is_zero:
            return self
        if self.is_zero:
            return -other
        return VectorField._trusted(self.context, [a - b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "VectorField":
        if self.is_zero:
            return self
        return VectorField._trusted(self.context, [-a for a in self.components])

    def scale(self, factor) -> "VectorField":
        """Multiply by a polynomial or rational scalar.

        A zero field returns itself, after the factor has passed the ring's
        check on one zero component, so a bad factor raises as it does on
        any other field.
        """
        zero = self.is_zero
        components = (self.context.zero,) if zero else self.components
        if isinstance(factor, MultiPoly):
            scaled = [factor * a for a in components]
        else:
            scaled = [a.scale(factor) for a in components]
        return self if zero else VectorField._trusted(self.context, scaled)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.context == other.context and self.components == other.components

    def __hash__(self):
        return hash((self.context, self.components))

    def __repr__(self) -> str:
        return "VectorField(" + ", ".join(str(c) for c in self.components) + ")"


def basis_fields(context: FrameContext) -> tuple[VectorField, ...]:
    dim = context.dim
    return tuple(
        VectorField.from_rationals(context, [int(i == k) for i in range(dim)]) for k in range(dim)
    )


class EndoField:
    """A (1,1)-tensor field: column j holds the components of the image of E_j."""

    __slots__ = ("context", "matrix")

    def __init__(self, context: FrameContext, matrix: PolyMatrix):
        if matrix.rows != context.dim or matrix.cols != context.dim:
            raise GeometryError("endomorphism matrix must be square of size dim")
        # Constant-frame entries are constant by this ring check (no variables).
        if matrix.variables != context.variables:
            raise PolyError("matrix lives in the wrong ring")
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, *a):
        raise AttributeError("EndoField is immutable")

    __delattr__ = __setattr__

    @classmethod
    def identity(cls, context: FrameContext) -> "EndoField":
        return cls(context, PolyMatrix.identity(context.dim, context.variables))

    def apply(self, x: VectorField) -> VectorField:
        ctx = self.context
        if x.context is not ctx:
            _require_same_context(self, x)
        if x.is_zero:
            return ctx.zero_field
        return VectorField._trusted(ctx, self.matrix.matvec(list(x.components)))

    def compose(self, other: "EndoField") -> "EndoField":
        """self after other (matrix product self.matrix @ other.matrix)."""
        _require_same_context(self, other)
        return EndoField(self.context, self.matrix @ other.matrix)

    def __add__(self, other: "EndoField") -> "EndoField":
        _require_same_context(self, other)
        return EndoField(self.context, self.matrix + other.matrix)

    def __sub__(self, other: "EndoField") -> "EndoField":
        _require_same_context(self, other)
        return EndoField(self.context, self.matrix - other.matrix)

    def __neg__(self) -> "EndoField":
        return EndoField(self.context, -self.matrix)

    def scale(self, scalar) -> "EndoField":
        return EndoField(self.context, self.matrix.scale(scalar))

    @property
    def is_zero(self) -> bool:
        return self.matrix.is_zero

    def column_field(self, j: int) -> VectorField:
        return VectorField(self.context, self.matrix.column(j))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EndoField):
            return NotImplemented
        return self.context == other.context and self.matrix == other.matrix

    def __hash__(self):
        return hash((self.context, self.matrix))


class BilinearField:
    """A (0,2)-tensor field; value(x, y) = x^T M y in frame components."""

    __slots__ = ("context", "matrix")

    def __init__(self, context: FrameContext, matrix: PolyMatrix):
        if matrix.rows != context.dim or matrix.cols != context.dim:
            raise GeometryError("bilinear field matrix must be square of size dim")
        if matrix.variables != context.variables:
            raise PolyError("matrix lives in the wrong ring")
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, *a):
        raise AttributeError("BilinearField is immutable")

    __delattr__ = __setattr__

    def value(self, x: VectorField, y: VectorField) -> MultiPoly:
        _require_same_context(self, x, y)
        acc = self.context.zero
        column = self.matrix.matvec(list(y.components))
        for xi, col in zip(x.components, column):
            if not (xi.is_zero or col.is_zero):
                acc = acc + xi * col
        return acc

    @property
    def is_symmetric(self) -> bool:
        return self.matrix == self.matrix.transpose()

    @property
    def is_antisymmetric(self) -> bool:
        return self.matrix == -self.matrix.transpose()

    def __eq__(self, other) -> bool:
        if not isinstance(other, BilinearField):
            return NotImplemented
        return self.context == other.context and self.matrix == other.matrix


# ---------------------------------------------------------------------------
# Brackets and derivatives
# ---------------------------------------------------------------------------


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y]^i = sum_k (X^k d_k Y^i - Y^k d_k X^i) + sum_{a,b} X^a Y^b C_ab^i.

    The derivative part loops over the chart variables outermost, so a
    constant frame, which has none, does no work for it.
    """
    ctx = x.context
    if y.context is not ctx:
        _require_same_context(x, y)
    if x.is_zero or y.is_zero:
        return ctx.zero_field
    xs, ys = x.components, y.components
    out = [ctx.zero] * ctx.dim
    for k, name in enumerate(ctx.variables):
        xk, yk = xs[k], ys[k]
        for i in range(ctx.dim):
            if xk.terms and ys[i].terms:
                dyi = ys[i].derivative(name)
                if dyi.terms:
                    out[i] = out[i] + xk * dyi
            if yk.terms and xs[i].terms:
                dxi = xs[i].derivative(name)
                if dxi.terms:
                    out[i] = out[i] - yk * dxi
    return VectorField._trusted(ctx, _add_structure_part(ctx, xs, ys, out))


def _add_structure_part(ctx: FrameContext, xs, ys, out: list[MultiPoly]) -> list[MultiPoly]:
    """Add sum_{a,b} X^a Y^b [E_a, E_b], the structure-constant part of [X, Y], to ``out``.

    Reads ``ctx.structure_constants`` only where it can contribute: the rows
    a with X^a != 0, in each the b with Y^b != 0, and their nonzero C_ab^m.
    The table holds both orders of a pair, so this is the sum over a < b of
    (X^a Y^b - X^b Y^a) C_ab^m.
    """
    for a, row in ctx.structure_constants.items():
        xa = xs[a]
        if xa.is_zero:
            continue
        for b, terms in row.items():
            yb = ys[b]
            if yb.is_zero:
                continue
            factor = xa * yb
            for m, c in terms:
                out[m] = out[m] + factor.scale(c)
    return out


def directional_derivative(x: VectorField, f: MultiPoly) -> MultiPoly:
    """X(f): derivative of a scalar along a field (zero on the constant backend)."""
    ctx = x.context
    if f.variables != ctx.variables:
        raise PolyError("scalar lives in the wrong ring")
    acc = ctx.zero
    if not f.terms:
        return acc
    for k, name in enumerate(ctx.variables):
        xk = x.components[k]
        if xk.is_zero:
            continue
        df = f.derivative(name)
        if not df.is_zero:
            acc = acc + xk * df
    return acc


def first_nonzero(cells):
    """The first ``(key, value)`` of ``cells`` whose value is nonzero, or None.

    ``cells`` yields ``(key, value)`` pairs, as the ``cells()`` of a tensor
    does; a generator is consumed only up to the pair returned.
    """
    return next(((key, value) for key, value in cells if not value.is_zero), None)


# ---------------------------------------------------------------------------
# Polynomial diffeomorphisms
# ---------------------------------------------------------------------------


class PolyMap:
    """A diffeomorphism with exact polynomial data, one representation on both backends.

    ``forward`` lists the target coordinates as polynomials in the source
    variables and ``inverse`` the other way round; both are empty on a
    constant frame, which has no coordinates.  The frame Jacobians, both in
    the target ring, are ``jacobian_at_inverse`` J = D(forward) composed with
    the inverse map and ``jacobian_of_inverse`` K = D(inverse).  On a
    constant frame J is ``matrix`` and K its exact inverse; otherwise both
    are derived from ``forward`` and ``inverse``.

    One validation runs on both backends: component counts and rings, the
    round trips forward o inverse = id and inverse o forward = id, J K = Id,
    and J [E_i, E_j]_source = [J E_i, J E_j]_target on the structure
    constants (on a chart both tables are empty and the round trips carry the
    derivative part).
    """

    def __init__(
        self,
        source: FrameContext,
        target: FrameContext,
        forward: Sequence[MultiPoly] | None = None,
        inverse: Sequence[MultiPoly] | None = None,
        matrix: Sequence[Sequence[Fraction]] | None = None,
        *,
        _jacobians: tuple[PolyMatrix, PolyMatrix] | None = None,
    ):
        if source.backend != target.backend or source.dim != target.dim:
            raise GeometryError("map endpoints must share backend and dimension")
        self.source = source
        self.target = target
        self.forward = tuple(forward or ())
        self.inverse = tuple(inverse or ())
        if len(self.forward) != len(target.variables) or len(self.inverse) != len(source.variables):
            raise GeometryError("map component count does not match dimension")
        for f in self.forward:
            if f.variables != source.variables:
                raise PolyError("forward components must use source variables")
        for g in self.inverse:
            if g.variables != target.variables:
                raise PolyError("inverse components must use target variables")
        # source variable -> inverse expression (in target variables), and
        # back, each prepared once for every substitution along this map
        self._sub_inverse = _Substitution(source.variables, dict(zip(source.variables, self.inverse)))
        self._sub_forward = _Substitution(target.variables, dict(zip(target.variables, self.forward)))
        for name, f in zip(target.variables, self.forward):
            if f.substitute(self._sub_inverse) != MultiPoly.var(target.variables, name):
                raise GeometryError("forward o inverse is not the identity")
        for name, g in zip(source.variables, self.inverse):
            if g.substitute(self._sub_forward) != MultiPoly.var(source.variables, name):
                raise GeometryError("inverse o forward is not the identity")
        if _jacobians is None:
            _jacobians = self._public_jacobians(matrix)
        self.jacobian_at_inverse, self.jacobian_of_inverse = _jacobians
        jac, dim, ring = self.jacobian_at_inverse, source.dim, target.variables
        if jac @ self.jacobian_of_inverse != PolyMatrix.identity(dim, ring):
            raise GeometryError("the frame Jacobians J and K are not inverse")
        # Lie algebra morphism: J [E_i, E_j]_src = [J E_i, J E_j]_tgt, exactly.
        zero = target.zero
        for i, j in itertools.combinations(range(dim), 2):
            bracket = [zero] * dim
            for m, c in source.basis_bracket(i, j):
                bracket[m] = MultiPoly.const(ring, c)
            mapped = jac.matvec(bracket)
            right = _add_structure_part(target, jac.column(i), jac.column(j), [zero] * dim)
            if mapped != right:
                raise GeometryError(f"map does not preserve brackets on basis pair ({i},{j})")

    def _public_jacobians(self, matrix) -> tuple[PolyMatrix, PolyMatrix]:
        """J and K from ``matrix`` and its exact inverse, or from the coordinate lists."""
        ring = self.target.variables
        if matrix is not None:
            if self.forward:
                raise GeometryError("a map takes a matrix or forward and inverse lists, not both")
            dim = self.source.dim
            if len(matrix) != dim or any(len(row) != dim for row in matrix):
                raise GeometryError(f"matrix must be {dim} × {dim}")
            matrix = [[Fraction(v) for v in row] for row in matrix]
            return (
                PolyMatrix.from_rational_rows(matrix, ring),
                PolyMatrix.from_rational_rows(rat_inverse(matrix), ring),
            )
        if not self.forward:
            raise GeometryError("constant-frame map needs a matrix")
        jac = PolyMatrix.from_rows(
            [
                [f.derivative(v).substitute(self._sub_inverse) for v in self.source.variables]
                for f in self.forward
            ]
        )
        return jac, PolyMatrix.from_rows([[g.derivative(v) for v in ring] for g in self.inverse])

    def compose(self, inner: "PolyMap") -> "PolyMap":
        """self o inner (apply ``inner`` first)."""
        if inner.target != self.source:
            raise GeometryError("maps are not composable")
        sub = self._sub_inverse
        return PolyMap(
            inner.source,
            self.target,
            forward=[f.substitute(inner._sub_forward) for f in self.forward],
            inverse=[g.substitute(sub) for g in inner.inverse],
            _jacobians=(
                self.jacobian_at_inverse @ inner.jacobian_at_inverse.substitute(sub),
                inner.jacobian_of_inverse.substitute(sub) @ self.jacobian_of_inverse,
            ),
        )

    def inverted(self) -> "PolyMap":
        """The inverse map, built without re-running the checks of ``__init__``.

        Every check still holds for the swapped data: the two round trips are
        the same pair in the other order; J K = Id implies K J = Id for square
        matrices over a commutative ring (and survives substituting
        ``forward``); and the inverse of a bracket-preserving isomorphism
        preserves brackets.

        Its ``jacobian_of_inverse`` (this map's J, substituted) is built on
        first read: pushing vector fields reads only ``jacobian_at_inverse``.
        """
        back = object.__new__(PolyMap)
        back.source, back.target = self.target, self.source
        back.forward, back.inverse = self.inverse, self.forward
        back._sub_inverse, back._sub_forward = self._sub_forward, self._sub_inverse
        back._inverted_from = self
        back.jacobian_at_inverse = self.jacobian_of_inverse.substitute(self._sub_forward)
        return back

    @cached_property
    def jacobian_of_inverse(self) -> PolyMatrix:
        """K = D(inverse): set by ``__init__``; an ``inverted()`` map builds it here."""
        return self._inverted_from.jacobian_at_inverse.substitute(self._sub_inverse)


def identity_map(context: FrameContext) -> PolyMap:
    coordinates = [MultiPoly.var(context.variables, v) for v in context.variables]
    eye = PolyMatrix.identity(context.dim, context.variables)
    return PolyMap(context, context, forward=coordinates, inverse=coordinates, _jacobians=(eye, eye))


def pushforward_vector(m: PolyMap, x: VectorField) -> VectorField:
    if x.context != m.source:
        raise ContextMismatch("field does not live on the map source")
    moved = [c.substitute(m._sub_inverse) for c in x.components]
    return VectorField(m.target, m.jacobian_at_inverse.matvec(moved))


def pushforward_endo(m: PolyMap, e: EndoField) -> EndoField:
    if e.context != m.source:
        raise ContextMismatch("field does not live on the map source")
    moved = e.matrix.substitute(m._sub_inverse)
    # D(inverse) is the pointwise inverse Jacobian: no matrix inversion needed.
    out = m.jacobian_at_inverse @ moved @ m.jacobian_of_inverse
    return EndoField(m.target, out)


def pushforward_bilinear(m: PolyMap, g: BilinearField) -> BilinearField:
    if g.context != m.source:
        raise ContextMismatch("field does not live on the map source")
    moved = g.matrix.substitute(m._sub_inverse)
    jac_inv = m.jacobian_of_inverse
    return BilinearField(m.target, jac_inv.transpose() @ moved @ jac_inv)
