"""Frames, vector fields, tensor fields, Lie brackets and pushforwards.

Two backends share one interface:

* ``polynomial_chart`` -- the frame is the coordinate frame of a single
  polynomial chart; brackets use exact partial derivatives.
* ``constant_frame`` -- the frame is a basis of a Lie algebra described by
  structure constants (validated against antisymmetry and the Jacobi
  identity); vector fields have constant components and the bracket is the
  bilinear extension of the table.

Diffeomorphisms are pairs of mutually inverse polynomial maps
(:class:`PolyMap`).  In the chart backend these are generated as unipotent
coordinate changes so that inverses stay polynomial; in the constant backend
they are bracket-preserving invertible constant matrices.  That restriction
keeps every pushforward exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .linalg import PolyMatrix, poly_matrix_inverse, rat_inverse, rat_matmul
from .poly import MultiPoly, PolyError

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
    "dual_pairing",
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
    empty for the chart backend (coordinate fields commute).
    """

    backend: str
    dim: int
    variables: tuple[str, ...]
    bracket_table: BracketTable

    def __post_init__(self):
        if self.backend not in (CONSTANT_FRAME, POLYNOMIAL_CHART):
            raise GeometryError(f"unknown backend {self.backend!r}")
        if self.dim <= 0 or self.dim % 2 != 0:
            raise GeometryError(f"dimension must be a positive even number, got {self.dim}")
        if self.backend == POLYNOMIAL_CHART:
            if len(self.variables) != self.dim:
                raise GeometryError("chart context needs one variable per dimension")
            if self.bracket_table:
                raise GeometryError("chart context must not carry structure constants")
        else:
            if self.variables:
                raise GeometryError("constant-frame context carries no variables")
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

    @cached_property
    def brackets(self) -> dict[tuple[int, int], tuple[Fraction, ...]]:
        return {(i, j): coeffs for i, j, coeffs in self.bracket_table}

    def basis_bracket(self, i: int, j: int) -> tuple[Fraction, ...]:
        """[E_i, E_j] as a coefficient vector (constant backend only)."""
        if i == j:
            return (Fraction(0),) * self.dim
        if i < j:
            return self.brackets.get((i, j), (Fraction(0),) * self.dim)
        coeffs = self.brackets.get((j, i))
        if coeffs is None:
            return (Fraction(0),) * self.dim
        return tuple(-c for c in coeffs)

    def _vector_bracket(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * self.dim
        for (i, j), coeffs in self.brackets.items():
            factor = u[i] * v[j] - u[j] * v[i]
            if factor:
                for m, c in enumerate(coeffs):
                    if c:
                        out[m] += factor * c
        return out

    def _check_jacobi(self):
        for i, j, k in itertools.combinations(range(self.dim), 3):
            total = [Fraction(0)] * self.dim
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                # [[E_a, E_b], E_c] = sum_m [E_a, E_b]^m [E_m, E_c]
                for m, coeff in enumerate(self.basis_bracket(a, b)):
                    if coeff:
                        for t, outer in enumerate(self.basis_bracket(m, c)):
                            total[t] += coeff * outer
            if any(total):
                raise GeometryError(f"Jacobi identity fails on basis triple ({i},{j},{k})")

    # -- ring helpers ---------------------------------------------------------

    def zero_poly(self) -> MultiPoly:
        return MultiPoly.zero(self.variables)

    def const_poly(self, value) -> MultiPoly:
        return MultiPoly.const(self.variables, value)

    def parse(self, text: str) -> MultiPoly:
        from .poly import parse_poly

        return parse_poly(text, self.variables)


def chart_context(variables: Sequence[str]) -> FrameContext:
    return FrameContext(POLYNOMIAL_CHART, len(variables), tuple(variables), ())

def algebra_context(
    dim: int, brackets: Mapping[tuple[int, int], Sequence[Fraction]] | None = None
) -> FrameContext:
    table = tuple(
        sorted((i, j, tuple(Fraction(c) for c in coeffs)) for (i, j), coeffs in (brackets or {}).items())
    )
    return FrameContext(CONSTANT_FRAME, dim, (), table)


def _require_same_context(*objects):
    ctx = objects[0].context
    for obj in objects[1:]:
        if obj.context != ctx:
            raise ContextMismatch("objects live in different frame contexts")
    return ctx


class VectorField:
    """A vector field given by its components in the frame."""

    __slots__ = ("context", "components")

    def __init__(self, context: FrameContext, components: Sequence[MultiPoly]):
        components = tuple(components)
        if len(components) != context.dim:
            raise GeometryError("component count does not match dimension")
        # A constant-frame context has no variables, so this ring check alone
        # forces its components to be constant.
        for c in components:
            if c.variables != context.variables:
                raise PolyError("component lives in the wrong ring")
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "components", components)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("VectorField is immutable")

    @classmethod
    def from_rationals(cls, context: FrameContext, values: Sequence) -> "VectorField":
        return cls(context, [context.const_poly(v) for v in values])

    @classmethod
    def basis(cls, context: FrameContext, index: int) -> "VectorField":
        return cls.from_rationals(
            context, [1 if i == index else 0 for i in range(context.dim)]
        )

    def __add__(self, other: "VectorField") -> "VectorField":
        _require_same_context(self, other)
        return VectorField(self.context, [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "VectorField") -> "VectorField":
        _require_same_context(self, other)
        return VectorField(self.context, [a - b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "VectorField":
        return VectorField(self.context, [-a for a in self.components])

    def scale(self, factor) -> "VectorField":
        """Multiply by a polynomial or rational scalar."""
        if isinstance(factor, MultiPoly):
            return VectorField(self.context, [factor * a for a in self.components])
        return VectorField(self.context, [a.scale(factor) for a in self.components])

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.context == other.context and self.components == other.components

    def __hash__(self):
        return hash((self.context, self.components))

    def __repr__(self) -> str:
        return "VectorField(" + ", ".join(str(c) for c in self.components) + ")"


def basis_fields(context: FrameContext) -> tuple[VectorField, ...]:
    return tuple(VectorField.basis(context, i) for i in range(context.dim))


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

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("EndoField is immutable")

    @classmethod
    def identity(cls, context: FrameContext) -> "EndoField":
        return cls(context, PolyMatrix.identity(context.dim, context.variables))

    def apply(self, x: VectorField) -> VectorField:
        _require_same_context(self, x)
        return VectorField(self.context, self.matrix.matvec(list(x.components)))

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

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("BilinearField is immutable")

    def value(self, x: VectorField, y: VectorField) -> MultiPoly:
        _require_same_context(self, x, y)
        acc = self.context.zero_poly()
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
    """[X, Y], exact on both backends."""
    ctx = _require_same_context(x, y)
    if ctx.backend == POLYNOMIAL_CHART:
        comps = []
        for i in range(ctx.dim):
            acc = ctx.zero_poly()
            yi = y.components[i]
            xi = x.components[i]
            for k, name in enumerate(ctx.variables):
                xk = x.components[k]
                yk = y.components[k]
                if not xk.is_zero:
                    dyi = yi.derivative(name)
                    if not dyi.is_zero:
                        acc = acc + xk * dyi
                if not yk.is_zero:
                    dxi = xi.derivative(name)
                    if not dxi.is_zero:
                        acc = acc - yk * dxi
            comps.append(acc)
        return VectorField(ctx, comps)
    out = [ctx.zero_poly() for _ in range(ctx.dim)]
    for (i, j), coeffs in ctx.brackets.items():
        factor = x.components[i] * y.components[j] - x.components[j] * y.components[i]
        if factor.is_zero:
            continue
        for m, c in enumerate(coeffs):
            if c:
                out[m] = out[m] + factor.scale(c)
    return VectorField(ctx, out)


def directional_derivative(x: VectorField, f: MultiPoly) -> MultiPoly:
    """X(f): derivative of a scalar along a field (zero on the constant backend)."""
    ctx = x.context
    if f.variables != ctx.variables:
        raise PolyError("scalar lives in the wrong ring")
    if ctx.backend == CONSTANT_FRAME:
        return ctx.zero_poly()
    acc = ctx.zero_poly()
    for k, name in enumerate(ctx.variables):
        xk = x.components[k]
        if xk.is_zero:
            continue
        df = f.derivative(name)
        if not df.is_zero:
            acc = acc + xk * df
    return acc


def dual_pairing(frame: EndoField, index: int, x: VectorField) -> MultiPoly:
    """Coefficient of ``x`` along frame column ``index`` (0-based).

    Only frames with polynomial inverses are in scope (unipotent or constant
    invertible); everything else raises :class:`LinAlgError`.
    """
    _require_same_context(frame, x)
    inverse = poly_matrix_inverse(frame.matrix)
    row = inverse.row(index)
    acc = frame.context.zero_poly()
    for entry, comp in zip(row, x.components):
        if not (entry.is_zero or comp.is_zero):
            acc = acc + entry * comp
    return acc


# ---------------------------------------------------------------------------
# Polynomial diffeomorphisms
# ---------------------------------------------------------------------------


class PolyMap:
    """A diffeomorphism with exact polynomial forward and inverse data.

    Chart backend: ``forward`` lists the target coordinates as polynomials in
    the source variables, ``inverse`` the other way round; both compositions
    are verified to be the identity.  Constant backend: a bracket-preserving
    invertible matrix and its exact inverse.
    """

    def __init__(
        self,
        source: FrameContext,
        target: FrameContext,
        forward: Sequence[MultiPoly] | None = None,
        inverse: Sequence[MultiPoly] | None = None,
        matrix: Sequence[Sequence[Fraction]] | None = None,
        matrix_inverse: Sequence[Sequence[Fraction]] | None = None,
    ):
        if source.backend != target.backend or source.dim != target.dim:
            raise GeometryError("map endpoints must share backend and dimension")
        self.source = source
        self.target = target
        if source.backend == POLYNOMIAL_CHART:
            if forward is None or inverse is None:
                raise GeometryError("chart map needs forward and inverse component lists")
            self.forward = tuple(forward)
            self.inverse = tuple(inverse)
            self.matrix = None
            self.matrix_inverse = None
            self._validate_chart()
        else:
            if matrix is None:
                raise GeometryError("constant-frame map needs a matrix")
            self.forward = None
            self.inverse = None
            self.matrix = [[Fraction(v) for v in row] for row in matrix]
            self.matrix_inverse = (
                [[Fraction(v) for v in row] for row in matrix_inverse]
                if matrix_inverse is not None
                else rat_inverse(self.matrix)
            )
            self._validate_constant()

    def _validate_chart(self):
        dim = self.source.dim
        if len(self.forward) != dim or len(self.inverse) != dim:
            raise GeometryError("map component count does not match dimension")
        for f in self.forward:
            if f.variables != self.source.variables:
                raise PolyError("forward components must use source variables")
        for g in self.inverse:
            if g.variables != self.target.variables:
                raise PolyError("inverse components must use target variables")
        to_source = dict(zip(self.source.variables, self.inverse))
        for name, f in zip(self.target.variables, self.forward):
            if f.substitute(to_source) != MultiPoly.var(self.target.variables, name):
                raise GeometryError("forward o inverse is not the identity")
        to_target = dict(zip(self.target.variables, self.forward))
        for name, g in zip(self.source.variables, self.inverse):
            if g.substitute(to_target) != MultiPoly.var(self.source.variables, name):
                raise GeometryError("inverse o forward is not the identity")

    def _validate_constant(self):
        dim = self.source.dim
        product = rat_matmul(self.matrix, self.matrix_inverse)
        for i in range(dim):
            for j in range(dim):
                if product[i][j] != (1 if i == j else 0):
                    raise GeometryError("matrix and matrix_inverse are not inverse")
        # Lie algebra morphism: L[E_i, E_j]_src = [L E_i, L E_j]_tgt, exactly.
        cols = [[self.matrix[r][c] for r in range(dim)] for c in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                left = self.source.basis_bracket(i, j)
                mapped = [
                    sum((self.matrix[r][m] * left[m] for m in range(dim)), Fraction(0))
                    for r in range(dim)
                ]
                right = self.target._vector_bracket(cols[i], cols[j])
                if mapped != right:
                    raise GeometryError(
                        f"map does not preserve brackets on basis pair ({i},{j})"
                    )

    # -- derived data ---------------------------------------------------------

    @cached_property
    def _sub_inverse(self) -> dict[str, MultiPoly]:
        """source variable -> inverse expression (in target variables)."""
        return dict(zip(self.source.variables, self.inverse))

    @cached_property
    def _sub_forward(self) -> dict[str, MultiPoly]:
        return dict(zip(self.target.variables, self.forward))

    @cached_property
    def jacobian_at_inverse(self) -> PolyMatrix:
        """D(forward) composed with the inverse map, in target variables."""
        rows = []
        for f in self.forward:
            rows.append(
                [f.derivative(v).substitute(self._sub_inverse) for v in self.source.variables]
            )
        return PolyMatrix.from_rows(rows)

    @cached_property
    def jacobian_of_inverse(self) -> PolyMatrix:
        rows = []
        for g in self.inverse:
            rows.append([g.derivative(v) for v in self.target.variables])
        return PolyMatrix.from_rows(rows)

    def compose(self, inner: "PolyMap") -> "PolyMap":
        """self o inner (apply ``inner`` first)."""
        if inner.target != self.source:
            raise GeometryError("maps are not composable")
        if self.source.backend == POLYNOMIAL_CHART:
            forward = [f.substitute(inner._sub_forward) for f in self.forward]
            inverse = [g.substitute(self._sub_inverse) for g in inner.inverse]
            return PolyMap(inner.source, self.target, forward=forward, inverse=inverse)
        return PolyMap(
            inner.source,
            self.target,
            matrix=rat_matmul(self.matrix, inner.matrix),
            matrix_inverse=rat_matmul(inner.matrix_inverse, self.matrix_inverse),
        )

    def inverted(self) -> "PolyMap":
        if self.source.backend == POLYNOMIAL_CHART:
            return PolyMap(self.target, self.source, forward=self.inverse, inverse=self.forward)
        return PolyMap(
            self.target, self.source, matrix=self.matrix_inverse, matrix_inverse=self.matrix
        )


def identity_map(context: FrameContext) -> PolyMap:
    if context.backend == POLYNOMIAL_CHART:
        fields = [MultiPoly.var(context.variables, v) for v in context.variables]
        return PolyMap(context, context, forward=fields, inverse=fields)
    eye = [
        [Fraction(1) if i == j else Fraction(0) for j in range(context.dim)]
        for i in range(context.dim)
    ]
    return PolyMap(context, context, matrix=eye, matrix_inverse=eye)


def pushforward_vector(m: PolyMap, x: VectorField) -> VectorField:
    if x.context != m.source:
        raise ContextMismatch("field does not live on the map source")
    if m.source.backend == CONSTANT_FRAME:
        values = [
            sum(
                (Fraction(m.matrix[i][k]) * x.components[k].constant_value() for k in range(m.source.dim)),
                Fraction(0),
            )
            for i in range(m.source.dim)
        ]
        return VectorField.from_rationals(m.target, values)
    moved = [c.substitute(m._sub_inverse) for c in x.components]
    return VectorField(m.target, m.jacobian_at_inverse.matvec(moved))


def pushforward_endo(m: PolyMap, e: EndoField) -> EndoField:
    if e.context != m.source:
        raise ContextMismatch("field does not live on the map source")
    if m.source.backend == CONSTANT_FRAME:
        rows = rat_matmul(rat_matmul(m.matrix, e.matrix.constant_rows()), m.matrix_inverse)
        return EndoField(m.target, PolyMatrix.from_rational_rows(rows, m.target.variables))
    moved = e.matrix.substitute(m._sub_inverse)
    # D(inverse) is the pointwise inverse Jacobian: no matrix inversion needed.
    out = m.jacobian_at_inverse @ moved @ m.jacobian_of_inverse
    return EndoField(m.target, out)


def pushforward_bilinear(m: PolyMap, g: BilinearField) -> BilinearField:
    if g.context != m.source:
        raise ContextMismatch("field does not live on the map source")
    if m.source.backend == CONSTANT_FRAME:
        rows = rat_matmul(
            rat_matmul(_transpose(m.matrix_inverse), g.matrix.constant_rows()),
            m.matrix_inverse,
        )
        return BilinearField(m.target, PolyMatrix.from_rational_rows(rows, m.target.variables))
    moved = g.matrix.substitute(m._sub_inverse)
    jac_inv = m.jacobian_of_inverse
    return BilinearField(m.target, jac_inv.transpose() @ moved @ jac_inv)


def _transpose(rows):
    return [list(col) for col in zip(*rows)]
