"""Exact sparse multivariate polynomials over the rationals.

Every tensor component in this package is a :class:`MultiPoly`: a map from
exponent vectors to nonzero ``fractions.Fraction`` coefficients, over a fixed
ordered tuple of variable names.  The zero polynomial is the empty map.
Arithmetic is exact, so every identity checked by the library is a decidable
equality of canonical forms; no tolerances appear anywhere.

Serialization uses the graded lexicographic term order (total degree first,
lexicographic on exponent vectors as tie-break, highest first), which makes
printed output deterministic across platforms.  ``parse_poly`` and ``str()``
round-trip on canonical forms.

A polynomial with an empty variable tuple is a plain rational constant; the
constant-frame backend of :mod:`bipara.geometry` uses that degenerate ring.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul
from typing import Callable, Mapping, Sequence

Exponent = tuple[int, ...]

__all__ = [
    "MultiPoly",
    "PolyError",
    "PolyParseError",
    "parse_poly",
]


class PolyError(ValueError):
    """Raised on ill-formed polynomial operations (variable mismatch etc.)."""


class PolyParseError(PolyError):
    """Raised by :func:`parse_poly`; carries the byte offset of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise PolyError(f"cannot use {value!r} as an exact rational coefficient")


class MultiPoly:
    """A multivariate polynomial with exact rational coefficients.

    Immutable after construction.  ``terms`` maps exponent tuples (one entry
    per variable) to nonzero coefficients; zero is the empty map.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, Fraction]):
        variables = tuple(variables)
        nvars = len(variables)
        clean: dict[Exponent, Fraction] = {}
        for exps, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            exps = tuple(exps)
            if len(exps) != nvars:
                raise PolyError(
                    f"exponent vector {exps} has length {len(exps)}, expected {nvars}"
                )
            if any(e < 0 for e in exps):
                raise PolyError(f"negative exponent in {exps}")
            clean[exps] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], terms: dict[Exponent, Fraction]) -> "MultiPoly":
        """Wrap terms that are canonical by construction, without re-checking them.

        Only for results of ring operations on validated polynomials of the
        ring ``variables``: every coefficient a nonzero ``Fraction``, every
        exponent vector a tuple of ``len(variables)`` nonnegative ints.
        """
        poly = object.__new__(cls)
        _set_variables(poly, variables)
        _set_terms(poly, terms)
        return poly

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        """The zero of the ring, one shared instance per variable tuple."""
        variables = tuple(variables)
        shared = _ZEROS.get(variables)
        if shared is None:
            shared = _ZEROS[variables] = cls(variables, {})
        return shared

    @classmethod
    def const(cls, variables: Sequence[str], value) -> "MultiPoly":
        value = _as_fraction(value)
        if value == 0:
            return cls(variables, {})
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        variables = tuple(variables)
        try:
            idx = variables.index(name)
        except ValueError:
            raise PolyError(f"unknown variable {name!r}") from None
        exps = [0] * len(variables)
        exps[idx] = 1
        return cls(variables, {tuple(exps): Fraction(1)})

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a degree-0 polynomial, as an exact rational."""
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant:
            raise PolyError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        return max(sum(e) for e in self.terms)

    def constant_part(self) -> Fraction:
        """Coefficient of the constant monomial (0 if absent)."""
        return self.terms.get((0,) * len(self.variables), Fraction(0))

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise PolyError(
                    f"variable mismatch: {self.variables} vs {other.variables}"
                )
            return other
        return MultiPoly.const(self.variables, other)

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            old = out.get(exps)
            if old is None:
                out[exps] = coeff
                continue
            agg = old + coeff
            if agg:
                out[exps] = agg
            else:
                del out[exps]
        return MultiPoly._trusted(self.variables, out)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            old = out.get(exps)
            if old is None:
                out[exps] = -coeff
                continue
            agg = old - coeff
            if agg:
                out[exps] = agg
            else:
                del out[exps]
        return MultiPoly._trusted(self.variables, out)

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other).__sub__(self)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.variables, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return MultiPoly.zero(self.variables)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(add, e1, e2))
                old = out.get(exps)
                if old is None:
                    out[exps] = c1 * c2
                else:
                    agg = old + c1 * c2
                    if agg:
                        out[exps] = agg
                    else:
                        del out[exps]
        return MultiPoly._trusted(self.variables, out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MultiPoly":
        scalar = _as_fraction(other)
        if scalar == 0:
            raise ZeroDivisionError("division of polynomial by zero")
        return self.scale(Fraction(1) / scalar)

    def __pow__(self, power: int) -> "MultiPoly":
        if not isinstance(power, int) or power < 0:
            raise PolyError(f"polynomial exponent must be a nonnegative int, got {power}")
        return _power(self, power, mul)

    def scale(self, scalar) -> "MultiPoly":
        scalar = _as_fraction(scalar)
        if scalar == 0:
            return MultiPoly.zero(self.variables)
        return MultiPoly._trusted(self.variables, {e: c * scalar for e, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.constant_value() == other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    # -- calculus ------------------------------------------------------------

    def derivative(self, name: str) -> "MultiPoly":
        """Exact partial derivative with respect to the named variable."""
        try:
            idx = self.variables.index(name)
        except ValueError:
            raise PolyError(f"unknown variable {name!r}") from None
        out: dict[Exponent, Fraction] = {}
        for exps, coeff in self.terms.items():
            k = exps[idx]
            if k == 0:
                continue
            lowered = list(exps)
            lowered[idx] = k - 1
            out[tuple(lowered)] = coeff * k
        return MultiPoly._trusted(self.variables, out)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """Evaluate at a rational point (one value per variable)."""
        if len(point) != len(self.variables):
            raise PolyError(
                f"point has {len(point)} coordinates, expected {len(self.variables)}"
            )
        point = [_as_fraction(v) for v in point]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            value = coeff
            for base, e in zip(point, exps):
                if e:
                    value *= base**e
            total += value
        return total

    def substitute(self, images: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Compose: replace every variable by its image polynomial.

        All images must share one variable tuple, which becomes the variable
        tuple of the result.  Every variable of ``self`` must be mapped.
        """
        missing = [v for v in self.variables if v not in images]
        if missing:
            raise PolyError(f"substitution images missing for {missing}")
        if not self.variables:
            target_vars: tuple[str, ...] = ()
        else:
            target_vars = next(iter(images.values())).variables
        for img in images.values():
            if img.variables != target_vars:
                raise PolyError("substitution images live in different rings")
        acc = MultiPoly.zero(target_vars)
        for exps, coeff in self.terms.items():
            term = MultiPoly.const(target_vars, coeff)
            for name, e in zip(self.variables, exps):
                if e:
                    term = term * images[name] ** e
            acc = acc + term
        return acc

    # -- printing ------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in canonical (graded lexicographic, descending) order."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def _monomial_str(self, exps: Exponent) -> str:
        parts = []
        for name, e in zip(self.variables, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        chunks: list[str] = []
        for i, (exps, coeff) in enumerate(self.sorted_terms()):
            mono = self._monomial_str(exps)
            mag = abs(coeff)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if i == 0:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"MultiPoly({self.variables!r}, {dict(self.terms)!r})"


def _power(base: MultiPoly, exponent: int, multiply: Callable) -> MultiPoly:
    """``base ** exponent`` by repeated squaring, every product by ``multiply``."""
    result = MultiPoly.const(base.variables, 1)
    while exponent:
        if exponent & 1:
            result = multiply(result, base)
        exponent >>= 1
        if exponent:
            base = multiply(base, base)
    return result


# The slot setters, called directly: on the hot path of every ring operation
# they cost less than object.__setattr__.
_set_variables = MultiPoly.variables.__set__
_set_terms = MultiPoly.terms.__set__
_ZEROS: dict[tuple[str, ...], MultiPoly] = {}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------
#
# Grammar (whitespace insensitive, no implicit multiplication):
#
#   expr    := term (('+' | '-') term)*
#   term    := factor ('*' factor)*
#   factor  := '-' factor | primary ('^' NAT)?
#   primary := RATIONAL | NAME | '(' expr ')'
#   RATIONAL := INT ('/' INT)?          (the '/' is only a literal separator)


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("end", None, self.pos)
        ch = self.text[self.pos]
        start = self.pos
        if ch.isdigit():
            j = start
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            return ("number", self.text[start:j], start)
        if ch.isalpha() or ch == "_":
            j = start
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            return ("name", self.text[start:j], start)
        if ch in "+-*^()/":
            return (ch, ch, start)
        raise PolyParseError(f"unexpected character {ch!r}", start)

    def next(self):
        kind, value, start = self.peek()
        if kind == "end":
            return kind, value, start
        self.pos = start + (len(value) if value else 0)
        return kind, value, start


# Parentheses and unary minus each recurse; a bound well below the interpreter's
# recursion limit turns hostile nesting into a parse error.
MAX_NESTING = 100
# Expansion work is bounded per expression: the largest '^' exponent, and the
# term products (len(a.terms) * len(b.terms) summed over every multiplication
# the expression needs).  Benchmark specs need at most 6 and about 800.
MAX_EXPONENT = 100
MAX_TERM_PRODUCTS = 50_000
# Coefficient size is bounded too, so every coefficient stays printable: a
# numerator or denominator above this many bits (about 1,233 decimal digits)
# is rejected on literals and after every product, before '^' can square it.
MAX_COEFFICIENT_BITS = 4096


def _bounded(poly: MultiPoly, start: int) -> MultiPoly:
    for c in poly.terms.values():
        if max(c.numerator.bit_length(), c.denominator.bit_length()) > MAX_COEFFICIENT_BITS:
            raise PolyParseError(
                f"coefficient above MAX_COEFFICIENT_BITS = {MAX_COEFFICIENT_BITS} bits", start
            )
    return poly


def _integer(digits: str, start: int) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter's int conversion limit
        raise PolyParseError(f"number of {len(digits)} digits is too long", start) from None


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.lexer = _Lexer(text)
        self.variables = tuple(variables)
        self.depth = 0
        self.term_products = 0

    def _nest(self, start: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise PolyParseError(f"nesting deeper than {MAX_NESTING}", start)

    def _multiply(self, a: MultiPoly, b: MultiPoly, start: int) -> MultiPoly:
        self.term_products += len(a.terms) * len(b.terms)
        if self.term_products > MAX_TERM_PRODUCTS:
            raise PolyParseError(
                f"expansion needs more than MAX_TERM_PRODUCTS = {MAX_TERM_PRODUCTS} term products",
                start,
            )
        return _bounded(a * b, start)

    def parse(self) -> MultiPoly:
        poly = self._expr()
        kind, value, start = self.lexer.peek()
        if kind != "end":
            raise PolyParseError(f"unexpected {value!r} after expression", start)
        return poly

    def _expr(self) -> MultiPoly:
        acc = self._term()
        while True:
            kind, _, _ = self.lexer.peek()
            if kind == "+":
                self.lexer.next()
                acc = acc + self._term()
            elif kind == "-":
                self.lexer.next()
                acc = acc - self._term()
            else:
                return acc

    def _term(self) -> MultiPoly:
        acc = self._factor()
        while True:
            kind, _, start = self.lexer.peek()
            if kind == "*":
                self.lexer.next()
                acc = self._multiply(acc, self._factor(), start)
            else:
                return acc

    def _factor(self) -> MultiPoly:
        kind, _, start = self.lexer.peek()
        if kind == "-":
            self.lexer.next()
            self._nest(start)
            negated = -self._factor()
            self.depth -= 1
            return negated
        base = self._primary()
        kind, _, caret = self.lexer.peek()
        if kind == "^":
            self.lexer.next()
            kind, value, start = self.lexer.next()
            if kind != "number":
                raise PolyParseError("exponent must be a nonnegative integer", start)
            exponent = _integer(value, start)
            if exponent > MAX_EXPONENT:
                raise PolyParseError(f"exponent above MAX_EXPONENT = {MAX_EXPONENT}", start)
            return _power(base, exponent, lambda a, b: self._multiply(a, b, caret))
        return base

    def _primary(self) -> MultiPoly:
        kind, value, start = self.lexer.next()
        if kind == "number":
            numerator = _integer(value, start)
            kind2, _, _ = self.lexer.peek()
            if kind2 == "/":
                self.lexer.next()
                kind3, value3, start3 = self.lexer.next()
                if kind3 != "number":
                    raise PolyParseError("denominator must be an integer", start3)
                denominator = _integer(value3, start3)
                if denominator == 0:
                    raise PolyParseError("zero denominator", start3)
                return _bounded(
                    MultiPoly.const(self.variables, Fraction(numerator, denominator)), start
                )
            return _bounded(MultiPoly.const(self.variables, numerator), start)
        if kind == "name":
            if value not in self.variables:
                raise PolyParseError(f"unknown variable {value!r}", start)
            return MultiPoly.var(self.variables, value)
        if kind == "(":
            self._nest(start)
            inner = self._expr()
            kind2, _, start2 = self.lexer.next()
            if kind2 != ")":
                raise PolyParseError("expected ')'", start2)
            self.depth -= 1
            return inner
        raise PolyParseError(
            "expected a number, variable or parenthesized expression", start
        )


def parse_poly(text: str, variables: Sequence[str]) -> MultiPoly:
    """Parse an expression string into canonical form.

    Raises :class:`PolyParseError` (with a byte offset) on syntax errors or
    unknown variable names.
    """
    return _Parser(text, variables).parse()
