"""Exact sparse multivariate polynomials over the rationals.

Every tensor component in this package is a :class:`MultiPoly`: a map from
exponent vectors to nonzero exact rational coefficients, over a fixed ordered
tuple of variable names.  The zero polynomial is the empty map.  Arithmetic is
exact, so every identity checked by the library is a decidable equality of
canonical forms; no tolerances appear anywhere.

A coefficient has one canonical form: a Python ``int`` when it is integral,
otherwise a ``fractions.Fraction`` with denominator > 1.  Integral
coefficients, the large majority in practice, so stay on ``int`` arithmetic,
with no gcd and no ``Fraction`` construction.  ``int`` and ``Fraction`` agree
on ``==``, ``hash``, ``str``, ``numerator`` and ``denominator``.

Serialization uses the graded lexicographic term order (total degree first,
lexicographic on exponent vectors as tie-break, highest first), which makes
printed output deterministic across platforms.  ``parse_poly`` and ``str()``
round-trip on canonical forms.

A polynomial with an empty variable tuple is a plain rational constant; the
constant-frame backend of :mod:`bipara.geometry` uses that degenerate ring.
"""

from __future__ import annotations

import re
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


def _as_rational(value) -> int | Fraction:
    """``value`` in canonical coefficient form: an ``int`` if integral, else a ``Fraction``."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise PolyError(f"cannot use {value!r} as an exact rational coefficient")


def _canonical(terms: dict[Exponent, int | Fraction]) -> dict[Exponent, int | Fraction]:
    """Turn the integral ``Fraction`` values of ``terms`` into ``int``, in place.

    A sum or product with a ``Fraction`` operand is a ``Fraction`` even when it
    is integral (1/2 + 1/2, 3/2 * 2); ``int`` with ``int`` never needs this.
    """
    for exps, coeff in terms.items():
        if type(coeff) is Fraction and coeff.denominator == 1:
            terms[exps] = coeff.numerator
    return terms


def _is_one(terms: dict[Exponent, int | Fraction]) -> bool:
    """Whether the canonical ``terms`` are the constant 1."""
    if len(terms) != 1:
        return False
    ((exps, coeff),) = terms.items()
    return coeff == 1 and not any(exps)


def _merge(
    out: dict[Exponent, int | Fraction], terms: Mapping[Exponent, int | Fraction], negate: bool
) -> dict[Exponent, int | Fraction]:
    """Add ``terms``, or their negatives when ``negate``, into the canonical ``out`` in place."""
    for exps, coeff in terms.items():
        if negate:
            coeff = -coeff
        old = out.get(exps)
        if old is None:
            out[exps] = coeff
            continue
        agg = old + coeff
        # Only merged entries can change form, so they are normalized as
        # formed; a _canonical pass would also visit every copied entry.
        if not agg:
            del out[exps]
        elif type(agg) is Fraction and agg.denominator == 1:
            out[exps] = agg.numerator
        else:
            out[exps] = agg
    return out


class MultiPoly:
    """A multivariate polynomial with exact rational coefficients.

    Immutable after construction.  ``terms`` maps exponent tuples (one entry
    per variable) to nonzero coefficients, each an ``int`` when integral and a
    ``Fraction`` otherwise; zero is the empty map.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, int | Fraction]):
        variables = tuple(variables)
        nvars = len(variables)
        clean: dict[Exponent, int | Fraction] = {}
        for exps, coeff in terms.items():
            coeff = _as_rational(coeff)
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

    __delattr__ = __setattr__

    @classmethod
    def _trusted(
        cls, variables: tuple[str, ...], terms: dict[Exponent, int | Fraction]
    ) -> "MultiPoly":
        """Wrap terms that are canonical by construction, without re-checking them.

        Only for results of ring operations on validated polynomials of the
        ring ``variables``: every coefficient nonzero and in canonical form (an
        ``int`` if integral, else a ``Fraction``; see :func:`_canonical`), every
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
            shared = _ZEROS[variables] = cls._trusted(variables, {})
        return shared

    @classmethod
    def const(cls, variables: Sequence[str], value) -> "MultiPoly":
        """The constant ``value``; its one exponent vector is canonical by construction."""
        variables = tuple(variables)
        value = _as_rational(value)
        if value == 0:
            return cls.zero(variables)
        return cls._trusted(variables, {(0,) * len(variables): value})

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        """The variable ``name`` of the ring, one shared instance per (ring, name)."""
        variables = tuple(variables)
        shared = _VARS.get((variables, name))
        if shared is None:
            if name not in variables:
                raise PolyError(f"unknown variable {name!r}")
            exps = [0] * len(variables)
            exps[variables.index(name)] = 1
            shared = _VARS[variables, name] = cls._trusted(variables, {tuple(exps): 1})
        return shared

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> int | Fraction:
        """The value of a degree-0 polynomial, as an exact rational."""
        if self.is_zero:
            return 0
        if not self.is_constant:
            raise PolyError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def constant_part(self) -> int | Fraction:
        """Coefficient of the constant monomial (0 if absent)."""
        return self.terms.get((0,) * len(self.variables), 0)

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
        # Values are immutable, so a zero operand returns the other one as is.
        if not other.terms:
            return self
        if not self.terms:
            return other
        return MultiPoly._trusted(self.variables, _merge(dict(self.terms), other.terms, False))

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if not other.terms:
            return self
        if not self.terms:
            return -other
        return MultiPoly._trusted(self.variables, _merge(dict(self.terms), other.terms, True))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other).__sub__(self)

    def __neg__(self) -> "MultiPoly":
        if not self.terms:  # polynomials are immutable, so zero is its own negative
            return self
        return MultiPoly._trusted(self.variables, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return MultiPoly.zero(self.variables)
        # A unit operand (the one term 1; an integral coefficient is an int)
        # returns the other one as is, as a zero operand of + does.
        if _is_one(other.terms):
            return self
        if _is_one(self.terms):
            return other
        out: dict[Exponent, int | Fraction] = {}
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
        return MultiPoly._trusted(self.variables, _canonical(out))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MultiPoly":
        scalar = _as_rational(other)
        if scalar == 0:
            raise ZeroDivisionError("division of polynomial by zero")
        return self.scale(Fraction(1) / scalar)

    def __pow__(self, power: int) -> "MultiPoly":
        if not isinstance(power, int) or power < 0:
            raise PolyError(f"polynomial exponent must be a nonnegative int, got {power}")
        return _power(self, power, mul)

    def scale(self, scalar) -> "MultiPoly":
        scalar = _as_rational(scalar)
        if not self.terms:
            return self
        if scalar == 0:
            return MultiPoly.zero(self.variables)
        return MultiPoly._trusted(
            self.variables, _canonical({e: c * scalar for e, c in self.terms.items()})
        )

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
        if not self.terms:  # immutable, so zero is its own derivative
            return self
        out: dict[Exponent, int | Fraction] = {}
        for exps, coeff in self.terms.items():
            k = exps[idx]
            if k == 0:
                continue
            lowered = list(exps)
            lowered[idx] = k - 1
            out[tuple(lowered)] = coeff * k
        return MultiPoly._trusted(self.variables, _canonical(out))

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """Evaluate at a rational point (one value per variable)."""
        if len(point) != len(self.variables):
            raise PolyError(
                f"point has {len(point)} coordinates, expected {len(self.variables)}"
            )
        point = [_as_rational(v) for v in point]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            value = coeff
            for base, e in zip(point, exps):
                if e:
                    value *= base**e
            total += value
        return total

    def substitute(self, images: "Mapping[str, MultiPoly] | _Substitution") -> "MultiPoly":
        """Compose: replace every variable by its image polynomial.

        All images must share one variable tuple, which becomes the variable
        tuple of the result.  Every variable of ``self`` must be mapped.
        ``images`` is a mapping from names to images, checked on this call,
        or a :class:`_Substitution` prepared for this ring, checked once when
        it was made; both go through the same algorithm.
        """
        if not isinstance(images, _Substitution):
            images = _Substitution(self.variables, images)
        return images.apply(self)

    # -- printing ------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, int | Fraction]]:
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


class _Substitution:
    """The images of a ring's variables, checked and prepared once for many substitutions.

    ``MultiPoly.substitute`` runs every substitution through one of these; a
    ``PolyMap`` keeps one per direction, so the checks of its images, the
    powers of its images and the images of its monomials are made once per
    map, not once per call.

    An image of one term (a coordinate, a scaled power, a constant) only
    moves exponents and scales coefficients, and a zero image removes every
    term it meets.  The remaining, "moving", variables have images of several
    terms: the terms of a polynomial are grouped by their exponents in the
    moving variables, and each group is multiplied once by the image of that
    monomial, a product of expanded powers.
    """

    __slots__ = ("source", "target", "_steps", "_moving", "_images", "_monomials")

    def __init__(self, source: Sequence[str], images: Mapping[str, MultiPoly]):
        source = tuple(source)
        missing = [v for v in source if v not in images]
        if missing:
            raise PolyError(f"substitution images missing for {missing}")
        target = next(iter(images.values())).variables if source else ()
        for img in images.values():
            if img.variables != target:
                raise PolyError("substitution images live in different rings")
        self.source, self.target = source, target
        self._images = tuple(images[v] for v in source)
        # Per source variable: None for a moving variable, else the image's
        # nonzero (target index, exponent) pairs and its coefficient (0 for
        # a zero image).
        steps: list = []
        for img in self._images:
            if len(img.terms) > 1:
                steps.append(None)
            elif not img.terms:
                steps.append(((), 0))
            else:
                ((exps, coeff),) = img.terms.items()
                steps.append((tuple((j, a) for j, a in enumerate(exps) if a), coeff))
        self._steps = tuple(steps)
        self._moving = tuple(k for k, step in enumerate(steps) if step is None)
        # exponents in the moving variables -> the image of that monomial
        self._monomials: dict[Exponent, MultiPoly] = {}

    def _monomial(self, key: Exponent) -> MultiPoly:
        """The image of the monomial with exponents ``key`` in the moving variables.

        Made on first use and kept, as is each power of a moving image.
        """
        image = self._monomials.get(key)
        if image is not None:
            return image
        moving, monomials = self._moving, self._monomials
        for i, e in enumerate(key):
            if not e:
                continue
            single = (0,) * i + (e,) + (0,) * (len(key) - i - 1)
            power = monomials.get(single)
            if power is None:
                base = self._images[moving[i]]
                power = monomials[single] = base if e == 1 else _power(base, e, mul)
            image = power if image is None else image * power
        monomials[key] = image
        return image

    def apply(self, poly: MultiPoly) -> MultiPoly:
        """``poly`` with every variable replaced by its image."""
        if poly.variables != self.source:
            raise PolyError(
                f"substitution prepared for {self.source}, applied to a polynomial of {poly.variables}"
            )
        target = self.target
        if not poly.terms:
            return MultiPoly.zero(target)
        steps, moving, width = self._steps, self._moving, len(target)
        groups: dict[Exponent, dict[Exponent, int | Fraction]] = {}
        for exps, coeff in poly.terms.items():
            moved = [0] * width
            for e, step in zip(exps, steps):
                if not e or step is None:
                    continue
                shifts, scalar = step
                if not scalar:
                    break
                for j, a in shifts:
                    moved[j] += a * e
                if scalar != 1:
                    coeff *= scalar**e
            else:
                key = tuple([exps[k] for k in moving])
                group = groups.get(key)
                if group is None:
                    group = groups[key] = {}
                moved = tuple(moved)
                old = group.get(moved)
                group[moved] = coeff if old is None else old + coeff
        parts = []
        for key, group in groups.items():
            terms = _canonical({e: c for e, c in group.items() if c})
            if terms:
                part = MultiPoly._trusted(target, terms)
                parts.append(part * self._monomial(key) if any(key) else part)
        if len(parts) < 2:
            return parts[0] if parts else MultiPoly.zero(target)
        out = dict(parts[0].terms)
        for part in parts[1:]:
            _merge(out, part.terms, False)
        return MultiPoly._trusted(target, out)


# The slot setters, called directly: on the hot path of every ring operation
# they cost less than object.__setattr__.
_set_variables = MultiPoly.variables.__set__
_set_terms = MultiPoly.terms.__set__
_ZEROS: dict[tuple[str, ...], MultiPoly] = {}
_VARS: dict[tuple[tuple[str, ...], str], MultiPoly] = {}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------
#
# Grammar (whitespace insensitive, no implicit multiplication):
#
#   expr    := term (('+' | '-') term)*
#   term    := factor ('*' factor)*
#   factor  := '-' factor | primary ('^' NUMBER)?
#   primary := NUMBER ('/' NUMBER)? | NAME | '(' expr ')'
#
# Tokens, each scanned once by ``_TOKEN`` after whitespace (``str.isspace``):
#
#   NUMBER  := decimal digits, as int() reads them (\d: '٣' is 3)
#   NAME    := a letter or '_', then letters, digits or '_' (\w)
#   symbols := '+' '-' '*' '^' '(' ')' '/'    ('/' only separates a literal)
#
# Any other character, a superscript digit such as '²' included, is a "bad"
# token.  It raises "unexpected character" when the parser looks at it, not
# when it is scanned, so the checks of the tokens before it (an unknown name, a
# limit) come first.
#
# A term that starts with a canonical monomial, the form ``str(MultiPoly)``
# writes every term in, or with '-' and one (a negative first term), reads
# that monomial as one more token:
#
#   MONOMIAL := (NUMBER ('/' NUMBER)? '*')? power ('*' power)*
#   power    := NAME ('^' NUMBER)?      (ASCII first letter, no whitespace)
#
# It is built directly as one exponent tuple and coefficient, with the value
# and the term-product count that reading it token by token gives.  A monomial
# that a '^' follows, or that token by token would raise on, is declined and
# read token by token, so every message and offset is that route's.

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+)|(?P<name>\w+)|(?P<symbol>[-+*^()/])|(?P<bad>.))?", re.DOTALL
)
_POWER = r"[A-Za-z_]\w*(?:\^\d+)?"
_MONOMIAL = re.compile(rf"(?:(\d+)(?:/(\d+))?\*)?({_POWER}(?:\*{_POWER})*)")
_CARET = re.compile(r"\s*\^")


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


def _too_large(coeff: int | Fraction) -> bool:
    return max(coeff.numerator.bit_length(), coeff.denominator.bit_length()) > MAX_COEFFICIENT_BITS


def _bounded(poly: MultiPoly, start: int) -> MultiPoly:
    for c in poly.terms.values():
        if _too_large(c):
            raise PolyParseError(
                f"coefficient above MAX_COEFFICIENT_BITS = {MAX_COEFFICIENT_BITS} bits", start
            )
    return poly


def _power_products(k: int) -> int:
    """The term products ``_power`` spends on a one-term base: one per squaring and per set bit."""
    return k.bit_length() + k.bit_count() - 1 if k else 0


def _integer(digits: str, start: int) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter's int conversion limit
        raise PolyParseError(f"number of {len(digits)} digits is too long", start) from None


class _Parser:
    """Recursive descent over a token stream with one token of lookahead."""

    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
        self.variables = tuple(variables)
        self.depth = 0
        self.term_products = 0
        self.end = 0
        self._advance()

    def _advance(self) -> None:
        """Scan the next token into ``kind``, ``value`` and ``start``."""
        match = _TOKEN.match(self.text, self.end)
        self.end = match.end()
        group = match.lastgroup
        if group is None:
            self.kind, self.value, self.start = "end", None, self.end
            return
        self.start = match.start(group)
        self.value = value = match[group]
        if group == "symbol":
            self.kind = value
        elif group == "name" and not (value[0].isalpha() or value[0] == "_"):
            self.kind, self.value = "bad", value[0]  # a word character that starts no name: '²'
        else:
            self.kind = group

    def _peek(self) -> str:
        """The current token's kind; raises if it is a character that starts no token."""
        if self.kind == "bad":
            raise PolyParseError(f"unexpected character {self.value!r}", self.start)
        return self.kind

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
        if self._peek() != "end":
            raise PolyParseError(f"unexpected {self.value!r} after expression", self.start)
        return poly

    def _expr(self) -> MultiPoly:
        first = self._term()
        kind = self._peek()
        if kind != "+" and kind != "-":
            return first
        # One dict for the whole sum, with the terms, forms and order that
        # ``first + t2 - t3 ...`` gives, without copying it once per term.
        out = dict(first.terms)
        while kind == "+" or kind == "-":
            self._advance()
            _merge(out, self._term().terms, kind == "-")
            kind = self._peek()
        return MultiPoly._trusted(self.variables, out)

    def _term(self) -> MultiPoly:
        acc = self._monomial() if self.kind == "name" or self.kind == "number" else None
        if acc is None:
            acc = self._factor(leading=True)
        while self._peek() == "*":
            start = self.start
            self._advance()
            acc = self._multiply(acc, self._factor(), start)
        return acc

    def _monomial(self) -> MultiPoly | None:
        """The canonical monomial at the current token, read in one step, or None.

        None declines it: no monomial starts here, a '^' follows it, or token
        by token it would raise (an unknown name, a zero literal, a number
        int() does not read, MAX_EXPONENT, MAX_COEFFICIENT_BITS or
        MAX_TERM_PRODUCTS).  The caller then reads it token by token.
        """
        text, variables = self.text, self.variables
        match = _MONOMIAL.match(text, self.start)
        if match is None or _CARET.match(text, match.end()):
            return None
        numerator, denominator, powers = match.groups()
        if numerator is None and powers in variables:  # a lone variable: the shared instance
            self.end = match.end()
            self._advance()
            return MultiPoly.var(variables, powers)
        # token by token: 1 term product per '*', _power_products(k) per '^k'
        products = powers.count("*")
        coeff: int | Fraction = 1
        exps = [0] * len(variables)
        try:
            if numerator is not None:
                products += 1
                coeff = int(numerator)
                if denominator is not None:
                    coeff = _as_rational(Fraction(coeff, int(denominator)))
                if _too_large(coeff):
                    return None
            for power in powers.split("*"):
                name, caret, digits = power.partition("^")
                k = int(digits) if caret else 1
                if k > MAX_EXPONENT:
                    return None
                products += _power_products(k) if caret else 0
                exps[variables.index(name)] += k
        except (ValueError, ZeroDivisionError):  # too many digits or an unknown name; 1/0
            return None
        if not coeff or self.term_products + products > MAX_TERM_PRODUCTS:
            return None
        self.term_products += products
        self.end = match.end()
        self._advance()
        return MultiPoly._trusted(variables, {tuple(exps): coeff})

    def _factor(self, leading: bool = False) -> MultiPoly:
        """A factor; ``leading`` when it starts a term, where ``-<monomial>`` is one step.

        The monomial's factors each have one term, so -(c*x*y) and (-c)*x*y
        have the same value and cost the same term products.
        """
        if self._peek() == "-":
            self._nest(self.start)
            self._advance()
            inner = None
            if leading and (self.kind == "name" or self.kind == "number"):
                inner = self._monomial()
            negated = -(inner if inner is not None else self._factor())
            self.depth -= 1
            return negated
        base = self._primary()
        if self._peek() != "^":
            return base
        caret = self.start
        self._advance()
        if self._peek() != "number":
            raise PolyParseError("exponent must be a nonnegative integer", self.start)
        exponent = _integer(self.value, self.start)
        if exponent > MAX_EXPONENT:
            raise PolyParseError(f"exponent above MAX_EXPONENT = {MAX_EXPONENT}", self.start)
        self._advance()
        return _power(base, exponent, lambda a, b: self._multiply(a, b, caret))

    def _primary(self) -> MultiPoly:
        kind, value, start = self._peek(), self.value, self.start
        if kind == "number":
            value = _integer(value, start)
            self._advance()
            if self._peek() == "/":
                self._advance()
                if self._peek() != "number":
                    raise PolyParseError("denominator must be an integer", self.start)
                denominator = _integer(self.value, self.start)
                if denominator == 0:
                    raise PolyParseError("zero denominator", self.start)
                value = Fraction(value, denominator)
                self._advance()
            return _bounded(MultiPoly.const(self.variables, value), start)
        if kind == "name":
            if value not in self.variables:
                raise PolyParseError(f"unknown variable {value!r}", start)
            self._advance()
            return MultiPoly.var(self.variables, value)
        if kind == "(":
            self._nest(start)
            self._advance()
            inner = self._expr()
            if self._peek() != ")":
                raise PolyParseError("expected ')'", self.start)
            self.depth -= 1
            self._advance()
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
