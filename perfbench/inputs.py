"""Seeded inputs for the benchmark workloads, and the known answers they carry.

Every workload is a fixed list of ``Op`` values: one CLI command each, with
the spec and map files it reads written into a work directory.  The list is
a pure function of the workload name and the seed, so the same seed gives the
same files byte for byte.  Each op also carries the answers that are known
by construction (which verdicts must hold), so the run can check outputs
without trusting the code under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from bipara import (
    BilinearField,
    BiparaStructure,
    EndoField,
    MultiPoly,
    PolyMap,
    PolyMatrix,
    build_orthogonal_metric,
    chart_context,
    parse_poly,
    pushforward_structure,
    random_structure,
)
from bipara.cli import load_spec
from bipara.structure import _random_bracket_table

WORKLOADS = ("frame_report", "chart_equivalence")

# Ladders: one entry per op of a pass.  Each entry fixes the shape of its
# input (size, family, map pattern) and the seed draws the rest, so the cost
# of a pass depends little on the seed; sizes repeat so that the median and
# the tail land inside one cost class (see README.md).
#
# frame_report: (n, bracket family of random_structure, conjugated).
# The conjugated entry sits below the middle of the pass: a random constant
# conjugation moves the cost of a report from seed to seed (n = 3 nilpotent:
# poly.construct.calls by up to 1.27x).
FRAME_LADDER = (
    (3, "solvable", False),
    (3, "nilpotent", True),
    (4, "nilpotent", False),
    (4, "affine", False),
    (4, "abelian", False),
    (4, "solvable", False),
    (5, "nilpotent", False),
    (6, "nilpotent", False),
)
# chart_equivalence: (n, map degree, map carries A to B), A a nilpotent
# frame; the map shifts y_n by c * l(x)^degree.  A quarter of the pairs get
# a wrong map.  The degree-4 map at n = 4 and the degree-3 map at n = 5 give
# spec entries of 105-120 terms; the two right (4, 4) pairs form the middle
# of the pass.
EQUIVALENCE_LADDER = (
    (4, 4, False),
    (4, 4, True),
    (4, 4, True),
    (5, 3, True),
)
REPORT_ROUTES = {"well_adapted_routes_agree": True, "trace_condition_well_adapted": True}
# Integrability of each random_structure family, by construction: abelian is
# flat; nilpotent ([X_i, X_j] in the Y span) and affine ([X_1, X_j] = c X_1,
# which breaks the P eigendistributions) are not integrable, so not flat;
# solvable ([X_1, Y_1] = a X_1 + b Y_1) is integrable.
FAMILY_ANSWERS = {
    "abelian": {"integrable": True, "flat": True},
    "nilpotent": {"integrable": False, "flat": False},
    "affine": {"integrable": False, "flat": False},
    "solvable": {"integrable": True},
}

# Coefficient magnitudes, taken in turn by position; the seed draws only the
# signs.  Which magnitudes meet in a product sets the size of the Fractions an
# op works on, so random magnitudes made an op's cost depend on its seed.
MAGNITUDES = (Fraction(1), Fraction(2), Fraction(1, 2))


def _coeff(rng: random.Random, position: int) -> Fraction:
    return rng.choice((1, -1)) * MAGNITUDES[position % len(MAGNITUDES)]


@dataclass
class Op:
    """One CLI command and what its output must say."""

    key: str
    argv: list[str]
    expect: dict[str, bool]
    echo: dict | None = None  # F and P the report must echo back
    terms: int = 0  # polynomial terms in the files the op reads
    largest: int = 0  # terms of the largest polynomial among them


class InputError(RuntimeError):
    """A generated input did not read back as written."""


# ---------------------------------------------------------------------------
# Spec writing
# ---------------------------------------------------------------------------


def _strings(m: PolyMatrix) -> list[list[str]]:
    return [[str(m.get(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def _term_counts(m: PolyMatrix) -> list[int]:
    return [len(e.terms) for e in m.entries]


def spec_json(s: BiparaStructure, metric: BilinearField | None = None) -> dict:
    """The spec file for a structure, every entry written with ``str(MultiPoly)``."""
    ctx = s.context
    data = {"backend": ctx.backend, "n": s.n, "F": _strings(s.F.matrix), "P": _strings(s.P.matrix)}
    if ctx.variables:
        data["variables"] = list(ctx.variables)
    else:
        data["structure_constants"] = [
            {"i": i + 1, "j": j + 1, "coeffs": [str(c) for c in coeffs]}
            for i, j, coeffs in ctx.bracket_table
        ]
    if s.adapted_frame is not None:
        data["adapted_frame"] = _strings(s.adapted_frame)
    if metric is not None:
        data["metric"] = _strings(metric.matrix)
    return data


def write_spec(path: Path, s: BiparaStructure, metric: BilinearField | None = None) -> list[int]:
    """Write the spec, check that ``load_spec`` reads it back, return its polynomials' term counts."""
    path.write_text(json.dumps(spec_json(s, metric), indent=1) + "\n", encoding="utf-8")
    back = load_spec(str(path))
    same = back.f_matrix == s.F.matrix and back.p_matrix == s.P.matrix
    same = same and back.adapted_frame == s.adapted_frame
    same = same and back.bracket_table == dict(s.context.brackets)
    if metric is not None:
        same = same and back.metric == metric.matrix
    if not same:
        raise InputError(f"{path.name}: load_spec does not read back the generated structure")
    counts = _term_counts(s.F.matrix) + _term_counts(s.P.matrix)
    if s.adapted_frame is not None:
        counts += _term_counts(s.adapted_frame)
    return counts + (_term_counts(metric.matrix) if metric is not None else [])


def write_map(path: Path, m: PolyMap) -> list[int]:
    data = {"forward": [str(f) for f in m.forward], "inverse": [str(g) for g in m.inverse]}
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    variables = m.source.variables
    back = [parse_poly(t, variables) for t in data["forward"] + data["inverse"]]
    if back != list(m.forward) + list(m.inverse):
        raise InputError(f"{path.name}: map does not read back as written")
    return [len(p.terms) for p in back]


def _sizes(counts: list[int]) -> dict[str, int]:
    return {"terms": sum(counts), "largest": max(counts)}


def _echo(s: BiparaStructure) -> dict:
    return {"F": _strings(s.F.matrix), "P": _strings(s.P.matrix)}


# ---------------------------------------------------------------------------
# Structure generators
# ---------------------------------------------------------------------------


def _chart_vars(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n)) + tuple(f"y{i + 1}" for i in range(n))


def nilpotent_chart(n: int, rng: random.Random) -> BiparaStructure:
    """A chart structure whose X-distribution is not involutive.

    The adapted frame is X_j = d/dx_j + sum_{i<j} c^k_ij x_i d/dy_k and
    Y_k = d/dy_k, so [X_i, X_j] = c^k_ij Y_k (a 2-step nilpotent table) with
    k = i + j mod n and every c nonzero: for n >= 2 the structure is not
    integrable, and torsion and curvature are nonzero polynomials.  The frame
    has degree 1; the seed draws the signs of the c.
    """
    variables = _chart_vars(n)
    ctx = chart_context(variables)
    dim = 2 * n
    zero = MultiPoly.zero(variables)
    one = MultiPoly.const(variables, 1)
    shift = [[zero] * n for _ in range(n)]  # shift[k][j]: d/dy_k coefficient of X_j
    for j in range(n):
        for i in range(j):
            k = (i + j) % n
            shift[k][j] = shift[k][j] + MultiPoly.var(variables, variables[i]).scale(_coeff(rng, i + j))
    frame = [[one if a == b else zero for b in range(dim)] for a in range(dim)]
    frame_inv = [row[:] for row in frame]
    f_diag = [[zero] * dim for _ in range(dim)]
    p_swap = [[zero] * dim for _ in range(dim)]
    for k in range(n):
        for j in range(n):
            frame[n + k][j] = shift[k][j]
            frame_inv[n + k][j] = -shift[k][j]
        f_diag[k][k] = one
        f_diag[n + k][n + k] = -one
        p_swap[k][n + k] = one
        p_swap[n + k][k] = one
    e = PolyMatrix.from_rows(frame)
    e_inv = PolyMatrix.from_rows(frame_inv)
    f = e @ PolyMatrix.from_rows(f_diag) @ e_inv
    p = e @ PolyMatrix.from_rows(p_swap) @ e_inv
    return BiparaStructure.validate(EndoField(ctx, f), EndoField(ctx, p), adapted_frame=e)


def shift_map(base: BiparaStructure, corrections: dict[int, MultiPoly]) -> PolyMap:
    """y_k -> y_k + corrections[k], each correction a polynomial in the x variables.

    No correction involves a moving coordinate, so the inverse is
    y_k -> y_k - corrections[k]: the map's size is set by the corrections
    alone and cannot grow through composition.
    """
    ctx = base.context
    variables = ctx.variables
    forward = [MultiPoly.var(variables, v) for v in variables]
    inverse = forward[:]
    for k, correction in corrections.items():
        forward[base.n + k] = forward[base.n + k] + correction
        inverse[base.n + k] = inverse[base.n + k] - correction
    return PolyMap(ctx, ctx, forward=forward, inverse=inverse)


def dense_shift(base: BiparaStructure, degree: int, rng: random.Random, wrong: bool = False) -> PolyMap:
    """Shift y_n by c * l(x)^degree, l a linear form in all n x variables.

    The map has exactly C(n + degree - 1, degree) correction terms, whatever
    the seed.  With ``wrong`` the same draw gives 2c instead of c: a valid map
    that does not carry the base to its pushforward by the map with c, since
    a different shift of y_n by a function of x moves the +1
    eigendistribution of F.
    """
    n = base.n
    variables = base.context.variables
    linear = MultiPoly(
        variables,
        {tuple(1 if a == b else 0 for b in range(2 * n)): _coeff(rng, a) for a in range(n)},
    )
    c = rng.choice((1, -1)) * (2 if wrong else 1)
    return shift_map(base, {n - 1: (linear**degree).scale(c)})


def _table_family(table: dict, n: int) -> str:
    """The family of a ``random_structure`` bracket table {(i, j): coeffs}."""
    if not table:
        return "abelian"
    if (0, n) in table:
        return "solvable"
    targets = {m for coeffs in table.values() for m, c in enumerate(coeffs) if c}
    return "affine" if targets == {0} else "nilpotent"


def bracket_family(s: BiparaStructure) -> str:
    """The family ``random_structure`` drew, read off an unconjugated bracket table."""
    return _table_family({(i, j): coeffs for i, j, coeffs in s.context.bracket_table}, s.n)


# Brackets in a full table of each family; random_structure leaves each
# bracket out with some probability, which moved the n = 6 report's
# poly.construct.calls by up to 1.27x between seeds.
def _full_size(family: str, n: int) -> int:
    return {"abelian": 0, "nilpotent": n * (n - 1) // 2, "affine": n - 1, "solvable": 1}[family]


def family_structure(n: int, family: str, conjugate: bool, rng: random.Random) -> BiparaStructure:
    """``random_structure(n, "constant_frame")`` with a full table of the given family.

    ``random_structure`` draws its bracket table first, from a fresh
    ``random.Random(seed)``, so drawing that table alone tells which seed
    gives the wanted family; the rejection loop builds no structure, and the
    set-up time does not depend on how many seeds it tries.
    """
    while True:
        seed = rng.randrange(2**32)
        table = _random_bracket_table(n, random.Random(seed))
        if len(table) == _full_size(family, n) and _table_family(table, n) == family:
            s = random_structure(n, "constant_frame", seed=seed, conjugate=conjugate)
            if not conjugate and bracket_family(s) != family:
                raise InputError(f"random_structure drew another table than predicted for seed {seed}")
            return s


def _positive_diagonal(s: BiparaStructure, rng: random.Random) -> BilinearField:
    dim = s.dim
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = rng.choice((Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)))
    return BilinearField(s.context, PolyMatrix.from_rational_rows(rows, s.context.variables))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _report(key: str, path: Path, s: BiparaStructure, counts: list[int], expect: dict) -> Op:
    return Op(key, ["report", str(path)], {**expect, **REPORT_ROUTES}, echo=_echo(s), **_sizes(counts))


def frame_report(seed: int, work: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for slot, (n, family, conjugate) in enumerate(FRAME_LADDER):
        s = family_structure(n, family, conjugate, rng)
        metric = build_orthogonal_metric(s, _positive_diagonal(s, rng)) if slot % 2 else None
        key = f"frame-{slot}-n{n}-{family}" + ("-conj" if conjugate else "") + ("-metric" if metric else "")
        path = work / f"{key}.json"
        ops.append(_report(key, path, s, write_spec(path, s, metric), FAMILY_ANSWERS[family]))
    return ops


def chart_equivalence(seed: int, work: Path) -> list[Op]:
    """One pair per ladder entry; a wrong map is the right one with 2c for c."""
    rng = random.Random(seed)
    ops = []
    for slot, (n, degree, holds) in enumerate(EQUIVALENCE_LADDER):
        base = nilpotent_chart(n, rng)
        state = rng.getstate()
        m = dense_shift(base, degree, rng)
        target = pushforward_structure(m, base)
        if not holds:
            rng.setstate(state)
            m = dense_shift(base, degree, rng, wrong=True)
        key = f"equiv-{slot}-n{n}-d{degree}" + ("" if holds else "-wrong")
        paths = [work / f"{key}-{part}.json" for part in ("A", "B", "map")]
        counts = write_spec(paths[0], base) + write_spec(paths[1], target) + write_map(paths[2], m)
        argv = ["equivalent", str(paths[0]), str(paths[1]), "--map", str(paths[2])]
        ops.append(Op(key, argv, {"equivalent": holds}, **_sizes(counts)))
    return ops


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """Write the workload's input files under ``work`` and return its ops."""
    work.mkdir(parents=True, exist_ok=True)
    generate = {"frame_report": frame_report, "chart_equivalence": chart_equivalence}
    return generate[workload](seed, work)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check(op: Op, code: int | None, out: str) -> str | None:
    """None if the output is right, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as err:
        return f"output is not JSON: {err}"
    verdicts = {v["name"]: v["holds"] for v in payload.get("verdicts", [])}
    for name, want in op.expect.items():
        if verdicts.get(name) is not want:
            return f"verdict {name} is {verdicts.get(name)}, expected {want}"
    if op.echo is not None:
        spec = payload.get("spec", {})
        if spec.get("F") != op.echo["F"] or spec.get("P") != op.echo["P"]:
            return "report does not echo the spec's F and P"
    return None
