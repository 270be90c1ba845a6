"""Command-line interface: JSON structure specs in, deterministic reports out.

Exit codes: 0 success, 1 mathematical validation or applicability failure
(the failed identity is named on stderr), 2 malformed input (JSON, schema or
expression syntax, with positions where available) or an output path that
cannot be written.  Unknown flags also exit with 2 via argparse.

Output is canonical JSON (sorted keys, LF line endings, canonical polynomial
strings) so repeated runs are byte-identical; ``--text`` switches to an
aligned plain-text rendering of the same data.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from pathlib import Path

from .connections import (
    ChristoffelTable,
    ConnectionLaw,
    CurvatureTensor,
    DifferenceTensor,
    PairTensor,
    TorsionTensor,
    canonical_christoffels,
    canonical_connection,
    curvature,
    pair_cell,
    torsion,
    trace_condition_holds,
    well_adapted_christoffels,
    well_adapted_connection,
    well_adapted_routes_agree,
)
from .diagnostics import (
    Verdict,
    coframe_error,
    equivalence_check,
    first_prolongation_dim,
    flatness_verdict,
    fn_bracket,
    integrability_verdict,
    invariant_count,
    nijenhuis,
    transpose_invariance,
)
from .geometry import (
    CONSTANT_FRAME,
    POLYNOMIAL_CHART,
    BilinearField,
    EndoField,
    FrameContext,
    GeometryError,
    PolyMap,
    algebra_context,
    chart_context,
)
from .linalg import LinAlgError, PolyMatrix, rat_signature
from .metrics import MetricError, bi_lagrangian_assembly, classify_metric
from .poly import MultiPoly, PolyParseError, parse_poly
from .structure import BiparaStructure, StructureError

__all__ = ["Analysis", "SchemaError", "StructureSpec", "load_spec", "main"]

EXIT_OK = 0
EXIT_MATH = 1
EXIT_SCHEMA = 2


class SchemaError(ValueError):
    """Malformed spec file: wrong JSON shape, bad expression, bad counts."""


class MathValidationError(ValueError):
    """Structurally well-formed input that fails a mathematical identity."""


@dataclass
class StructureSpec:
    """Parsed and schema-validated contents of a structure spec file."""

    backend: str
    n: int
    variables: tuple[str, ...]
    f_matrix: PolyMatrix
    p_matrix: PolyMatrix
    bracket_table: dict
    adapted_frame: PolyMatrix | None
    metric: PolyMatrix | None
    omega: PolyMatrix | None
    h_matrix: PolyMatrix | None
    seed_points: tuple[tuple[Fraction, ...], ...]


def _schema(cond: bool, message: str):
    if not cond:
        raise SchemaError(message)


def _is_int(value) -> bool:
    """A JSON integer; ``true`` and ``false`` are bools, which Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse(memo: dict, text: str, variables: tuple[str, ...], where: str) -> MultiPoly:
    """``text`` in the ring ``variables``, through ``memo``, the parses of one file.

    A miss calls ``parse_poly``; a parse error is raised as ``where: <error>``
    and never kept, so the first bad entry of a file is the one named.
    """
    key = (text, variables)
    poly = memo.get(key)
    if poly is None:
        try:
            poly = memo[key] = parse_poly(text, variables)
        except PolyParseError as err:
            raise SchemaError(f"{where}: {err}") from err
    return poly


def _parse_entries(
    memo: dict, data, variables, dim, where: str, shape: str | None = None
) -> list[MultiPoly]:
    """Parse a list of ``dim`` expression strings; errors name entry k ``where[k]``."""
    _schema(
        isinstance(data, list) and len(data) == dim,
        shape or f"{where}: expected a list of {dim} expressions",
    )
    parsed = []
    for k, text in enumerate(data):
        _schema(isinstance(text, str), f"{where}[{k + 1}]: entries are strings")
        parsed.append(_parse(memo, text, variables, f"{where}[{k + 1}]"))
    return parsed


def _parse_matrix(memo: dict, data, variables, dim, where: str) -> PolyMatrix:
    _schema(isinstance(data, list) and len(data) == dim, f"{where}: expected {dim} rows")
    return PolyMatrix.from_rows([
        _parse_entries(
            memo, row, variables, dim, f"{where}[{i + 1}]",
            f"{where}: row {i + 1} must have {dim} entries",
        )
        for i, row in enumerate(data)
    ])


def _parse_rational(memo: dict, value, where: str) -> Fraction:
    """A JSON number or string read as an exact rational; ``2`` and ``"2"`` are one text."""
    return _parse(memo, str(value), (), where).constant_value()


def _read_json(path: str):
    try:
        raw_text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise SchemaError(f"cannot read {path}: {err}") from err
    try:
        return json.loads(raw_text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}: invalid JSON at line {err.lineno}, column {err.colno}") from err
    except (ValueError, RecursionError) as err:  # over-long integers, deep nesting
        raise SchemaError(f"{path}: invalid JSON: {err}") from err


# Bound on a spec's half-dimension n, checked before any matrix is parsed, so
# an oversized spec exits 2 instead of running for minutes.  On a 2-vCPU VM,
# `report` at n = 8 takes 3.8-4.3 s on the slowest spec measured (a 2-step
# nilpotent chart pushed by a degree-3 map) and 0.75 s on the flat
# constant-frame spec; the flat spec took 36.5 s at n = 30.
MAX_HALF_DIMENSION = 8


def load_spec(path: str) -> StructureSpec:
    """Read and schema-validate a spec file (mathematical checks come later).

    Each distinct entry text is parsed once per call: one memo, keyed by text
    and ring, serves every matrix, structure constant and seed coordinate of
    the file, and is dropped on return, so a second call parses again.
    """
    data = _read_json(path)
    _schema(isinstance(data, dict), f"{path}: top level must be an object")
    backend = data.get("backend")
    _schema(
        backend in (CONSTANT_FRAME, POLYNOMIAL_CHART),
        f"{path}: backend must be '{CONSTANT_FRAME}' or '{POLYNOMIAL_CHART}'",
    )
    n = data.get("n")
    _schema(_is_int(n) and n >= 1, f"{path}: n must be a positive integer")
    _schema(n <= MAX_HALF_DIMENSION, f"{path}: n above MAX_HALF_DIMENSION = {MAX_HALF_DIMENSION}")
    dim = 2 * n
    if backend == POLYNOMIAL_CHART:
        variables = data.get("variables")
        _schema(
            isinstance(variables, list)
            and len(variables) == dim
            and all(isinstance(v, str) for v in variables)
            and len(set(variables)) == dim,
            f"{path}: variables must list {dim} distinct names",
        )
        variables = tuple(variables)
        _schema("structure_constants" not in data, f"{path}: chart specs carry no structure constants")
    else:
        _schema(not data.get("variables"), f"{path}: constant-frame specs carry no variables")
        variables = ()

    memo: dict = {}
    f_matrix = _parse_matrix(memo, data.get("F"), variables, dim, f"{path}: F")
    p_matrix = _parse_matrix(memo, data.get("P"), variables, dim, f"{path}: P")

    bracket_table = {}
    if backend == CONSTANT_FRAME:
        entries = data.get("structure_constants", [])
        _schema(isinstance(entries, list), f"{path}: structure_constants must be a list")
        for t, entry in enumerate(entries):
            where = f"{path}: structure_constants[{t + 1}]"
            _schema(isinstance(entry, dict), f"{where}: must be an object")
            i, j = entry.get("i"), entry.get("j")
            _schema(
                _is_int(i) and _is_int(j) and 1 <= i < j <= dim,
                f"{where}: need integer frame indices 1 <= i < j <= {dim}",
            )
            coeffs = entry.get("coeffs")
            _schema(
                isinstance(coeffs, list) and len(coeffs) == dim,
                f"{where}: coeffs must list {dim} entries",
            )
            key = (i - 1, j - 1)
            _schema(key not in bracket_table, f"{where}: duplicate pair ({i},{j})")
            bracket_table[key] = tuple(
                _parse_rational(memo, c, f"{where}.coeffs[{m + 1}]") for m, c in enumerate(coeffs)
            )

    def optional_matrix(key: str) -> PolyMatrix | None:
        if key not in data or data[key] is None:
            return None
        return _parse_matrix(memo, data[key], variables, dim, f"{path}: {key}")

    adapted_frame = optional_matrix("adapted_frame")
    metric = optional_matrix("metric")
    omega = optional_matrix("omega")
    h_matrix = optional_matrix("H")

    points = data.get("seed_points")
    _schema(points is None or isinstance(points, list), f"{path}: seed_points must be a list of points")
    seed_points = []
    for t, point in enumerate(points or []):
        where = f"{path}: seed_points[{t + 1}]"
        _schema(backend == POLYNOMIAL_CHART, f"{where}: seed points need the chart backend")
        _schema(isinstance(point, list) and len(point) == dim, f"{where}: need {dim} coordinates")
        seed_points.append(
            tuple(_parse_rational(memo, c, f"{where}[{m + 1}]") for m, c in enumerate(point))
        )

    return StructureSpec(
        backend=backend,
        n=n,
        variables=variables,
        f_matrix=f_matrix,
        p_matrix=p_matrix,
        bracket_table=bracket_table,
        adapted_frame=adapted_frame,
        metric=metric,
        omega=omega,
        h_matrix=h_matrix,
        seed_points=tuple(seed_points),
    )


def build_structure(spec: StructureSpec) -> BiparaStructure:
    """Mathematical validation: context (Jacobi) plus the structure identities."""
    try:
        if spec.backend == POLYNOMIAL_CHART:
            ctx = chart_context(spec.variables)
        else:
            ctx = algebra_context(2 * spec.n, spec.bracket_table)
        return BiparaStructure.validate(
            EndoField(ctx, spec.f_matrix),
            EndoField(ctx, spec.p_matrix),
            adapted_frame=spec.adapted_frame,
        )
    except (StructureError, GeometryError) as err:
        raise MathValidationError(str(err)) from err


# ---------------------------------------------------------------------------
# One analysis per structure
# ---------------------------------------------------------------------------


class Analysis:
    """The derived tensors of one structure, each built on first use and kept.

    Every subcommand prints a projection of one ``Analysis``.  ``kind`` is
    ``canonical`` or ``well-adapted``.
    """

    def __init__(self, s: BiparaStructure):
        self.s = s
        self._built: dict = {}

    def _once(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    @cached_property
    def canonical(self) -> ConnectionLaw:
        return canonical_connection(self.s)

    @cached_property
    def difference(self) -> DifferenceTensor:
        return DifferenceTensor(self.torsion("canonical"))

    @cached_property
    def well_adapted(self) -> ConnectionLaw:
        return well_adapted_connection(self.difference)

    def law(self, kind: str) -> ConnectionLaw:
        if kind == "canonical":
            return self.canonical
        if kind == "well-adapted":
            return self.well_adapted
        raise MathValidationError(f"unknown connection kind {kind!r}")

    def torsion(self, kind: str) -> TorsionTensor:
        return self._once(("torsion", kind), lambda: torsion(self.law(kind)))

    def curvature(self, kind: str) -> CurvatureTensor:
        return self._once(("curvature", kind), lambda: curvature(self.law(kind)))

    def christoffels(self, kind: str) -> ChristoffelTable:
        """The adapted-frame table of the ``kind`` law, built from the frame alone."""
        builders = {"canonical": canonical_christoffels, "well-adapted": well_adapted_christoffels}
        return self._once(("christoffels", kind), lambda: builders[kind](self.s))

    def concomitant(self, tensor: str) -> PairTensor:
        """N_F (``F``), N_P (``P``) or [F, P] (``FP``), each pair evaluated on first read."""

        def build() -> PairTensor:
            s = self.s
            if tensor == "FP":
                evaluate = fn_bracket(s)
            else:
                # Validation established F^2 = P^2 = Id.
                evaluate = nijenhuis(s.F if tensor == "F" else s.P, involution=True)
            return PairTensor(s.context, partial(pair_cell, evaluate, s.basis), antisymmetric=True)

        return self._once(("concomitant", tensor), build)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _field_json(v) -> list[str]:
    return [str(c) for c in v.components]


def _matrix_json(m: PolyMatrix) -> list[list[str]]:
    return [[str(m.get(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def _cells_json(cells) -> dict:
    """The nonzero cells of a tensor, keyed ``[i,j]`` or ``[i,j;k]`` (1-based)."""
    out = {}
    for key, value in cells:
        if not value.is_zero:
            pair = f"{key[0] + 1},{key[1] + 1}"
            out[f"[{pair}]" if len(key) == 2 else f"[{pair};{key[2] + 1}]"] = _field_json(value)
    return out


def _spec_echo(spec: StructureSpec) -> dict:
    echo = {
        "backend": spec.backend,
        "n": spec.n,
        "F": _matrix_json(spec.f_matrix),
        "P": _matrix_json(spec.p_matrix),
    }
    if spec.backend == POLYNOMIAL_CHART:
        echo["variables"] = list(spec.variables)
    else:
        echo["structure_constants"] = [
            {"i": i + 1, "j": j + 1, "coeffs": [str(c) for c in coeffs]}
            for (i, j), coeffs in sorted(spec.bracket_table.items())
        ]
    for key, matrix in (
        ("adapted_frame", spec.adapted_frame),
        ("metric", spec.metric),
        ("omega", spec.omega),
        ("H", spec.h_matrix),
    ):
        if matrix is not None:
            echo[key] = _matrix_json(matrix)
    return echo


def emit(payload: dict, out_path: str | None, as_text: bool) -> None:
    if as_text:
        body = "\n".join(_text_lines(payload)) + "\n"
    else:
        body = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        try:
            Path(out_path).write_text(body, encoding="utf-8", newline="\n")
        except OSError as err:
            raise SchemaError(f"cannot write {out_path}: {err}") from err
    else:
        sys.stdout.write(body)


def _is_leaf_list(value) -> bool:
    return isinstance(value, list) and all(
        not isinstance(item, (dict, list)) for item in value
    )


def _text_lines(value, prefix: str = "") -> list[str]:
    lines = []
    if isinstance(value, dict):
        for key in sorted(value):
            sub = value[key]
            if _is_leaf_list(sub):
                lines.append(f"{prefix}{key}: [{', '.join(str(v) for v in sub)}]")
            elif isinstance(sub, (dict, list)):
                lines.append(f"{prefix}{key}:")
                lines.extend(_text_lines(sub, prefix + "  "))
            else:
                lines.append(f"{prefix}{key}: {sub}")
    elif isinstance(value, list):
        for item in value:
            if _is_leaf_list(item):
                lines.append(f"{prefix}[{', '.join(str(v) for v in item)}]")
            elif isinstance(item, (dict, list)):
                lines.extend(_text_lines(item, prefix + "  "))
            else:
                lines.append(f"{prefix}- {item}")
    else:
        lines.append(f"{prefix}{value}")
    return lines


# ---------------------------------------------------------------------------
# Subcommand implementations: one builder per payload section, and ``report``
# joins the sections that the other subcommands print
# ---------------------------------------------------------------------------


def _load_analysis(path: str) -> tuple[StructureSpec, Analysis]:
    spec = load_spec(path)
    return spec, Analysis(build_structure(spec))


def _christoffel_json(table: ChristoffelTable) -> dict:
    out = {}
    for name, block in (("xx", table.xx), ("yx", table.yx)):
        out[name] = {}
        for h, plane in enumerate(block):
            for a, row in enumerate(plane):
                for i, value in enumerate(row):
                    if not value.is_zero:
                        out[name][f"[{h + 1},{a + 1}]^{i + 1}"] = str(value)
    return out


def _integrability_and_flatness(a: Analysis) -> list[Verdict]:
    t = a.torsion("canonical")
    concomitants = tuple(a.concomitant(tensor) for tensor in ("F", "P", "FP"))
    return [
        integrability_verdict(a.s, concomitants, t),
        flatness_verdict(t, a.curvature("canonical")),
    ]


def _metric_class_json(spec: StructureSpec, s: BiparaStructure) -> dict:
    """Classify at the origin; add signatures at any user-supplied seed points."""
    metric = BilinearField(s.context, spec.metric)
    out = classify_metric(s, metric).to_json()
    if spec.seed_points:
        out["seed_point_signatures"] = [
            list(rat_signature(metric.matrix.evaluate(list(point))))
            for point in spec.seed_points
        ]
    return out


def _bilagrangian_json(spec: StructureSpec, s: BiparaStructure) -> tuple[BilinearField, dict]:
    """The metric G, and J, P and the verdicts of the assembly; ``MetricError`` names a bad H."""
    big_g, j_endo, p_endo, verdicts = bi_lagrangian_assembly(
        BilinearField(s.context, spec.omega), s.F, BilinearField(s.context, spec.h_matrix)
    )
    return big_g, {
        "J": _matrix_json(j_endo.matrix),
        "P": _matrix_json(p_endo.matrix),
        "verdicts": [verdicts[k].to_json() for k in sorted(verdicts)],
    }


def cmd_validate(args) -> dict:
    spec, _ = _load_analysis(args.spec)
    return {
        "spec": _spec_echo(spec),
        "verdicts": [Verdict("structure_valid", True).to_json()],
        "warnings": [],
    }


def cmd_connection(args) -> dict:
    _, a = _load_analysis(args.spec)
    payload = {
        "kind": args.kind,
        "frame_derivatives": _cells_json(a.law(args.kind).cells()),
    }
    if args.christoffels:
        if a.s.adapted_frame is None:
            raise MathValidationError("--christoffels requires an adapted_frame in the spec")
        payload["christoffels"] = _christoffel_json(a.christoffels(args.kind))
    return payload


def _tensor_json(key: str, tensor) -> dict:
    return {key: _cells_json(tensor.cells()), "is_zero": tensor.is_zero}


def cmd_torsion(args) -> dict:
    _, a = _load_analysis(args.spec)
    return {"kind": args.kind, **_tensor_json("torsion", a.torsion(args.kind))}


def cmd_curvature(args) -> dict:
    _, a = _load_analysis(args.spec)
    return {"kind": args.kind, **_tensor_json("curvature", a.curvature(args.kind))}


def cmd_difference(args) -> dict:
    _, a = _load_analysis(args.spec)
    return _tensor_json("difference", a.difference)


def cmd_nijenhuis(args) -> dict:
    _, a = _load_analysis(args.spec)
    return {"tensor": args.tensor, **_tensor_json("table", a.concomitant(args.tensor))}


def cmd_classify(args) -> dict:
    spec, a = _load_analysis(args.spec)
    payload = {
        "triple_kind": a.s.triple_kind,
        "verdicts": [v.to_json() for v in _integrability_and_flatness(a)],
    }
    if spec.metric is not None:
        payload["metric_class"] = _metric_class_json(spec, a.s)
    return payload


def _load_map(path: str, source: FrameContext, target: FrameContext) -> PolyMap:
    data = _read_json(path)
    _schema(isinstance(data, dict), f"{path}: top level must be an object")
    dim = source.dim
    memo: dict = {}
    try:
        if source.backend == POLYNOMIAL_CHART:
            forward = _parse_entries(memo, data.get("forward"), source.variables, dim, f"{path}: forward")
            inverse = _parse_entries(memo, data.get("inverse"), target.variables, dim, f"{path}: inverse")
            return PolyMap(source, target, forward=forward, inverse=inverse)
        rows = _parse_matrix(memo, data.get("matrix"), (), dim, f"{path}: matrix").constant_rows()
        return PolyMap(source, target, matrix=rows)
    except (GeometryError, LinAlgError) as err:
        raise MathValidationError(f"{path}: {err}") from err


def cmd_equivalent(args) -> dict:
    sa = build_structure(load_spec(args.spec_a))
    sb = build_structure(load_spec(args.spec_b))
    # Before the map is parsed: its shape and variables depend on the endpoints.
    if sa.context.backend != sb.context.backend or sa.dim != sb.dim:
        raise MathValidationError(f"{args.map}: map endpoints must share backend and dimension")
    m = _load_map(args.map, sa.context, sb.context)
    verdict = equivalence_check(sa, sb, m)
    return {"verdicts": [verdict.to_json()]}


# Bounds on the integer arguments, so oversized ones exit 2 instead of running
# for minutes or failing to print.  `prolongation --n 6` took a median of
# 0.50 s wall time on a 2-vCPU VM, and each step up in n doubles or triples
# the solve.  The invariant count at n = r = 1000 has about 830 digits, well
# inside the interpreter's 4300-digit int-to-str limit, which n = r = 10000
# would exceed.
MAX_PROLONGATION_N = 6
MAX_INVARIANT_INDEX = 1000


def cmd_prolongation(args) -> dict:
    if args.n < 1:
        raise MathValidationError("--n must be at least 1")
    if args.n > MAX_PROLONGATION_N:
        raise SchemaError(f"--n above MAX_PROLONGATION_N = {MAX_PROLONGATION_N}")
    return {
        "n": args.n,
        "prolongation_dimension": first_prolongation_dim(args.n),
        "transpose_invariant": transpose_invariance(args.n),
    }


def cmd_invariants(args) -> dict:
    if args.n < 1 or args.r < 0:
        raise MathValidationError("need --n >= 1 and --r >= 0")
    if max(args.n, args.r) > MAX_INVARIANT_INDEX:
        raise SchemaError(f"--n or --r above MAX_INVARIANT_INDEX = {MAX_INVARIANT_INDEX}")
    return invariant_count(args.n, args.r).to_json()


def cmd_bilagrangian(args) -> dict:
    spec, a = _load_analysis(args.spec)
    if spec.omega is None or spec.h_matrix is None:
        raise MathValidationError("bilagrangian requires 'omega' and 'H' in the spec")
    big_g, section = _bilagrangian_json(spec, a.s)
    return {"G": _matrix_json(big_g.matrix), **section}


def cmd_report(args) -> dict:
    spec, a = _load_analysis(args.spec)
    s = a.s
    verdicts = [Verdict("structure_valid", True), *_integrability_and_flatness(a)]
    warnings: list[str] = []
    tensors = {
        "torsion_canonical": _cells_json(a.torsion("canonical").cells()),
        "torsion_well_adapted": _cells_json(a.torsion("well-adapted").cells()),
        "difference": _cells_json(a.difference.cells()),
        "curvature_canonical": _cells_json(a.curvature("canonical").cells()),
        "curvature_well_adapted": _cells_json(a.curvature("well-adapted").cells()),
        "nijenhuis_F": _cells_json(a.concomitant("F").cells()),
        "nijenhuis_P": _cells_json(a.concomitant("P").cells()),
        "fn_bracket_FP": _cells_json(a.concomitant("FP").cells()),
    }
    classification = {"triple_kind": s.triple_kind}
    frame_error = coframe_error(s)
    if frame_error is not None:
        warnings.append(f"Christoffel tables and frame verdicts left out: {frame_error}")
    elif s.adapted_frame is not None:
        tensors["christoffels_canonical"] = _christoffel_json(a.christoffels("canonical"))
        tensors["christoffels_well_adapted"] = _christoffel_json(a.christoffels("well-adapted"))
        routes_ok = well_adapted_routes_agree(a.well_adapted, a.christoffels("well-adapted"))
        trace_ok = trace_condition_holds(a.torsion("well-adapted"))
        verdicts += [
            Verdict.of("well_adapted_routes_agree", routes_ok, {"reason": "table and frame-free routes differ"}),
            Verdict.of("trace_condition_well_adapted", trace_ok, {"reason": "a trace identity fails"}),
        ]
    if spec.metric is not None:
        try:
            classification["metric_class"] = _metric_class_json(spec, s)
        except MetricError as err:
            warnings.append(f"metric not classified: {err}")
    payload = {
        "spec": _spec_echo(spec),
        "classification": classification,
        "verdicts": [v.to_json() for v in verdicts],
        "tensors": tensors,
        "warnings": warnings,
    }
    if spec.omega is not None and spec.h_matrix is not None:
        try:
            payload["bilagrangian"] = _bilagrangian_json(spec, s)[1]
        except MetricError as err:
            warnings.append(f"bi-Lagrangian assembly skipped: {err}")
    return payload


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    Each subcommand ``name`` runs ``cmd_<name>``, looked up when ``main`` runs.
    """
    parser = argparse.ArgumentParser(
        prog="bipara",
        description="Exact connections and diagnostics for almost complex product structures.",
    )
    parser.add_argument("--text", action="store_true", help="plain text output instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a structure spec")
    p.add_argument("spec")

    p = sub.add_parser("connection", help="frame derivatives of a connection")
    p.add_argument("--kind", choices=["canonical", "well-adapted"], default="canonical")
    p.add_argument("--christoffels", action="store_true", help="include adapted-frame coefficients")
    p.add_argument("spec")

    p = sub.add_parser("torsion", help="torsion table of a connection")
    p.add_argument("--kind", choices=["canonical", "well-adapted"], default="canonical")
    p.add_argument("spec")

    p = sub.add_parser("curvature", help="curvature table of a connection")
    p.add_argument("--kind", choices=["canonical", "well-adapted"], default="canonical")
    p.add_argument("spec")

    p = sub.add_parser("difference", help="difference tensor between the two connections")
    p.add_argument("spec")

    p = sub.add_parser("nijenhuis", help="Nijenhuis or [F,P] concomitant table")
    p.add_argument("--tensor", choices=["F", "P", "FP"], default="F")
    p.add_argument("spec")

    p = sub.add_parser("classify", help="triple kind, integrability, flatness, metric class")
    p.add_argument("spec")

    p = sub.add_parser("equivalent", help="check equivalence along a given map")
    p.add_argument("spec_a")
    p.add_argument("spec_b")
    p.add_argument("--map", required=True, help="JSON file with the diffeomorphism data")

    p = sub.add_parser("prolongation", help="first prolongation of the structure algebra")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("invariants", help="differential invariant counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("bilagrangian", help="bi-Lagrangian assembly and its verdicts")
    p.add_argument("spec")

    p = sub.add_parser("report", help="run every applicable check and emit a report")
    p.add_argument("spec")
    p.add_argument("-o", "--output", default=None, help="write the report to a file")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        emit(globals()[f"cmd_{args.command}"](args), getattr(args, "output", None), args.text)
    except SchemaError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except (MathValidationError, MetricError, StructureError, LinAlgError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
