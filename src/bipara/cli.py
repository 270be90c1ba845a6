"""Command-line interface: JSON structure specs in, deterministic reports out.

Exit codes: 0 success, 1 mathematical validation or applicability failure
(the failed identity is named on stderr), 2 malformed input (JSON, schema or
expression syntax, with positions where available).  Unknown flags also exit
with 2 via argparse.

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
from functools import cached_property
from pathlib import Path

from .connections import (
    ChristoffelTable,
    ConnectionLaw,
    CurvatureTensor,
    DifferenceTensor,
    TorsionTensor,
    canonical_christoffels,
    canonical_connection,
    curvature,
    torsion,
    trace_condition_holds,
    well_adapted_christoffels,
    well_adapted_connection,
    well_adapted_routes_agree,
)
from .diagnostics import (
    Verdict,
    equivalence_check,
    first_prolongation_dim,
    flatness_verdict,
    fn_bracket,
    integrability_verdict,
    invariant_count,
    nijenhuis,
    pair_values,
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
from .linalg import LinAlgError, PolyMatrix
from .metrics import MetricError, bi_lagrangian_assembly, classify_metric
from .poly import PolyParseError, parse_poly
from .structure import BiparaStructure, StructureError, classify_triple

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


def _parse_matrix(data, variables, dim, where: str) -> PolyMatrix:
    _schema(isinstance(data, list) and len(data) == dim, f"{where}: expected {dim} rows")
    rows = []
    for i, row in enumerate(data):
        _schema(
            isinstance(row, list) and len(row) == dim,
            f"{where}: row {i + 1} must have {dim} entries",
        )
        parsed = []
        for j, text in enumerate(row):
            _schema(isinstance(text, str), f"{where}[{i + 1}][{j + 1}]: entries are strings")
            try:
                parsed.append(parse_poly(text, variables))
            except PolyParseError as err:
                raise SchemaError(f"{where}[{i + 1}][{j + 1}]: {err}") from err
        rows.append(parsed)
    return PolyMatrix.from_rows(rows)


def _parse_rational(text: str, where: str) -> Fraction:
    try:
        value = parse_poly(str(text), ())
    except PolyParseError as err:
        raise SchemaError(f"{where}: {err}") from err
    return value.constant_value()


def load_spec(path: str) -> StructureSpec:
    """Read and schema-validate a spec file (mathematical checks come later)."""
    try:
        raw_text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise SchemaError(f"cannot read {path}: {err}") from err
    try:
        data = json.loads(raw_text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}: invalid JSON at line {err.lineno}, column {err.colno}") from err
    _schema(isinstance(data, dict), f"{path}: top level must be an object")
    backend = data.get("backend")
    _schema(
        backend in (CONSTANT_FRAME, POLYNOMIAL_CHART),
        f"{path}: backend must be '{CONSTANT_FRAME}' or '{POLYNOMIAL_CHART}'",
    )
    n = data.get("n")
    _schema(_is_int(n) and n >= 1, f"{path}: n must be a positive integer")
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

    f_matrix = _parse_matrix(data.get("F"), variables, dim, f"{path}: F")
    p_matrix = _parse_matrix(data.get("P"), variables, dim, f"{path}: P")

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
                _parse_rational(c, f"{where}.coeffs[{m + 1}]") for m, c in enumerate(coeffs)
            )

    def optional_matrix(key: str) -> PolyMatrix | None:
        if key not in data or data[key] is None:
            return None
        return _parse_matrix(data[key], variables, dim, f"{path}: {key}")

    adapted_frame = optional_matrix("adapted_frame")
    metric = optional_matrix("metric")
    omega = optional_matrix("omega")
    h_matrix = optional_matrix("H")

    seed_points = []
    for t, point in enumerate(data.get("seed_points", []) or []):
        where = f"{path}: seed_points[{t + 1}]"
        _schema(backend == POLYNOMIAL_CHART, f"{where}: seed points need the chart backend")
        _schema(isinstance(point, list) and len(point) == dim, f"{where}: need {dim} coordinates")
        seed_points.append(tuple(_parse_rational(c, where) for c in point))

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
    if spec.backend == POLYNOMIAL_CHART:
        ctx = chart_context(spec.variables)
    else:
        try:
            ctx = algebra_context(2 * spec.n, spec.bracket_table)
        except GeometryError as err:
            raise MathValidationError(str(err)) from err
    try:
        return BiparaStructure.validate(
            EndoField(ctx, spec.f_matrix),
            EndoField(ctx, spec.p_matrix),
            adapted_frame=spec.adapted_frame,
        )
    except (StructureError, GeometryError) as err:
        if isinstance(err, StructureError):
            detail = "; ".join(
                f"{f['name']}"
                + (f" (witness {f['witness']})" if f.get("witness") else "")
                for f in err.failures
            )
            raise MathValidationError(detail) from err
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

    @cached_property
    def christoffels_canonical(self) -> ChristoffelTable:
        return canonical_christoffels(self.s)

    @cached_property
    def christoffels_well_adapted(self) -> ChristoffelTable:
        return well_adapted_christoffels(self.s)

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

    def concomitant(self, tensor: str) -> dict:
        """The N_F (``F``), N_P (``P``) or [F, P] (``FP``) table on pairs i < j."""

        return self._once(
            ("concomitant", tensor), lambda: dict(_concomitant_pairs(self.s, tensor))
        )


def _concomitant_pairs(s: BiparaStructure, tensor: str):
    """The N_F, N_P or [F, P] values on pairs i < j, evaluated lazily."""
    if tensor == "FP":
        evaluate = fn_bracket(s)
    else:
        evaluate = nijenhuis(s.F if tensor == "F" else s.P)
    return pair_values(evaluate, s.basis)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _field_json(v) -> list[str]:
    return [str(c) for c in v.components]


def _matrix_json(m: PolyMatrix) -> list[list[str]]:
    return [[str(m.get(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def _pair_table_json(table_fn, dim: int, antisymmetric: bool = False) -> dict:
    out = {}
    for i in range(dim):
        start = i + 1 if antisymmetric else 0
        for j in range(start, dim):
            value = table_fn(i, j)
            if not value.is_zero:
                out[f"[{i + 1},{j + 1}]"] = _field_json(value)
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
        Path(out_path).write_text(body, encoding="utf-8", newline="\n")
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
# Subcommand implementations
# ---------------------------------------------------------------------------


def _load_and_build(path: str) -> tuple[StructureSpec, BiparaStructure]:
    spec = load_spec(path)
    return spec, build_structure(spec)


def _load_analysis(path: str) -> tuple[StructureSpec, Analysis]:
    spec, s = _load_and_build(path)
    return spec, Analysis(s)


def _christoffel_json(table) -> dict:
    out = {"xx": {}, "yx": {}}
    n = table.n
    for h in range(n):
        for a in range(n):
            for i in range(n):
                value = table.xx[h][a][i]
                if not value.is_zero:
                    out["xx"][f"[{h + 1},{a + 1}]^{i + 1}"] = str(value)
                value = table.yx[h][a][i]
                if not value.is_zero:
                    out["yx"][f"[{h + 1},{a + 1}]^{i + 1}"] = str(value)
    return out


def cmd_validate(args) -> dict:
    spec, _ = _load_and_build(args.spec)
    return {
        "spec": _spec_echo(spec),
        "verdicts": [Verdict("structure_valid", True).to_json()],
        "warnings": [],
    }


def cmd_connection(args) -> dict:
    _, a = _load_analysis(args.spec)
    s = a.s
    law = a.law(args.kind)
    payload = {
        "kind": args.kind,
        "frame_derivatives": _pair_table_json(
            lambda i, j: law.frame_table[i][j], s.dim
        ),
    }
    if args.christoffels:
        if s.adapted_frame is None:
            raise MathValidationError("--christoffels requires an adapted_frame in the spec")
        table = (
            a.christoffels_canonical if args.kind == "canonical" else a.christoffels_well_adapted
        )
        payload["christoffels"] = _christoffel_json(table)
    return payload


def _torsion_json(t: TorsionTensor) -> dict:
    return _pair_table_json(lambda i, j: t.table[i][j], t.law.context.dim, antisymmetric=True)


def _curvature_json(r: CurvatureTensor) -> dict:
    return {
        f"[{i + 1},{j + 1};{k + 1}]": _field_json(v)
        for (i, j, k), v in sorted(r.table.items())
        if not v.is_zero
    }


def _concomitant_json(a: Analysis, tensor: str) -> dict:
    table = a.concomitant(tensor)
    return _pair_table_json(lambda i, j: table[(i, j)], a.s.dim, antisymmetric=True)


def cmd_torsion(args) -> dict:
    _, a = _load_analysis(args.spec)
    t = a.torsion(args.kind)
    return {"kind": args.kind, "torsion": _torsion_json(t), "is_zero": t.is_zero}


def cmd_curvature(args) -> dict:
    _, a = _load_analysis(args.spec)
    r = a.curvature(args.kind)
    return {"kind": args.kind, "curvature": _curvature_json(r), "is_zero": r.is_zero}


def cmd_difference(args) -> dict:
    _, a = _load_analysis(args.spec)
    diff = a.difference
    return {
        "difference": _pair_table_json(lambda i, j: diff.table[i][j], a.s.dim),
        "is_zero": diff.is_zero,
    }


def cmd_nijenhuis(args) -> dict:
    _, a = _load_analysis(args.spec)
    table = _concomitant_json(a, args.tensor)
    return {"tensor": args.tensor, "table": table, "is_zero": not table}


def cmd_classify(args) -> dict:
    spec, a = _load_analysis(args.spec)
    s = a.s
    t = a.torsion("canonical")
    # Lazy concomitants: the verdict stops at the first nonzero pair of each.
    concomitants = tuple(_concomitant_pairs(s, tensor) for tensor in ("F", "P", "FP"))
    payload = {
        "triple_kind": classify_triple(s.F, s.P),
        "verdicts": [
            integrability_verdict(s, concomitants, t).to_json(),
            flatness_verdict(t, a.curvature("canonical")).to_json(),
        ],
    }
    if spec.metric is not None:
        metric = BilinearField(s.context, spec.metric)
        try:
            payload["metric_class"] = _metric_class_json(spec, s, metric)
        except MetricError as err:
            raise MathValidationError(str(err)) from err
    return payload


def _metric_class_json(spec: StructureSpec, s: BiparaStructure, metric: BilinearField) -> dict:
    """Classify at the origin; add signatures at any user-supplied seed points."""
    from .linalg import rat_signature

    out = classify_metric(s, metric).to_json()
    if spec.seed_points:
        out["seed_point_signatures"] = [
            list(rat_signature(metric.matrix.evaluate(list(point))))
            for point in spec.seed_points
        ]
    return out


def _load_map(path: str, source: FrameContext, target: FrameContext) -> PolyMap:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise SchemaError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}: invalid JSON at line {err.lineno}") from err
    _schema(isinstance(data, dict), f"{path}: top level must be an object")
    try:
        if source.backend == POLYNOMIAL_CHART:
            fwd = data.get("forward")
            inv = data.get("inverse")
            _schema(
                isinstance(fwd, list) and isinstance(inv, list),
                f"{path}: chart maps need 'forward' and 'inverse' lists",
            )
            forward = [parse_poly(t, source.variables) for t in fwd]
            inverse = [parse_poly(t, target.variables) for t in inv]
            return PolyMap(source, target, forward=forward, inverse=inverse)
        matrix = data.get("matrix")
        _schema(isinstance(matrix, list), f"{path}: constant maps need a 'matrix'")
        rows = [[_parse_rational(v, f"{path}: matrix") for v in row] for row in matrix]
        return PolyMap(source, target, matrix=rows)
    except PolyParseError as err:
        raise SchemaError(f"{path}: {err}") from err
    except (GeometryError, LinAlgError) as err:
        raise MathValidationError(f"{path}: {err}") from err


def cmd_equivalent(args) -> dict:
    _, sa = _load_and_build(args.spec_a)
    _, sb = _load_and_build(args.spec_b)
    m = _load_map(args.map, sa.context, sb.context)
    verdict = equivalence_check(sa, sb, m)
    return {"verdicts": [verdict.to_json()]}


def cmd_prolongation(args) -> dict:
    if args.n < 1:
        raise MathValidationError("--n must be at least 1")
    return {
        "n": args.n,
        "prolongation_dimension": first_prolongation_dim(args.n),
        "transpose_invariant": transpose_invariance(args.n),
    }


def cmd_invariants(args) -> dict:
    if args.n < 1 or args.r < 0:
        raise MathValidationError("need --n >= 1 and --r >= 0")
    return invariant_count(args.n, args.r).to_json()


def cmd_bilagrangian(args) -> dict:
    spec, s = _load_and_build(args.spec)
    if spec.omega is None or spec.h_matrix is None:
        raise MathValidationError("bilagrangian requires 'omega' and 'H' in the spec")
    omega = BilinearField(s.context, spec.omega)
    h_field = BilinearField(s.context, spec.h_matrix)
    try:
        big_g, j_endo, p_endo, verdicts = bi_lagrangian_assembly(omega, s.F, h_field)
    except MetricError as err:
        raise MathValidationError(str(err)) from err
    return {
        "G": _matrix_json(big_g.matrix),
        "J": _matrix_json(j_endo.matrix),
        "P": _matrix_json(p_endo.matrix),
        "verdicts": [verdicts[k].to_json() for k in sorted(verdicts)],
    }


def cmd_report(args) -> dict:
    spec, a = _load_analysis(args.spec)
    s = a.s
    concomitants = tuple(a.concomitant(tensor).items() for tensor in ("F", "P", "FP"))
    verdicts = [
        Verdict("structure_valid", True),
        integrability_verdict(s, concomitants, a.torsion("canonical")),
        flatness_verdict(a.torsion("canonical"), a.curvature("canonical")),
    ]
    warnings: list[str] = []
    tensors = {
        "torsion_canonical": _torsion_json(a.torsion("canonical")),
        "torsion_well_adapted": _torsion_json(a.torsion("well-adapted")),
        "difference": _pair_table_json(lambda i, j: a.difference.table[i][j], s.dim),
        "curvature_canonical": _curvature_json(a.curvature("canonical")),
        "curvature_well_adapted": _curvature_json(a.curvature("well-adapted")),
        "nijenhuis_F": _concomitant_json(a, "F"),
        "nijenhuis_P": _concomitant_json(a, "P"),
        "fn_bracket_FP": _concomitant_json(a, "FP"),
    }
    classification = {"triple_kind": classify_triple(s.F, s.P)}
    if s.adapted_frame is not None:
        tensors["christoffels_canonical"] = _christoffel_json(a.christoffels_canonical)
        tensors["christoffels_well_adapted"] = _christoffel_json(a.christoffels_well_adapted)
        routes_ok = well_adapted_routes_agree(a.well_adapted, a.christoffels_well_adapted)
        verdicts.append(
            Verdict(
                "well_adapted_routes_agree",
                routes_ok,
                None if routes_ok else {"reason": "table and frame-free routes differ"},
            )
        )
        trace_ok = trace_condition_holds(a.torsion("well-adapted"))
        verdicts.append(
            Verdict(
                "trace_condition_well_adapted",
                trace_ok,
                None if trace_ok else {"reason": "a trace identity fails"},
            )
        )
    if spec.metric is not None:
        metric = BilinearField(s.context, spec.metric)
        try:
            classification["metric_class"] = _metric_class_json(spec, s, metric)
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
            _, j_endo, p_endo, bl_verdicts = bi_lagrangian_assembly(
                BilinearField(s.context, spec.omega),
                s.F,
                BilinearField(s.context, spec.h_matrix),
            )
            payload["bilagrangian"] = {
                "J": _matrix_json(j_endo.matrix),
                "P": _matrix_json(p_endo.matrix),
                "verdicts": [bl_verdicts[k].to_json() for k in sorted(bl_verdicts)],
            }
        except MetricError as err:
            warnings.append(f"bi-Lagrangian assembly skipped: {err}")
    return payload


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipara",
        description="Exact connections and diagnostics for almost complex product structures.",
    )
    parser.add_argument("--text", action="store_true", help="plain text output instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        return p

    p = add("validate", cmd_validate, help="validate a structure spec")
    p.add_argument("spec")

    p = add("connection", cmd_connection, help="frame derivatives of a connection")
    p.add_argument("--kind", choices=["canonical", "well-adapted"], default="canonical")
    p.add_argument("--christoffels", action="store_true", help="include adapted-frame coefficients")
    p.add_argument("spec")

    p = add("torsion", cmd_torsion, help="torsion table of a connection")
    p.add_argument("--kind", choices=["canonical", "well-adapted"], default="canonical")
    p.add_argument("spec")

    p = add("curvature", cmd_curvature, help="curvature table of a connection")
    p.add_argument("--kind", choices=["canonical", "well-adapted"], default="canonical")
    p.add_argument("spec")

    p = add("difference", cmd_difference, help="difference tensor between the two connections")
    p.add_argument("spec")

    p = add("nijenhuis", cmd_nijenhuis, help="Nijenhuis or [F,P] concomitant table")
    p.add_argument("--tensor", choices=["F", "P", "FP"], default="F")
    p.add_argument("spec")

    p = add("classify", cmd_classify, help="triple kind, integrability, flatness, metric class")
    p.add_argument("spec")

    p = add("equivalent", cmd_equivalent, help="check equivalence along a given map")
    p.add_argument("spec_a")
    p.add_argument("spec_b")
    p.add_argument("--map", required=True, help="JSON file with the diffeomorphism data")

    p = add("prolongation", cmd_prolongation, help="first prolongation of the structure algebra")
    p.add_argument("--n", type=int, required=True)

    p = add("invariants", cmd_invariants, help="differential invariant counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = add("bilagrangian", cmd_bilagrangian, help="bi-Lagrangian assembly and its verdicts")
    p.add_argument("spec")

    p = add("report", cmd_report, help="run every applicable check and emit a report")
    p.add_argument("spec")
    p.add_argument("-o", "--output", default=None, help="write the report to a file")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
    except SchemaError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except (MathValidationError, MetricError, StructureError, LinAlgError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MATH
    emit(payload, getattr(args, "output", None), args.text)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
