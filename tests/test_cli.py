import argparse
import gc
import json
import subprocess
import types
import sys
import time
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

from bipara import cli, diagnostics
from bipara.cli import MAX_HALF_DIMENSION, build_structure, load_spec, main
from bipara.connections import ConnectionLaw, DifferenceTensor
from bipara.geometry import EndoField
from bipara.poly import parse_poly

BIN = [sys.executable, "-m", "bipara.cli"]
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FIXTURES = ("flat_n1", "flat_n2", "heis_n2", "aff_n2")


def run_cli(*args, cwd=None):
    return subprocess.run(
        BIN + [str(a) for a in args], capture_output=True, text=True, cwd=cwd
    )


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_validate_fixtures(fixture_dir):
    for name in ("flat_n1.json", "flat_n2.json", "heis_n2.json", "aff_n2.json"):
        proc = run_cli("validate", fixture_dir / name)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["verdicts"][0]["name"] == "structure_valid"
        assert payload["verdicts"][0]["holds"] is True


def test_exit_code_mathematical_failure(tmp_path):
    spec = {
        "backend": "constant_frame",
        "n": 1,
        "F": [["1", "1"], ["0", "1"]],
        "P": [["0", "1"], ["1", "0"]],
    }
    proc = run_cli("validate", write(tmp_path, "bad.json", spec))
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: F^2 != Id (witness {'row': 0, 'col': 1, 'value': '2'}); "
        "F∘P + P∘F != 0 (witness {'row': 0, 'col': 0, 'value': '1'}); "
        "trace(F) != 0 (witness {'value': '2'})\n"
    )


def test_exit_code_jacobi_failure(fixture_dir, tmp_path, capsys):
    # [E1, E2] = E1 and [E1, E3] = E2: the cyclic sum on (E1, E2, E3) is E2
    spec = json.loads((fixture_dir / "heis_n2.json").read_text(encoding="utf-8"))
    spec["structure_constants"] = [
        {"i": 1, "j": 2, "coeffs": ["1", "0", "0", "0"]},
        {"i": 1, "j": 3, "coeffs": ["0", "1", "0", "0"]},
    ]
    assert main(["validate", str(write(tmp_path, "jacobi.json", spec))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Jacobi identity fails on basis triple (0,1,2)\n"


def test_a_loaded_spec_is_a_hashable_value(fixture_dir):
    path = str(fixture_dir / "heis_n2.json")
    spec = load_spec(path)
    assert hash(spec) == hash(load_spec(path))
    assert spec == load_spec(path)
    assert spec.bracket_table == spec.context.brackets == {(0, 1): (0, 0, 1, 0)}


def test_exit_code_schema_failure_unknown_variable(tmp_path):
    spec = {
        "backend": "polynomial_chart",
        "n": 1,
        "variables": ["x1", "y1"],
        "F": [["0", "zz + 1"], ["1", "0"]],
        "P": [["1", "0"], ["0", "-1"]],
    }
    proc = run_cli("validate", write(tmp_path, "bad.json", spec))
    assert proc.returncode == 2
    assert "offset" in proc.stderr


def test_exit_code_schema_failure_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    proc = run_cli("validate", path)
    assert proc.returncode == 2
    assert "line" in proc.stderr


def test_exit_code_unknown_flag(fixture_dir):
    proc = run_cli("validate", "--bogus", fixture_dir / "flat_n1.json")
    assert proc.returncode == 2


def test_christoffels_without_frame_is_applicability_failure(tmp_path):
    spec = {
        "backend": "constant_frame",
        "n": 2,
        "F": [
            ["1", "0", "0", "0"],
            ["0", "1", "0", "0"],
            ["0", "0", "-1", "0"],
            ["0", "0", "0", "-1"],
        ],
        "P": [
            ["0", "0", "1", "0"],
            ["0", "0", "0", "1"],
            ["1", "0", "0", "0"],
            ["0", "1", "0", "0"],
        ],
    }
    proc = run_cli("connection", "--christoffels", write(tmp_path, "nf.json", spec))
    assert proc.returncode == 1
    assert "adapted_frame" in proc.stderr


def test_classify_heis(fixture_dir):
    proc = run_cli("classify", fixture_dir / "heis_n2.json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["triple_kind"] == "biparacomplex-type"
    verdicts = {v["name"]: v for v in payload["verdicts"]}
    assert verdicts["integrable"]["holds"] is False
    assert verdicts["flat"]["holds"] is False
    assert verdicts["integrable"]["witness"]["components"] == ["0", "0", "-1", "0"]


def test_classify_flat_includes_metric(fixture_dir):
    proc = run_cli("classify", fixture_dir / "flat_n2.json")
    payload = json.loads(proc.stdout)
    assert payload["metric_class"]["eps1"] == "+"
    assert payload["metric_class"]["signature"] == [4, 0, 0]


def test_classify_with_seed_points(tmp_path):
    spec = {
        "backend": "polynomial_chart",
        "n": 1,
        "variables": ["x1", "y1"],
        "F": [["0", "1"], ["1", "0"]],
        "P": [["1", "0"], ["0", "-1"]],
        "metric": [["1", "0"], ["0", "1"]],
        "seed_points": [["0", "0"], ["1/2", "3"]],
    }
    proc = run_cli("classify", write(tmp_path, "seeded.json", spec))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["metric_class"]["seed_point_signatures"] == [[2, 0, 0], [2, 0, 0]]


def test_invariants_command():
    proc = run_cli("invariants", "--n", 1, "--r", 2)
    payload = json.loads(proc.stdout)
    assert payload["general"] == "0"
    assert payload["surface"] == "0"
    assert payload["consistent"] is True


def test_prolongation_command():
    proc = run_cli("prolongation", "--n", 2)
    payload = json.loads(proc.stdout)
    assert payload["prolongation_dimension"] == 0
    assert payload["transpose_invariant"] is True


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_prolongation_payload_is_frozen(capsys, n):
    assert main(["prolongation", "--n", str(n)]) == 0
    expected = f'{{\n  "n": {n},\n  "prolongation_dimension": 0,\n  "transpose_invariant": true\n}}\n'
    assert capsys.readouterr().out == expected


def test_difference_command_aff(fixture_dir):
    proc = run_cli("difference", fixture_dir / "aff_n2.json")
    payload = json.loads(proc.stdout)
    assert payload["difference"]["[1,2]"] == ["-1/3", "0", "0", "0"]


def test_torsion_and_nijenhuis_commands(fixture_dir):
    proc = run_cli("torsion", "--kind", "canonical", fixture_dir / "heis_n2.json")
    payload = json.loads(proc.stdout)
    assert payload["torsion"]["[1,2]"] == ["0", "0", "-1", "0"]
    proc = run_cli("nijenhuis", "--tensor", "F", fixture_dir / "heis_n2.json")
    payload = json.loads(proc.stdout)
    assert payload["table"]["[1,2]"] == ["0", "0", "4", "0"]
    proc = run_cli("nijenhuis", "--tensor", "FP", fixture_dir / "heis_n2.json")
    payload = json.loads(proc.stdout)
    assert payload["table"]["[1,2]"] == ["-2", "0", "0", "0"]


def test_curvature_command(fixture_dir):
    proc = run_cli("curvature", "--kind", "canonical", fixture_dir / "heis_n2.json")
    payload = json.loads(proc.stdout)
    assert payload["is_zero"] is True


def test_connection_christoffels_on_aff(fixture_dir):
    proc = run_cli(
        "connection", "--kind", "well-adapted", "--christoffels", fixture_dir / "aff_n2.json"
    )
    payload = json.loads(proc.stdout)
    assert payload["christoffels"]["xx"]["[1,2]^1"] == "1/3"
    assert payload["christoffels"]["xx"]["[2,1]^1"] == "-1/3"


def test_equivalent_command_identity(fixture_dir, tmp_path):
    map_payload = {
        "forward": ["x1", "x2", "y1", "y2"],
        "inverse": ["x1", "x2", "y1", "y2"],
    }
    map_path = write(tmp_path, "map.json", map_payload)
    proc = run_cli(
        "equivalent", fixture_dir / "flat_n2.json", fixture_dir / "flat_n2.json", "--map", map_path
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["verdicts"][0]["holds"] is True


def test_equivalent_command_shear(fixture_dir, tmp_path):
    map_payload = {
        "forward": ["x1", "x2", "y1 + x1^2", "y2"],
        "inverse": ["x1", "x2", "y1 - x1^2", "y2"],
    }
    map_path = write(tmp_path, "map.json", map_payload)
    proc = run_cli(
        "equivalent", fixture_dir / "flat_n2.json", fixture_dir / "flat_n2.json", "--map", map_path
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    # the shear moves the flat structure off itself
    assert payload["verdicts"][0]["holds"] is False


def test_equivalent_command_constant_frame(fixture_dir, tmp_path):
    eye = {"matrix": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                      ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}
    map_path = write(tmp_path, "eye.json", eye)
    proc = run_cli(
        "equivalent", fixture_dir / "heis_n2.json", fixture_dir / "heis_n2.json", "--map", map_path
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdicts"][0]["holds"] is True

    # a matrix that is no bracket morphism is a mathematical failure (exit 1)
    swap = {"matrix": [["0", "1", "0", "0"], ["1", "0", "0", "0"],
                       ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}
    map_path = write(tmp_path, "swap.json", swap)
    proc = run_cli(
        "equivalent", fixture_dir / "heis_n2.json", fixture_dir / "heis_n2.json", "--map", map_path
    )
    assert proc.returncode == 1
    assert "bracket" in proc.stderr


@pytest.mark.parametrize("map_payload, holds", [
    ({"forward": ["x1", "x2", "y1", "y2"], "inverse": ["x1", "x2", "y1", "y2"]}, True),
    ({"forward": ["x1", "x2", "y1 + x1^2", "y2"], "inverse": ["x1", "x2", "y1 - x1^2", "y2"]}, False),
], ids=["identity", "shear"])
def test_equivalent_without_a_polynomial_coframe_uses_the_frame_free_law(
    fixture_dir, tmp_path, capsys, monkeypatch, map_payload, holds
):
    # X1 and Y1 of the flat frame scaled by 1 + x1: the frame still certifies
    # the structure, but its inverse is not polynomial.
    spec = json.loads((fixture_dir / "flat_n2.json").read_text(encoding="utf-8"))
    spec["adapted_frame"] = [
        ["1 + x1", "0", "1 + x1", "0"],
        ["0", "1", "0", "1"],
        ["1 + x1", "0", "-1 - x1", "0"],
        ["0", "1", "0", "-1"],
    ]
    spec_path = str(write(tmp_path, "spec.json", spec))
    map_path = str(write(tmp_path, "map.json", map_payload))
    frame_free = []
    original = diagnostics.canonical_connection
    monkeypatch.setattr(diagnostics, "canonical_connection", lambda s: frame_free.append(s) or original(s))
    assert main(["equivalent", spec_path, spec_path, "--map", map_path]) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"][0]["holds"] is holds
    # Both laws are built only when F and P correspond.
    assert len(frame_free) == (2 if holds else 0)


def _flat_n1_with_frame_scaled_by_x1(fixture_dir) -> dict:
    # X_1 and Y_1 of the flat frame scaled by x1: validate accepts the frame,
    # but its inverse leaves the ring.
    spec = json.loads((fixture_dir / "flat_n1.json").read_text(encoding="utf-8"))
    spec["adapted_frame"] = [["x1", "x1"], ["x1", "-x1"]]
    return spec


@pytest.mark.parametrize("argv", [["connection", "--christoffels"]], ids=["christoffels"])
def test_frame_without_a_polynomial_inverse_is_named(fixture_dir, tmp_path, capsys, argv):
    spec = _flat_n1_with_frame_scaled_by_x1(fixture_dir)
    assert main([*argv, str(write(tmp_path, "spec.json", spec))]) == 1
    assert "error: adapted_frame: matrix is not polynomially invertible" in capsys.readouterr().err


def test_report_leaves_out_the_tables_of_a_frame_without_polynomial_inverse(fixture_dir, tmp_path, capsys):
    spec = _flat_n1_with_frame_scaled_by_x1(fixture_dir)
    assert main(["report", str(write(tmp_path, "spec.json", spec))]) == 0
    payload = json.loads(capsys.readouterr().out)
    del spec["adapted_frame"]
    assert main(["report", str(write(tmp_path, "frameless.json", spec))]) == 0
    frameless = json.loads(capsys.readouterr().out)
    # Reported as a spec without a frame: no Christoffel tables, no frame verdicts.
    assert payload["tensors"] == frameless["tensors"]
    assert payload["verdicts"] == frameless["verdicts"]
    assert payload["classification"] == frameless["classification"]
    assert frameless["warnings"] == []
    [warning] = payload["warnings"]
    assert "adapted_frame: matrix is not polynomially invertible" in warning


@pytest.mark.parametrize(
    "spec_a, spec_b",
    [
        ("heis_n2", "flat_n2"),
        ("flat_n2", "heis_n2"),
        ("flat_n1", "flat_n2"),
        ("flat_n2", "flat_n1"),
        ("heis_n2", "flat_n1"),
    ],
)
@pytest.mark.parametrize("map_payload", [
    {"matrix": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]},
    {"forward": ["x1", "x2", "y1", "y2"], "inverse": ["x1", "x2", "y1", "y2"]},
], ids=["matrix_map", "chart_map"])
def test_equivalent_of_mismatched_specs_fails_before_reading_the_map(
    fixture_dir, tmp_path, capsys, spec_a, spec_b, map_payload
):
    map_path = write(tmp_path, "map.json", map_payload)
    argv = ["equivalent", fixture_dir / f"{spec_a}.json", fixture_dir / f"{spec_b}.json"]
    assert main([str(a) for a in argv] + ["--map", str(map_path)]) == 1
    assert "map endpoints must share backend and dimension" in capsys.readouterr().err


def test_console_script_entry_point():
    import re
    import shutil

    # What the script that installing the package generates does: import the
    # target that pyproject.toml declares and exit with what it returns.
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    module, func = re.search(
        r'^\[project\.scripts\]\nbipara = "([\w.]+):(\w+)"$', pyproject, re.M
    ).groups()
    commands = [[sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"]]
    exe = shutil.which("bipara")
    if exe is not None:  # the package is installed: run its generated script too
        commands.append([exe])
    for command in commands:
        proc = subprocess.run(
            command + ["invariants", "--n", "1", "--r", "2"], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["general"] == "0"


def test_bilagrangian_command(tmp_path):
    spec = {
        "backend": "constant_frame",
        "n": 1,
        "F": [["1", "0"], ["0", "-1"]],
        "P": [["0", "1"], ["1", "0"]],
        "omega": [["0", "1"], ["-1", "0"]],
        "H": [["1", "0"], ["0", "1"]],
    }
    proc = run_cli("bilagrangian", write(tmp_path, "bl.json", spec))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["J"] == [["0", "-1"], ["1", "0"]]
    assert all(v["holds"] for v in payload["verdicts"])


def test_bilagrangian_requires_inputs(fixture_dir):
    proc = run_cli("bilagrangian", fixture_dir / "heis_n2.json")
    assert proc.returncode == 1
    assert "omega" in proc.stderr


# A symplectic omega with an asymmetric H: the orthogonal metric G = H + H(F., F.)
# needs a symmetric H.
ASYMMETRIC_H_SPEC = {
    "backend": "constant_frame",
    "n": 1,
    "F": [["1", "0"], ["0", "-1"]],
    "P": [["0", "1"], ["1", "0"]],
    "omega": [["0", "1"], ["-1", "0"]],
    "H": [["1", "1"], ["0", "1"]],
}


def test_report_skips_the_assembly_on_an_asymmetric_h(tmp_path, capsys):
    assert main(["report", str(write(tmp_path, "bl.json", ASYMMETRIC_H_SPEC))]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "bilagrangian" not in payload
    assert payload["warnings"] == ["bi-Lagrangian assembly skipped: H is not symmetric"]


def test_bilagrangian_names_an_asymmetric_h(tmp_path, capsys):
    assert main(["bilagrangian", str(write(tmp_path, "bl.json", ASYMMETRIC_H_SPEC))]) == 1
    assert "H is not symmetric" in capsys.readouterr().err


def test_report_determinism(fixture_dir, tmp_path):
    for name in ("flat_n1.json", "flat_n2.json", "heis_n2.json", "aff_n2.json"):
        first = run_cli("report", fixture_dir / name)
        second = run_cli("report", fixture_dir / name)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        run_cli("report", fixture_dir / name, "-o", out_a)
        run_cli("report", fixture_dir / name, "-o", out_b)
        assert out_a.read_bytes() == out_b.read_bytes()


def _walk_expressions(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, list):
        for item in value:
            yield from _walk_expressions(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _walk_expressions(item)


def test_report_expressions_round_trip(fixture_dir):
    proc = run_cli("report", fixture_dir / "aff_n2.json")
    payload = json.loads(proc.stdout)
    for expr in _walk_expressions(payload["tensors"]):
        reparsed = parse_poly(expr, ())
        assert str(reparsed) == expr


def test_report_uses_lf_line_endings(fixture_dir, tmp_path):
    out = tmp_path / "r.json"
    run_cli("report", fixture_dir / "heis_n2.json", "-o", out)
    data = out.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")


def test_text_output_mode(fixture_dir):
    proc = run_cli("--text", "classify", fixture_dir / "heis_n2.json")
    assert proc.returncode == 0
    assert "triple_kind: biparacomplex-type" in proc.stdout
    assert "{" not in proc.stdout.splitlines()[0]


def test_main_entry_point_in_process(fixture_dir, capsys):
    code = main(["invariants", "--n", "2", "--r", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["general"] == "4"


@pytest.mark.parametrize("command", ["report", "classify"])
@pytest.mark.parametrize("fixture", FIXTURES)
def test_output_matches_golden_file(fixture_dir, capsys, fixture, command):
    assert main([command, str(fixture_dir / f"{fixture}.json")]) == 0
    expected = (GOLDEN_DIR / f"{fixture}.{command}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


# Every optional section of a payload: sections_n1 is fixtures/flat_n1.json
# with a metric, seed points, omega and H, so report carries the metric class
# and the bi-Lagrangian section; the asymmetric H turns the latter into a
# warning.  It lives beside its goldens, as fixtures/ holds the four shipped specs.
SECTION_GOLDENS = [
    ("sections_n1", "report"),
    ("sections_n1", "classify"),
    ("sections_n1", "bilagrangian"),
    ("sections_n1", "validate"),
    ("asymmetric_h", "report"),
]


@pytest.mark.parametrize("spec, command", SECTION_GOLDENS)
def test_section_outputs_match_golden_file(tmp_path, capsys, spec, command):
    if spec == "asymmetric_h":
        path = write(tmp_path, "bl.json", ASYMMETRIC_H_SPEC)
    else:
        path = GOLDEN_DIR / f"{spec}.json"
    assert main([command, str(path)]) == 0
    expected = (GOLDEN_DIR / f"{spec}.{command}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("where", ["directory", "missing_parent"])
def test_report_to_an_unwritable_path_is_named(fixture_dir, tmp_path, capsys, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "r.json"
    assert main(["report", str(fixture_dir / "flat_n1.json"), "-o", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1


TABLE_COMMANDS = (
    ("connection", "--christoffels", "--kind", "canonical"),
    ("connection", "--christoffels", "--kind", "well-adapted"),
    ("torsion", "--kind", "canonical"),
    ("torsion", "--kind", "well-adapted"),
    ("curvature", "--kind", "canonical"),
    ("curvature", "--kind", "well-adapted"),
    ("difference",),
    ("nijenhuis", "--tensor", "F"),
    ("nijenhuis", "--tensor", "P"),
    ("nijenhuis", "--tensor", "FP"),
)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_table_outputs_match_golden_file(fixture_dir, capsys, fixture):
    """The table subcommands of one fixture, each stdout after a ``$ bipara ...`` line."""
    transcript = []
    for command in TABLE_COMMANDS:
        assert main([*command, str(fixture_dir / f"{fixture}.json")]) == 0
        transcript.append(f"$ bipara {' '.join(command)}\n{capsys.readouterr().out}")
    expected = (GOLDEN_DIR / f"{fixture}.tables.txt").read_text(encoding="utf-8")
    assert "".join(transcript) == expected


def test_report_builds_difference_tensor_and_frame_table_once(fixture_dir, monkeypatch, capsys):
    counts = Counter()
    original_init = DifferenceTensor.__init__

    def counted_init(self, *args, **kwargs):
        counts["difference"] += 1
        original_init(self, *args, **kwargs)

    original_table = ConnectionLaw.__dict__["frame_table"].func

    def counted_table(self):
        counts[f"frame_table.{self.kind}"] += 1
        return original_table(self)

    replacement = cached_property(counted_table)
    replacement.__set_name__(ConnectionLaw, "frame_table")
    monkeypatch.setattr(DifferenceTensor, "__init__", counted_init)
    monkeypatch.setattr(ConnectionLaw, "frame_table", replacement)
    assert main(["report", str(fixture_dir / "aff_n2.json")]) == 0
    capsys.readouterr()
    assert counts == {"difference": 1, "frame_table.canonical": 1}


def _count_concomitant_calls(monkeypatch, s):
    """Wrap the concomitant factories of ``cli``; count evaluator calls by tensor and frame pair."""
    calls = Counter()

    def counting(factory, name_of):
        def make(arg, *args, **kwargs):
            evaluate = factory(arg, *args, **kwargs)

            def counted(x, y):
                calls[name_of(arg), s.basis.index(x), s.basis.index(y)] += 1
                return evaluate(x, y)

            return counted

        return make

    monkeypatch.setattr(cli, "nijenhuis", counting(cli.nijenhuis, lambda e: "N_F" if e == s.F else "N_P"))
    monkeypatch.setattr(cli, "fn_bracket", counting(cli.fn_bracket, lambda _: "FP"))
    return calls


def test_classify_evaluates_each_concomitant_up_to_its_first_nonzero_pair(
    fixture_dir, monkeypatch, capsys
):
    spec = str(fixture_dir / "heis_n2.json")
    calls = _count_concomitant_calls(monkeypatch, build_structure(load_spec(spec)))
    assert main(["classify", spec]) == 0
    capsys.readouterr()
    # N_F(X1, X2) = 4 Y1 decides the Nijenhuis condition, so N_P is never read.
    assert calls == {("N_F", 0, 1): 1, ("FP", 0, 1): 1}


def test_report_evaluates_each_concomitant_pair_once(fixture_dir, monkeypatch, capsys):
    spec = str(fixture_dir / "heis_n2.json")
    calls = _count_concomitant_calls(monkeypatch, build_structure(load_spec(spec)))
    assert main(["report", spec]) == 0
    capsys.readouterr()
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    assert calls == {(name, i, j): 1 for name in ("N_F", "N_P", "FP") for i, j in pairs}


def _record_squares(monkeypatch, s):
    """Wrap ``EndoField.compose``; record "F" or "P" for each e o e formed from F or P."""
    squares = []
    compose = EndoField.compose

    def recording(a, b):
        if a == b and a in (s.F, s.P):
            squares.append("F" if a == s.F else "P")
        return compose(a, b)

    monkeypatch.setattr(EndoField, "compose", recording)
    return squares


def test_classify_never_composes_p_with_p(fixture_dir, monkeypatch, capsys):
    spec = str(fixture_dir / "heis_n2.json")
    squares = _record_squares(monkeypatch, build_structure(load_spec(spec)))
    assert main(["classify", spec]) == 0
    capsys.readouterr()
    # N_F is nonzero at its first pair, so N_P, the one reader of P o P, is never read.
    assert "P" not in squares


def test_report_never_composes_f_with_f_or_p_with_p(fixture_dir, monkeypatch, capsys):
    spec = str(fixture_dir / "heis_n2.json")
    squares = _record_squares(monkeypatch, build_structure(load_spec(spec)))
    assert main(["report", spec]) == 0
    capsys.readouterr()
    # Validation established F^2 = P^2 = Id, so N_F and N_P read e^2 [X, Y] as [X, Y].
    assert squares == []


def test_report_applies_f_and_p_to_each_basis_field_once_per_evaluator(fixture_dir, monkeypatch, capsys):
    spec = str(fixture_dir / "heis_n2.json")
    s = build_structure(load_spec(spec))
    applies = Counter()
    active = []  # (tensor, (x, y)) of the evaluator call in progress

    def tagging(factory, name_of):
        def make(arg, *args, **kwargs):
            evaluate = factory(arg, *args, **kwargs)

            def tagged(x, y):
                active.append((name_of(arg), (x, y)))
                try:
                    return evaluate(x, y)
                finally:
                    active.pop()

            return tagged

        return make

    apply = EndoField.apply

    def recording(e, x):
        if active and any(f is x for f in active[-1][1]):
            applies[active[-1][0], "F" if e == s.F else "P", s.basis.index(x)] += 1
        return apply(e, x)

    monkeypatch.setattr(cli, "nijenhuis", tagging(cli.nijenhuis, lambda e: "N_F" if e == s.F else "N_P"))
    monkeypatch.setattr(cli, "fn_bracket", tagging(cli.fn_bracket, lambda _: "FP"))
    monkeypatch.setattr(EndoField, "apply", recording)
    assert main(["report", spec]) == 0
    capsys.readouterr()
    expected = [("N_F", "F"), ("N_P", "P"), ("FP", "F"), ("FP", "P")]
    assert applies == {(tensor, e, k): 1 for tensor, e in expected for k in range(4)}


def test_main_builds_one_parser_per_process(fixture_dir, monkeypatch, capsys):
    spec = str(fixture_dir / "heis_n2.json")
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(parser, *args, **kwargs):
        parsers.append(parser)
        return parse_args(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    outputs = []
    for _ in range(2):
        assert main(["report", spec]) == 0
        outputs.append(capsys.readouterr().out)
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    assert outputs[0] == outputs[1]


def test_an_output_path_does_not_leak_into_the_next_call(fixture_dir, tmp_path, capsys):
    spec = str(fixture_dir / "aff_n2.json")
    out = tmp_path / "report.json"
    assert main(["report", spec, "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["report", spec]) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


def test_a_bad_argument_after_a_good_call_exits_2(fixture_dir, capsys):
    spec = str(fixture_dir / "aff_n2.json")
    assert main(["classify", spec]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--no-such-flag", spec])
    assert exc.value.code == 2
    assert "--no-such-flag" in capsys.readouterr().err


def test_a_command_patched_after_the_first_call_runs(fixture_dir, monkeypatch, capsys):
    spec = str(fixture_dir / "aff_n2.json")
    assert main(["validate", spec]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "cmd_validate", lambda args: {"patched": args.spec})
    assert main(["validate", spec]) == 0
    assert json.loads(capsys.readouterr().out) == {"patched": spec}


def test_commands_leave_no_bipara_object_in_a_reference_cycle(fixture_dir, capsys):
    # A tensor whose cell function held the tensor would form a cycle that
    # keeps each report's structure graph alive until the cyclic collector
    # runs.  The context's cached zero field is the one cycle allowed.
    spec = str(fixture_dir / "aff_n2.json")
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.garbage.clear()
        for command in ("report", "classify", "difference"):
            assert main([command, spec]) == 0
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    capsys.readouterr()
    owners = {obj if isinstance(obj, types.FunctionType) else type(obj) for obj in garbage}
    names = {o.__qualname__ for o in owners if (o.__module__ or "").startswith("bipara")}
    assert names <= {"FrameContext", "VectorField"}


def _count_parses(monkeypatch) -> Counter:
    """Wrap ``cli.parse_poly``; count its calls by (text, ring)."""
    calls = Counter()

    def counted(text, variables):
        calls[text, tuple(variables)] += 1
        return parse_poly(text, variables)

    monkeypatch.setattr(cli, "parse_poly", counted)
    return calls


def _spec_texts(spec: dict) -> set:
    """The (text, ring) of every matrix entry and structure constant of a spec."""
    ring = tuple(spec.get("variables", ()))
    texts = {
        (text, ring)
        for key in ("F", "P", "adapted_frame", "metric", "omega", "H")
        for row in spec.get(key) or ()
        for text in row
    }
    return texts | {(str(c), ()) for entry in spec.get("structure_constants", ()) for c in entry["coeffs"]}


@pytest.mark.parametrize("fixture", FIXTURES)
def test_load_spec_parses_each_distinct_text_once_per_file(fixture_dir, monkeypatch, fixture):
    path = fixture_dir / f"{fixture}.json"
    calls = _count_parses(monkeypatch)
    first = load_spec(str(path))
    expected = _spec_texts(json.loads(path.read_text(encoding="utf-8")))
    assert calls == Counter(dict.fromkeys(expected, 1))
    # a second read of the same file keeps nothing from the first
    assert load_spec(str(path)) == first
    assert calls == Counter(dict.fromkeys(expected, 2))


def test_map_file_parses_each_distinct_text_once(fixture_dir, tmp_path, monkeypatch, capsys):
    flat = str(fixture_dir / "flat_n2.json")
    shear = {"forward": ["x1", "x2", "y1 + x1^2", "y2"], "inverse": ["x1", "x2", "y1 - x1^2", "y2"]}
    chart_map = write(tmp_path, "map.json", shear)
    calls = _count_parses(monkeypatch)
    assert main(["equivalent", flat, flat, "--map", str(chart_map)]) == 0
    capsys.readouterr()
    ring = ("x1", "x2", "y1", "y2")
    spec_texts = _spec_texts(json.loads(Path(flat).read_text(encoding="utf-8")))
    map_texts = {(t, ring) for t in ("x1", "x2", "y1 + x1^2", "y1 - x1^2", "y2")}
    # each spec read parses its own texts; the map's "x1", "x2", "y2" are parsed once
    assert calls == Counter(dict.fromkeys(spec_texts, 2)) + Counter(dict.fromkeys(map_texts, 1))


def test_a_repeated_bad_literal_is_named_at_its_first_position(tmp_path, capsys):
    spec = _flat_n1_spec(F=[["1", "0"], ["0", "1/0"]], P=[["1/0", "1"], ["1", "0"]])
    path = write(tmp_path, "bad.json", spec)
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: F[2][2]: zero denominator (at offset 2)\n"


def test_a_json_integer_and_its_string_read_as_one_rational(tmp_path, monkeypatch):
    constants = [{"i": 1, "j": 2, "coeffs": [2, "2"]}]
    path = write(tmp_path, "ints.json", _flat_n1_spec(structure_constants=constants))
    calls = _count_parses(monkeypatch)
    spec = load_spec(str(path))
    assert spec.bracket_table == {(0, 1): (2, 2)}
    assert calls[("2", ())] == 1


def test_a_bad_seed_coordinate_is_named_with_its_index(tmp_path, capsys):
    # "x1" is an entry of the metric's ring, but a seed coordinate is a rational
    spec = {
        "backend": "polynomial_chart",
        "n": 1,
        "variables": ["x1", "y1"],
        "F": [["0", "1"], ["1", "0"]],
        "P": [["1", "0"], ["0", "-1"]],
        "metric": [["1", "0"], ["0", "x1"]],
        "seed_points": [["0", "0"], ["1/2", "x1"]],
    }
    path = write(tmp_path, "seeded.json", spec)
    assert main(["classify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: seed_points[2][2]: unknown variable 'x1' (at offset 0)\n"


def _flat_n1_spec(**overrides):
    spec = {
        "backend": "constant_frame",
        "n": 1,
        "F": [["1", "0"], ["0", "-1"]],
        "P": [["0", "1"], ["1", "0"]],
    }
    spec.update(overrides)
    return spec


def test_boolean_half_dimension_is_schema_error(tmp_path):
    proc = run_cli("validate", write(tmp_path, "bool_n.json", _flat_n1_spec(n=True)))
    assert proc.returncode == 2
    assert "n must be a positive integer" in proc.stderr


def test_boolean_frame_index_is_schema_error(tmp_path):
    constants = [{"i": True, "j": 2, "coeffs": ["0", "0"]}]
    proc = run_cli(
        "validate", write(tmp_path, "bool_ij.json", _flat_n1_spec(structure_constants=constants))
    )
    assert proc.returncode == 2
    assert "integer frame indices" in proc.stderr


@pytest.mark.parametrize(
    "deep", ["(" * 5000 + "1" + ")" * 5000, "-" * 5000 + "1"], ids=["parentheses", "unary_minus"]
)
def test_deeply_nested_expression_is_schema_error(tmp_path, deep):
    spec = _flat_n1_spec(F=[[deep, "0"], ["0", "-1"]])
    proc = run_cli("validate", write(tmp_path, "deep.json", spec))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "nesting deeper than 100 (at offset 100)" in proc.stderr


@pytest.mark.parametrize(
    "entry, message",
    [
        ("(x1+x2+y1+y2+1)^16", "MAX_TERM_PRODUCTS = 50000 term products (at offset 15)"),
        ("y1^101", "exponent above MAX_EXPONENT = 100 (at offset 3)"),
        ("9" * 5000, "number of 5000 digits is too long (at offset 0)"),
        # 10^10000 would pass the other limits and overflow int-to-str when printed
        ("(10^100)^100", "coefficient above MAX_COEFFICIENT_BITS = 4096 bits (at offset 8)"),
        # '²' passes str.isdigit but not int(): no limit applies, it starts no token
        ("x1^²", "F[1][1]: unexpected character '²' (at offset 3)"),
    ],
    ids=["term_products", "exponent", "long_number", "coefficient_bits", "superscript_digit"],
)
def test_oversized_expression_is_schema_error(tmp_path, fixture_dir, entry, message):
    spec = json.loads((fixture_dir / "flat_n2.json").read_text(encoding="utf-8"))
    spec["F"][0][0] = entry
    proc = run_cli("validate", write(tmp_path, "big.json", spec))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr



@pytest.mark.parametrize(
    "argv, message",
    [
        # n = r = 10000 gives a count too long for the interpreter's int-to-str limit
        (["invariants", "--n", 10000, "--r", 10000], "--n or --r above MAX_INVARIANT_INDEX = 1000"),
        (["invariants", "--n", 1, "--r", 1001], "--n or --r above MAX_INVARIANT_INDEX = 1000"),
        (["prolongation", "--n", 7], "--n above MAX_PROLONGATION_N = 6"),
    ],
    ids=["invariants_huge", "invariants_order", "prolongation"],
)
def test_oversized_cli_argument_is_schema_error(argv, message):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


def _adapted_constant_spec(n):
    """The abelian constant-frame spec of half-dimension n: F = diag(I, -I), P the block swap."""
    dim = 2 * n
    f = [[str((i == j) * (1 if i < n else -1)) for j in range(dim)] for i in range(dim)]
    p = [[str(int(abs(i - j) == n)) for j in range(dim)] for i in range(dim)]
    return {"backend": "constant_frame", "n": n, "F": f, "P": p}


def test_half_dimension_limit(tmp_path, capsys):
    over = write(tmp_path, "over.json", _adapted_constant_spec(MAX_HALF_DIMENSION + 1))
    start = time.perf_counter()
    assert main(["report", str(over)]) == 2
    assert time.perf_counter() - start < 2
    assert f"over.json: n above MAX_HALF_DIMENSION = {MAX_HALF_DIMENSION}" in capsys.readouterr().err
    at = write(tmp_path, "at.json", _adapted_constant_spec(MAX_HALF_DIMENSION))
    assert main(["validate", str(at)]) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"][0]["holds"] is True


def test_invariant_count_at_the_limit_prints(capsys):
    assert main(["invariants", "--n", "1000", "--r", "1000"]) == 0
    assert json.loads(capsys.readouterr().out)["general_is_integer"] is True


IDENTITY_CHART_MAP = {"forward": ["x1", "x2", "y1", "y2"], "inverse": ["x1", "x2", "y1", "y2"]}


@pytest.mark.parametrize(
    "fixture, spec_update, map_data, message",
    [
        ("flat_n2", {"seed_points": 5}, None, "spec.json: seed_points must be a list of points"),
        ("flat_n2", {"seed_points": {"a": 1}}, None, "spec.json: seed_points must be a list of points"),
        (
            "flat_n2",
            {},
            {**IDENTITY_CHART_MAP, "forward": [1, "x2", "y1", "y2"]},
            "map.json: forward[1]: entries are strings",
        ),
        (
            "flat_n2",
            {},
            {**IDENTITY_CHART_MAP, "inverse": ["x1", "x2"]},
            "map.json: inverse: expected a list of 4 expressions",
        ),
        ("heis_n2", {}, {"matrix": [1, 2]}, "map.json: matrix: expected 4 rows"),
        ("heis_n2", {}, {"matrix": [[1]]}, "map.json: matrix: expected 4 rows"),
        (
            "heis_n2",
            {},
            {"matrix": [["1", "0", "0", "0"], ["0", "1"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]},
            "map.json: matrix: row 2 must have 4 entries",
        ),
        (
            "heis_n2",
            {},
            {"matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
            "map.json: matrix[1][1]: entries are strings",
        ),
    ],
    ids=["seed_points_int", "seed_points_object", "forward_int", "inverse_short", "matrix_flat",
         "matrix_1x1", "matrix_short_row", "matrix_numbers"],
)
def test_malformed_spec_or_map_is_schema_error(
    tmp_path, fixture_dir, capsys, fixture, spec_update, map_data, message
):
    spec = json.loads((fixture_dir / f"{fixture}.json").read_text(encoding="utf-8"))
    spec_path = str(write(tmp_path, "spec.json", {**spec, **spec_update}))
    argv = ["validate", spec_path]
    if map_data is not None:
        argv = ["equivalent", spec_path, spec_path, "--map", str(write(tmp_path, "map.json", map_data))]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"n": ' + b"9" * 5000 + b"}", "bad.json"),  # longer than int() converts
        (b"[" * 100000 + b"]" * 100000, "bad.json: invalid JSON"),
        (b'{"n": "\xff"}', "cannot read"),
    ],
    ids=["long_integer", "deep_nesting", "not_utf8"],
)
def test_unreadable_json_is_schema_error(tmp_path, fixture_dir, capsys, content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    flat = str(fixture_dir / "flat_n2.json")
    for argv in (["validate", str(bad)], ["equivalent", flat, flat, "--map", str(bad)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
