import json
import subprocess
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

from bipara.cli import main
from bipara.connections import ConnectionLaw, DifferenceTensor
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
    assert "F^2 != Id" in proc.stderr
    assert "witness" in proc.stderr


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


def test_console_script_entry_point():
    import shutil

    exe = shutil.which("bipara")
    if exe is None:
        return  # editable install without scripts on PATH; module path is tested above
    proc = subprocess.run([exe, "invariants", "--n", "1", "--r", "2"], capture_output=True, text=True)
    assert proc.returncode == 0
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
    ],
    ids=["term_products", "exponent", "long_number", "coefficient_bits"],
)
def test_oversized_expression_is_schema_error(tmp_path, fixture_dir, entry, message):
    spec = json.loads((fixture_dir / "flat_n2.json").read_text(encoding="utf-8"))
    spec["F"][0][0] = entry
    proc = run_cli("validate", write(tmp_path, "big.json", spec))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr

