"""Hypothesis fuzzing of spec and map JSON through the CLI.

Each example takes a shipped fixture (or the identity map on it), replaces
one value with random JSON, removes one key or item, or sets a top-level key
of the file format that the fixture leaves out, and runs ``validate`` and
``equivalent``.  Whatever the input, the CLI must end with exit code 0, 1 or
2, never raise, and print nothing on stdout unless it succeeds.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from bipara.cli import main

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURES = {p.stem: json.loads(p.read_text(encoding="utf-8")) for p in sorted(FIXTURE_DIR.glob("*.json"))}

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=10**6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["0", "1", "-1", "1/2", "x1", "y1 + x1^2", "", "constant_frame", "polynomial_chart"])
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

# Top-level keys of the spec and map formats; the fixtures leave some out.
KEYS = (
    "backend", "n", "variables", "F", "P", "structure_constants", "adapted_frame",
    "metric", "omega", "H", "seed_points", "forward", "inverse", "matrix",
)

FUZZ = settings(max_examples=40, derandomize=True, deadline=None)


def identity_map(spec: dict) -> dict:
    if spec["backend"] == "polynomial_chart":
        return {"forward": list(spec["variables"]), "inverse": list(spec["variables"])}
    dim = 2 * spec["n"]
    return {"matrix": [[str(int(i == j)) for j in range(dim)] for i in range(dim)]}


def paths(value, prefix=()):
    """Every key or index path into a JSON value, the root included."""
    yield prefix
    if not prefix and isinstance(value, dict):
        yield from ((key,) for key in KEYS if key not in value)
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from paths(sub, prefix + (key,))
    elif isinstance(value, list):
        for k, sub in enumerate(value):
            yield from paths(sub, prefix + (k,))


@st.composite
def mutated(draw, document):
    """``document`` with one value replaced or removed, or a missing top-level key set."""
    data = json.loads(json.dumps(document))
    path = draw(st.sampled_from(list(paths(data))))
    replacement = draw(JSON)
    if not path:
        return replacement
    parent = data
    for step in path[:-1]:
        parent = parent[step]
    if (isinstance(parent, dict) and path[-1] not in parent) or draw(st.booleans()):
        parent[path[-1]] = replacement
    else:
        del parent[path[-1]]
    return data


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), code
    if code != 0:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: "), err.getvalue()
    return code


def check(spec, map_data) -> tuple[int, int]:
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.json"
        map_path = Path(tmp) / "map.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        map_path.write_text(json.dumps(map_data), encoding="utf-8")
        return (
            run(["validate", str(spec_path)]),
            run(["equivalent", str(spec_path), str(spec_path), "--map", str(map_path)]),
        )


@FUZZ
@given(st.sampled_from(sorted(FIXTURES)), st.data())
def test_mutated_spec_never_raises(name, data):
    check(data.draw(mutated(FIXTURES[name])), identity_map(FIXTURES[name]))


@FUZZ
@given(st.sampled_from(sorted(FIXTURES)), st.data())
def test_mutated_map_never_raises(name, data):
    check(FIXTURES[name], data.draw(mutated(identity_map(FIXTURES[name]))))


def test_unmutated_inputs_pass():
    for spec in FIXTURES.values():
        assert check(spec, identity_map(spec)) == (0, 0)
