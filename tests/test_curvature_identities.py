"""The curvature R of both attached connections against identities it must satisfy.

Both connections parallelize F and P, so each R(X, Y) commutes with F and P:
R takes values in the Lie algebra g of the structure group.  With torsion T,
the two Bianchi identities hold (Kobayashi and Nomizu, *Foundations of
Differential Geometry* I, 1963, ch. III), with 𝔖 the cyclic sum over X, Y, Z:

    𝔖 R(X, Y)Z = 𝔖 [T(T(X, Y), Z) + (∇_X T)(Y, Z)]
    𝔖 [(∇_X R)(Y, Z) + R(T(X, Y), Z)] = 0

Both sides alternate in X, Y, Z, so the frame triples a < b < c decide them;
at n = 1 there is no such triple, and only the g-valuedness check applies.
The structures are the four fixtures, pushed non-integrable nilpotent charts,
conjugated random constant frames, a conjugated affine frame, a torsion-free
chart with nonzero curvature and a pushed non-integrable chart with nonzero
curvature.  BIPARA_SEED draws the random ones.
"""

import json
import random

import pytest

from bipara import (
    PolyMatrix,
    adapted_structure,
    affine_structure,
    chart_context,
    parse_poly,
    pushforward_structure,
    random_structure,
    random_unipotent_map,
)
from bipara.cli import Analysis, build_structure, load_spec, main
from bipara.structure import _random_isomorphism
from conftest import FIXTURE_DIR, SUITE_SEED, _pool_entry, chart_spec

KINDS = ("canonical", "well-adapted")


# Rows of unipotent frame matrices (columns X_1.., Y_1..), so each has a polynomial inverse.
CURVED_FRAMES = {
    1: [["1", "0"], ["y1^2", "1"]],
    2: [["1", "0", "0", "0"], ["y2", "1", "0", "0"], ["y1^2", "x1", "1", "0"], ["x2", "y1", "x1", "1"]],
}


def curved_chart(n):
    """The chart adapted to ``CURVED_FRAMES[n]``.

    At n = 1, X = dx1 + y1^2 dy1 and Y = dy1: integrable, so T = 0, and R != 0.
    At n = 2 it is not integrable, and for both laws the cyclic sums 𝔖 R(X, Y)Z
    and 𝔖 R(T(X, Y), Z) are nonzero, so each identity compares nonzero sides.
    """
    variables = tuple(f"{c}{i + 1}" for c in "xy" for i in range(n))
    rows = CURVED_FRAMES[n]
    frame = PolyMatrix.from_rows([[parse_poly(e, variables) for e in row] for row in rows])
    return adapted_structure(chart_context(variables), frame)


def pushed_curved_chart():
    base = curved_chart(2)
    return pushforward_structure(random_unipotent_map(base.context, 2, random.Random(SUITE_SEED)), base)


STRUCTURES = {
    **{
        name: lambda name=name: build_structure(load_spec(str(FIXTURE_DIR / f"{name}.json")))
        for name in ("flat_n1", "flat_n2", "heis_n2", "aff_n2")
    },
    **{
        f"nilpotent_n2_{k}": lambda k=k: _pool_entry("nilpotent_chart", 2, SUITE_SEED + k)
        for k in range(2)
    },
    **{
        f"constant_n{n}_{k}": lambda n=n, k=k: random_structure(
            n, "constant_frame", seed=SUITE_SEED + 10 * n + k, conjugate=True
        )
        for n, k in ((2, 0), (2, 1), (3, 0))
    },
    "conjugated_aff": lambda: pushforward_structure(
        _random_isomorphism(affine_structure().context, random.Random(SUITE_SEED)), affine_structure()
    ),
    "curved_n1": lambda: curved_chart(1),
    "pushed_curved_n2": pushed_curved_chart,
}


@pytest.fixture(scope="module", params=sorted(STRUCTURES))
def analysis(request):
    return Analysis(STRUCTURES[request.param]())


def _triples(dim):
    return [(a, b, c) for a in range(dim) for b in range(a + 1, dim) for c in range(b + 1, dim)]


def _cyclic(term, a, b, c):
    """𝔖 term: term(a, b, c) + term(b, c, a) + term(c, a, b)."""
    return term(a, b, c) + term(b, c, a) + term(c, a, b)


def nabla_torsion(law, t, i, j, k):
    """(∇_{E_i} T)(E_j, E_k) = ∇_i(T(E_j, E_k)) - T(∇_i E_j, E_k) - T(E_j, ∇_i E_k)."""
    ft, basis = law.frame_table, law.structure.basis
    return (
        law.nabla_of_field(i, t.table[j][k])
        - t.evaluate(ft[i][j], basis[k])
        - t.evaluate(basis[j], ft[i][k])
    )


def nabla_curvature(law, r, i, j, k, m):
    """(∇_{E_i} R)(E_j, E_k)E_m: ∇_i(R(E_j, E_k)E_m) less R with ∇_i on each frame argument."""
    ft, basis = law.frame_table, law.structure.basis
    return (
        law.nabla_of_field(i, r.evaluate(basis[j], basis[k], basis[m]))
        - r.evaluate(ft[i][j], basis[k], basis[m])
        - r.evaluate(basis[j], ft[i][k], basis[m])
        - r.evaluate(basis[j], basis[k], ft[i][m])
    )


@pytest.mark.parametrize("kind", KINDS)
def test_curvature_takes_values_in_the_structure_algebra(analysis, kind):
    # R(E_i, E_j)(e E_k) = e R(E_i, E_j)E_k for e = F, P, read off each cell
    s, r = analysis.s, analysis.curvature(kind)
    basis = s.basis
    for (i, j, k), cell in r.cells():
        for e in (s.F, s.P):
            assert r.evaluate(basis[i], basis[j], e.column_field(k)) == e.apply(cell), (i, j, k)


@pytest.mark.parametrize("kind", KINDS)
def test_first_bianchi_identity_with_torsion(analysis, kind):
    law, t, r = analysis.law(kind), analysis.torsion(kind), analysis.curvature(kind)
    basis = law.structure.basis

    def curvature_term(a, b, c):
        return r.evaluate(basis[a], basis[b], basis[c])

    def torsion_term(a, b, c):
        return t.evaluate(t.table[a][b], basis[c]) + nabla_torsion(law, t, a, b, c)

    for a, b, c in _triples(law.structure.dim):
        assert _cyclic(curvature_term, a, b, c) == _cyclic(torsion_term, a, b, c), (a, b, c)


@pytest.mark.parametrize("kind", KINDS)
def test_second_bianchi_identity_with_torsion(analysis, kind):
    law, t, r = analysis.law(kind), analysis.torsion(kind), analysis.curvature(kind)
    basis, dim = law.structure.basis, law.structure.dim
    for a, b, c in _triples(dim):
        for m in range(dim):

            def term(x, y, z):
                return nabla_curvature(law, r, x, y, z, m) + r.evaluate(t.table[x][y], basis[z], basis[m])

            assert _cyclic(term, a, b, c).is_zero, (a, b, c, m)


@pytest.mark.parametrize("kind", KINDS)
def test_both_identities_have_nonzero_sides_on_the_pushed_curved_chart(kind):
    # Both cyclic sums alternate in X, Y, Z, so a push keeps them nonzero on
    # some frame triple a < b < c.
    a = Analysis(pushed_curved_chart())
    t, r = a.torsion(kind), a.curvature(kind)
    basis, dim = a.s.basis, a.s.dim

    def curvature_term(x, y, z):
        return r.evaluate(basis[x], basis[y], basis[z])

    sums = [_cyclic(curvature_term, *triple) for triple in _triples(dim)]
    assert not all(v.is_zero for v in sums)
    sums = [
        _cyclic(lambda x, y, z: r.evaluate(t.table[x][y], basis[z], basis[m]), *triple)
        for triple in _triples(dim)
        for m in range(dim)
    ]
    assert not all(v.is_zero for v in sums)


def test_curved_chart_is_the_flat_verdict_witness_of_a_three_index_key(tmp_path, capsys):
    # integrable (T = 0), so the flat verdict's witness is the first nonzero
    # curvature cell, keyed (i, j, k)
    path = tmp_path / "curved.json"
    path.write_text(json.dumps(chart_spec(curved_chart(1))), encoding="utf-8")
    assert main(["classify", str(path)]) == 0
    verdicts = {v["name"]: v for v in json.loads(capsys.readouterr().out)["verdicts"]}
    assert verdicts["integrable"]["holds"] is True
    assert verdicts["flat"] == {
        "name": "flat",
        "holds": False,
        "witness": {"tensor": "curvature", "inputs": ["E1", "E2", "E1"], "components": ["2", "0"]},
    }
