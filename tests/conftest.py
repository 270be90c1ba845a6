import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

# BIPARA_SEED overrides the seed used by every randomized suite in here.
SUITE_SEED = int(os.environ.get("BIPARA_SEED", "20240917"))

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def suite_seed() -> int:
    return SUITE_SEED


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def flat_n2():
    from bipara import flat_structure

    return flat_structure(2)


@pytest.fixture(scope="session")
def heis():
    from bipara import heisenberg_structure

    return heisenberg_structure()


@pytest.fixture(scope="session")
def aff():
    from bipara import affine_structure

    return affine_structure()


# How each pool entry is built, its half-dimension n and the entry count, in
# pool order.  New kinds go at the end, so the earlier entries keep their
# seeds and their indices.
POOL_SPEC = [
    ("constant_frame", 1, 6),
    ("constant_frame", 2, 7),
    ("constant_frame", 3, 5),
    ("polynomial_chart", 1, 12),
    ("polynomial_chart", 2, 12),
    ("polynomial_chart", 3, 8),
    ("nilpotent_chart", 2, 3),
    ("nilpotent_chart", 3, 2),
]


def nilpotent_table(n: int, rng: random.Random) -> dict:
    """A 2-step nilpotent table for ``nilpotent_chart``: [X_i, X_j] = sum_k c^k_ij Y_k.

    Every c^k_ij with k = (i + j) mod n is nonzero, the others are drawn from
    {0, 1, -2}.
    """
    table = {}
    for j in range(n):
        for i in range(j):
            coeffs = [Fraction(0)] * (2 * n)
            for k in range(n):
                c = rng.choice((1, -1, Fraction(1, 2))) if k == (i + j) % n else rng.choice((0, 1, -2))
                coeffs[n + k] = Fraction(c)
            table[(i, j)] = tuple(coeffs)
    return table


def _pool_entry(kind: str, n: int, seed: int):
    from bipara import nilpotent_chart, pushforward_structure, random_structure, random_unipotent_map

    if kind == "nilpotent_chart":
        rng = random.Random(seed)
        base = nilpotent_chart(n, nilpotent_table(n, rng))
        return pushforward_structure(random_unipotent_map(base.context, 2, rng), base)
    return random_structure(n, kind, degree=2, seed=seed)


def structure_pool(seed: int):
    """The shared pool of generated structures used across the suites.

    Mix of backends and half-dimensions (see ``POOL_SPEC``):
    ``polynomial_chart`` entries are unipotent conjugates of the flat model
    (degree <= 2), hence integrable and flat; ``nilpotent_chart`` entries
    are non-integrable 2-step nilpotent charts pushed by a degree-2
    unipotent map; constant-frame ones come from Jacobi-valid random bracket
    tables.
    """
    return [
        _pool_entry(kind, n, seed + 1000 * counter + k)
        for counter, (kind, n, count) in enumerate(POOL_SPEC)
        for k in range(count)
    ]


@pytest.fixture(scope="session")
def pool_kinds() -> list[str]:
    """The ``POOL_SPEC`` kind of each ``generated_pool`` entry, in order."""
    return [kind for kind, _, count in POOL_SPEC for _ in range(count)]


@pytest.fixture(scope="session")
def generated_pool(suite_seed):
    return structure_pool(suite_seed)


@pytest.fixture(scope="session")
def pool_entry_of_kind(generated_pool, pool_kinds) -> dict:
    """The first ``generated_pool`` entry of each ``POOL_SPEC`` kind with n >= 2."""
    entries = {}
    for kind, s in zip(pool_kinds, generated_pool):
        if s.dim >= 4:
            entries.setdefault(kind, s)
    return entries


def zero_shortcut_operands(s) -> list:
    """Fields of ``s`` for the zero-operand tests: the shared and a built zero
    field, the first and last frame fields and all of their ``frame_split`` parts."""
    from bipara.geometry import VectorField

    ctx = s.context
    return [
        ctx.zero_field,
        VectorField.from_rationals(ctx, [0] * ctx.dim),
        s.basis[0],
        s.basis[-1],
        *s.frame_split[0],
        *s.frame_split[-1],
    ]


def chart_spec(s) -> dict:
    """The spec file of a chart structure ``s`` with its adapted frame, every entry written by ``str``."""

    def rows(m):
        return [[str(m.get(i, j)) for j in range(m.cols)] for i in range(m.rows)]

    return {
        "backend": "polynomial_chart",
        "n": s.n,
        "variables": list(s.context.variables),
        "F": rows(s.F.matrix),
        "P": rows(s.P.matrix),
        "adapted_frame": rows(s.adapted_frame),
    }
