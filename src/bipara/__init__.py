"""Exact-arithmetic connections for almost complex product structures.

The package builds the canonical and well-adapted connections of almost
biparacomplex structures (anticommuting pairs of involutive (1,1)-tensor
fields) over two exact backends -- polynomial charts and Lie algebras given
by structure constants -- and mechanically verifies the identities relating
torsion, curvature, Nijenhuis tensors and the difference tensor on concrete
structures.  All arithmetic is rational and exact; every check is an
identity of canonical polynomial forms.
"""

from .connections import (
    ChristoffelTable,
    ConnectionLaw,
    CurvatureTensor,
    DifferenceTensor,
    PairTensor,
    TorsionTensor,
    canonical_christoffels,
    canonical_connection,
    connection_from_table,
    curvature,
    endo_covariant_derivative,
    is_parallel,
    preserves_distributions,
    pushforward_connection,
    torsion,
    trace_condition_holds,
    well_adapted_christoffels,
    well_adapted_connection,
    well_adapted_routes_agree,
)
from .diagnostics import (
    InvariantCount,
    Verdict,
    commutant_check,
    equivalence_check,
    first_prolongation_dim,
    flatness_verdict,
    fn_bracket,
    integrability_verdict,
    invariant_count,
    involutivity_flags,
    fp_torsion_identities,
    nijenhuis,
    trace_pairing_condition,
    transpose_invariance,
)
from .geometry import (
    BilinearField,
    EndoField,
    FrameContext,
    PolyMap,
    VectorField,
    algebra_context,
    basis_fields,
    chart_context,
    identity_map,
    lie_bracket,
    pushforward_bilinear,
    pushforward_endo,
    pushforward_vector,
)
from .linalg import PolyMatrix, poly_matrix_inverse
from .metrics import (
    MetricClass,
    bi_lagrangian_assembly,
    build_orthogonal_metric,
    classify_metric,
    solve_hypersymplectic_metric,
    special_metric_predicates,
)
from .poly import MultiPoly, parse_poly
from .structure import (
    BiparaStructure,
    Projectors,
    StructureError,
    adapted_basis,
    adapted_structure,
    affine_structure,
    classify_triple,
    delta_gl_algebra_membership,
    delta_gl_membership,
    flat_structure,
    heisenberg_structure,
    nilpotent_chart,
    pushforward_structure,
    random_structure,
    random_unipotent_map,
    structure_from_alpha,
)

__version__ = "0.1.0"
