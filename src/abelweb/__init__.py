"""Exact-arithmetic toolkit for constant webs and their abelian relations."""

from .errors import DegenerateWebError, InternalContradictionError
from .exactalg import Matrix, binomial, rational
from .multilinear import (
    ExteriorForm,
    HomogeneousPoly,
    index_subsets,
    monomial_exponents,
    poly_space_dim,
    substitute,
    wedge,
)
from .webcore import (
    ConstantFoliation,
    ConstantWeb,
    check_pg,
    degree_bound,
    generator_normal,
    h_cutoff,
    q_of,
    rho_bound,
)
from .abelian import (
    RankReport,
    RelationBasisElement,
    relation_matrix,
    relation_space,
    relation_space_dim,
    subweb,
    total_rank,
)
from .grassmann import (
    AdaptedStructure,
    MomentWebSpec,
    ProjectivePoint,
    RncFit,
    akivis_structure,
    castelnuovo_rnc_test,
    fit_rnc,
    foliation_from_point,
    moment_point,
    moment_web,
    omega_expansion,
    recover_normal_form,
    structures_equivalent,
)
from .canonical import (
    CanonicalData,
    canonical_data,
    check_general_solution,
    dimension_formula,
    lagrange_identity,
    solution_polynomial,
    vandermonde_weights,
)
from .incidence import (
    PlaneArrangement,
    intersect_with_base_plane,
    tangent_incidence_web,
)

__version__ = "0.1.0"
