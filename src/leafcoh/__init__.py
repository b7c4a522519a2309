"""leafcoh: executable rigidity theory for torus dynamics.

Diophantine certificates, small-divisor cohomological equations, leafwise
cohomology of linear foliations, suspension Wang sequences, skew-product
obstruction functionals, and Chevalley-Eilenberg cohomology, with exact
arithmetic wherever a zero must be trusted.
"""

__version__ = "0.1.0"

from .diophantine import (
    DiophantineCertificate,
    continued_fraction,
    exponent_fit,
    matrix_margin,
    scalar_margin,
)
from .fourier import TrigPoly, decay_report, frame_derivative, grid_transform, inverse_grid
from .leafwise import (
    AmbientForm,
    LeafwiseForm,
    LinearFoliation,
    SmallDivisorDiagnostic,
    ambient_d,
    iota_form,
    leafwise_d,
    minimizability_witness,
    restrict,
    solve_h1,
)
from .liealg import LieAlgebraSpec, abelian, affine_line, ce_cohomology, maurer_cartan_residual, sl2
from .scalars import ApproximateReal, QuadraticIrrational, Rational, golden_ratio_conjugate, parse_scalar, sqrt_scalar
from .skewflow import (
    KroneckerFlowSpec,
    birkhoff_flow_average,
    birkhoff_map_average,
    circle_cohom_solve,
    flow_cohom_solve,
    katok_obstructions,
    reparam_invariant_density,
    skew_coboundary,
    skew_coboundary_exact,
    straighten_cross_section,
)
from .toral import (
    CohomologyReport,
    ToralAutomorphism,
    certify_hyperbolic,
    char_poly_irreducible,
    kunneth_dims,
    stable_slope_matrix,
    wang_cohomology,
)
