"""Exact verification toolkit for determinantal space curves.

Matrix pencils in canonical form, invariant curves from matrices of
linear forms, resolution-certified cohomology, normal bundle splittings
of rational curves, and numeric metric extraction along the fibration.
"""

from .acm_curve import (
    ACMCurve,
    LinearMatrix,
    ResolutionCertificate,
    avoids_base_line,
    certify_resolution,
    curve_degree,
    curve_genus,
    fiber_hilbert_function,
    fiber_points,
    invariants,
    random_real_curve,
    random_sigma_curve,
    restrict_to_fiber,
    stratum_check,
)
from .cohomology import (
    cohomology_table,
    ellia_stability_check,
    ideal_cohomology,
    line_bundle_cohomology_P3,
    normal_sections,
    normal_sheaf_report,
)
from .exact_algebra.linalg import ExactMatrix
from .exact_algebra.scalars import GaussianRational, parse_gauss
from .pencil import (
    canonical_pair,
    is_injective_pencil,
    kronecker_reduce,
    pair_stabilizer_dimension,
)
from .rational_curve import (
    RationalCurveMap,
    normal_splitting_type,
    random_rational_map,
    stability_check,
    validate_map,
)
from .reality import (
    is_real_pair,
    is_sigma_invariant_ideal,
    make_sigma_invariant_pencil,
    reality_conjugate,
    sigma_form,
    sigma_matrix_tuple,
    sigma_point,
)
from .twistor_metric import (
    HKFrame,
    MetricReport,
    complex_structures,
    extract_metric,
    flatness_scan,
    normalize_to_flat_chart,
)

__version__ = "0.1.0"
