"""Determinantal space curves cut out by maximal minors of a linear matrix.

An (r+1) x r matrix of linear forms in 4 variables defines a curve of
degree r(r+1)/2 wherever its rank drops; the signed maximal minors
generate the saturated ideal when the resolution certificate holds.
Fibration by the last two coordinates slices the curve into finite
planar point sets whose Hilbert functions stratify the parameter line.
"""

from .curve import (
    ACMCurve,
    LinearMatrix,
    avoids_base_line,
    certify_resolution,
    curve_degree,
    curve_genus,
    invariants,
    predicted_ideal_dimension,
    random_real_curve,
    random_sigma_curve,
)
from .fibers import (
    MAX_FIBERS,
    expected_hilbert,
    fiber_generators,
    fiber_hilbert_function,
    fiber_multiplication_matrices,
    fiber_points,
    hilbert_profile,
    random_fiber_parameters,
    restrict_to_fiber,
    stratum_check,
)
