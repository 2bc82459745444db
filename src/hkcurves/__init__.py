"""Exact verification toolkit for determinantal space curves.

Matrix pencils in canonical form, invariant curves from matrices of
linear forms, resolution-certified cohomology, normal bundle splittings
of rational curves, and numeric metric extraction along the fibration.
Import names from the submodules: `pencil`, `reality`, `acm_curve`,
`cohomology`, `rational_curve`, `twistor_metric` and `exact_algebra`.
"""

# The package binds no name of its own.  These imports load every module
# but `cli`, so `import hkcurves`, which perfbench/run.py times as the
# library load, loads the whole library.
from . import cohomology, pencil, rational_curve, reality, twistor_metric
