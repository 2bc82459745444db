"""Exact arithmetic core: Gaussian rationals, matrices, graded polynomial data.

Everything downstream treats these types as the ground field and its
linear algebra; no floating point enters until an explicitly numeric
adapter converts out.  Import names from the submodules: `scalars`,
`linalg`, `polys`, `ideals` and `modp`.
"""
