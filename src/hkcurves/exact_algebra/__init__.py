"""Exact arithmetic core: Gaussian rationals, matrices, graded polynomial data.

Everything downstream treats these types as the ground field and its
linear algebra; no floating point enters until an explicitly numeric
adapter converts out.
"""

from .ideals import GradedIdeal, sparse_row_rank
from .linalg import ExactMatrix
from .modp import PRIMES, rank_mod, rows_mod, sparse_rank_certificate
from .polys import (
    HomogPoly,
    UniPoly,
    monomial_basis,
    monomial_count,
    monomial_index,
    uni_gcd,
)
from .scalars import GaussianRational

__all__ = [
    "GradedIdeal",
    "sparse_row_rank",
    "ExactMatrix",
    "HomogPoly",
    "UniPoly",
    "GaussianRational",
    "monomial_basis",
    "monomial_count",
    "monomial_index",
    "uni_gcd",
    "PRIMES",
    "rank_mod",
    "rows_mod",
    "sparse_rank_certificate",
]
