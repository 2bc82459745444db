"""Graded polynomial plumbing over Q(i).

HomogPoly is a sparse homogeneous polynomial keyed by exponent tuples.  It
stores Gaussian-integer numerators (a, b) for a + b*i per monomial over one
positive integer denominator, with gcd(den, content) = 1, so arithmetic
runs on ints and equal forms are equal structurally; GaussianRational
coefficients appear only in the `coeffs` view read at the boundary.
Monomial bases are lexicographically descending, so coordinate layouts are
reproducible across runs.  `linear_dets` is the one Laplace kernel, for
matrices of linear forms: a sub-determinant is a dense pair of int lists
(real and imaginary numerators) over a monomial basis, and a Laplace step
is one shifted multiply-add per variable.  It gives the maximal minors of
curves (four variables) and pencils (two) and `ExactMatrix.det` (one);
the cofactor identity, `linear_combination`, shares the multiply-add.
UniPoly is the univariate workhorse for pencil minor gcds and binary forms.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from operator import add
from types import MappingProxyType

from .scalars import ONE, ZERO, GaussianRational


@lru_cache(maxsize=None)
def monomial_basis(num_vars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of the given total degree, lex descending."""
    if degree < 0:
        return ()
    if num_vars == 1:
        return ((degree,),)
    out = []
    for e in range(degree, -1, -1):
        for tail in monomial_basis(num_vars - 1, degree - e):
            out.append((e,) + tail)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(num_vars: int, degree: int) -> dict:
    return {m: i for i, m in enumerate(monomial_basis(num_vars, degree))}


def monomial_count(num_vars: int, degree: int) -> int:
    if degree < 0:
        return 0
    return comb(degree + num_vars - 1, num_vars - 1)


class HomogPoly:
    """Homogeneous form sum_m (a_m + b_m*i) x^m / den over Q(i).

    `terms` maps exponent tuples to nonzero Gaussian-integer numerators
    (a, b) and `den` is one positive integer with gcd(den, every a and b)
    = 1.  That representation of a form is unique, so == and hash compare
    it directly.  `coeffs` is the read-only {monomial: GaussianRational}
    view, built once on first use.
    """

    __slots__ = ("num_vars", "degree", "terms", "den", "_coeffs")

    def __init__(self, num_vars: int, degree: int, coeffs: dict | None = None):
        parts = {}
        for mono, c in (coeffs or {}).items():
            c = c if isinstance(c, GaussianRational) else GaussianRational(c)
            if c.is_zero():
                continue
            if len(mono) != num_vars or sum(mono) != degree or min(mono) < 0:
                raise ValueError(f"monomial {mono} not of degree {degree}")
            parts[tuple(mono)] = c.integer_parts()
        den = lcm(*(e for _, _, e in parts.values()))
        terms = {m: (a * (den // e), b * (den // e)) for m, (a, b, e) in parts.items()}
        self._fill(num_vars, degree, terms, den)

    def _fill(self, num_vars: int, degree: int, terms: dict, den: int) -> None:
        # drop zero numerators and divide gcd(den, content) out of both
        terms = {m: ab for m, ab in terms.items() if ab[0] or ab[1]}
        g = gcd(den, *(x for ab in terms.values() for x in ab)) if den > 1 else 1
        if g > 1:
            den //= g
            terms = {m: (a // g, b // g) for m, (a, b) in terms.items()}
        for name, value in zip(self.__slots__, (num_vars, degree, terms, den, None)):
            object.__setattr__(self, name, value)

    def _like(self, terms: dict, den: int, degree: int | None = None) -> "HomogPoly":
        """The form terms / den in this form's variables (and degree, unless given)."""
        poly = HomogPoly.__new__(HomogPoly)
        poly._fill(self.num_vars, self.degree if degree is None else degree, terms, den)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("HomogPoly is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the blocked __setattr__
        return (HomogPoly, (self.num_vars, self.degree, dict(self.coeffs)))

    @property
    def coeffs(self) -> MappingProxyType:
        if self._coeffs is None:
            d = self.den
            view = {m: GaussianRational(Fraction(a, d), Fraction(b, d)) for m, (a, b) in self.terms.items()}
            object.__setattr__(self, "_coeffs", MappingProxyType(view))
        return self._coeffs

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, HomogPoly)
            and self.num_vars == other.num_vars
            and self.degree == other.degree
            and self.den == other.den
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.num_vars, self.degree, self.den, frozenset(self.terms.items())))

    def __add__(self, other):
        if self.num_vars != other.num_vars or self.degree != other.degree:
            raise ValueError("degree mismatch")
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        out = {m: (a * s, b * s) for m, (a, b) in self.terms.items()}
        for m, (a, b) in other.terms.items():
            prev = out.get(m, (0, 0))
            out[m] = (prev[0] + a * t, prev[1] + b * t)
        return self._like(out, den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({m: (-a, -b) for m, (a, b) in self.terms.items()}, self.den)

    def scale(self, c) -> "HomogPoly":
        c = c if isinstance(c, GaussianRational) else GaussianRational(c)
        ca, cb, e = c.integer_parts()
        out = {m: (a * ca - b * cb, a * cb + b * ca) for m, (a, b) in self.terms.items()}
        return self._like(out, self.den * e)

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")
        out: dict = {}
        for m1, (a1, b1) in self.terms.items():
            for m2, (a2, b2) in other.terms.items():
                m = tuple(map(add, m1, m2))
                prev = out.get(m, (0, 0))
                out[m] = (prev[0] + a1 * a2 - b1 * b2, prev[1] + a1 * b2 + b1 * a2)
        return self._like(out, self.den * other.den, self.degree + other.degree)

    def evaluate(self, point):
        """Exact evaluation at a tuple of GaussianRational (or int) values."""
        vals = [p if isinstance(p, GaussianRational) else GaussianRational(p) for p in point]
        total = ZERO
        for mono, c in self.coeffs.items():
            term = c
            for v, e in zip(vals, mono):
                for _ in range(e):
                    term = term * v
            total = total + term
        return total

    def __repr__(self):
        if not self.terms:
            return "HomogPoly(0)"
        names = "xyzw" if self.num_vars <= 4 else None
        parts = []
        for m in sorted(self.coeffs, reverse=True):
            c = self.coeffs[m]
            mono = "*".join(
                (names[i] if names else f"x{i}") + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(m)
                if e
            )
            parts.append(f"({c}){mono or '1'}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# the one Laplace kernel, for matrices of linear forms


@lru_cache(maxsize=None)
def _shifts(num_vars: int, degree: int) -> tuple:
    """Row v: where m * x_v sits in degree + 1, m running over the degree's basis."""
    index = monomial_index(num_vars, degree + 1)
    basis = monomial_basis(num_vars, degree)
    return tuple(tuple(index[m[:v] + (m[v] + 1,) + m[v + 1 :]] for m in basis) for v in range(num_vars))


def _mul_add(re: list, im: list, vec: tuple, form, shifts: tuple) -> None:
    """(re, im) += vec * form on dense numerator lists: one shifted
    multiply-add per variable, form[v] = (c, d) for (c + d*i) x_v."""
    vre, vim = vec
    for (c, d), shift in zip(form, shifts):
        if c or d:
            for k, a, b in zip(shift, vre, vim):
                re[k] += a * c - b * d
                im[k] += a * d + b * c


def _linear_pairs(form: HomogPoly, den: int) -> list:
    """A linear form's numerators (c, d) of x_0 .. x_(n-1) over den, a multiple of its own."""
    if form.degree != 1:
        raise ValueError("the Laplace kernel takes linear entries")
    pairs = [form.terms.get(m, (0, 0)) for m in monomial_basis(form.num_vars, 1)]
    return [(a * (den // form.den), b * (den // form.den)) for a, b in pairs]


def linear_dets(rows: list, num_vars: int, size: int) -> dict:
    """Determinant of every `size`-subset of the rows against the first `size`
    columns, by ascending row tuple, as dense (re, im) numerator lists over
    monomial_basis(num_vars, size); rows[i][j] holds entry (i, j)'s pairs of
    `_linear_pairs`.  Each subset expands along its last column."""
    dets = {(): ([1], [0])}
    for depth in range(size):
        shifts, width, nxt = _shifts(num_vars, depth), monomial_count(num_vars, depth + 1), {}
        for rowset in itertools.combinations(range(len(rows)), depth + 1):
            re, im = nxt[rowset] = [0] * width, [0] * width
            for pos, i in enumerate(rowset):
                sign = -1 if (pos + depth) % 2 else 1
                form = [(sign * c, sign * d) for c, d in rows[i][depth]]
                _mul_add(re, im, dets[rowset[:pos] + rowset[pos + 1 :]], form, shifts)
        dets = nxt
    return dets


def linear_entries(forms: list) -> list[list[HomogPoly]]:
    """Entries of sum_v A_v x_v as linear forms, read off the integer forms
    (rows, D_v) of A_0 .. A_(n-1), one shape, over lcm(D_v)."""
    den = lcm(*(d for _, d in forms))
    units, scales = monomial_basis(len(forms), 1), [den // d for _, d in forms]
    out = []
    for row in zip(*(rows for rows, _ in forms)):
        out.append([])
        for pairs in zip(*row):
            poly = HomogPoly.__new__(HomogPoly)
            poly._fill(len(forms), 1, {m: (a * k, b * k) for m, (a, b), k in zip(units, pairs, scales)}, den)
            out[-1].append(poly)
    return out


def signed_maximal_minors(entries: list[list[HomogPoly]]) -> list[HomogPoly]:
    """(-1)^i * det(matrix with row i deleted), i = 0..r, for linear entries
    over one denominator D: one `linear_dets` pass, minors over D^r."""
    nrows = len(entries)
    ncols = len(entries[0]) if entries else 0
    if nrows != ncols + 1:
        raise ValueError(f"expected (r+1) x r entries, got {nrows} x {ncols}")
    first, den = entries[0][0], lcm(*(e.den for row in entries for e in row))
    dets = linear_dets([[_linear_pairs(e, den) for e in row] for row in entries], first.num_vars, ncols)
    basis, out = monomial_basis(first.num_vars, ncols), []
    for skip in range(nrows):
        re, im = dets[tuple(a for a in range(nrows) if a != skip)]
        s = -1 if skip % 2 else 1
        out.append(first._like({m: (s * a, s * b) for m, a, b in zip(basis, re, im)}, den**ncols, ncols))
    return out


def linear_combination(forms: list[HomogPoly], linears: list[HomogPoly]) -> HomogPoly:
    """sum_i forms[i] * linears[i] for forms of one degree and linear forms,
    by the Laplace kernel's multiply-add on one common denominator."""
    n, degree = forms[0].num_vars, forms[0].degree
    den = lcm(*(f.den * g.den for f, g in zip(forms, linears)))
    basis, width = monomial_basis(n, degree), monomial_count(n, degree + 1)
    re, im = [0] * width, [0] * width
    for f, g in zip(forms, linears):
        vec = tuple(zip(*(f.terms.get(m, (0, 0)) for m in basis)))
        _mul_add(re, im, vec, _linear_pairs(g, den // f.den), _shifts(n, degree))
    return forms[0]._like(dict(zip(monomial_basis(n, degree + 1), zip(re, im))), den, degree + 1)


# ---------------------------------------------------------------------------
# univariate polynomials over Q(i)


class UniPoly:
    """Dense univariate polynomial; coeffs[k] multiplies x^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [
            c if isinstance(c, GaussianRational) else GaussianRational(c)
            for c in coeffs
        ]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    def __reduce__(self):
        return (UniPoly, (self.coeffs,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for k in range(n):
            a = self.coeffs[k] if k < len(self.coeffs) else ZERO
            b = other.coeffs[k] if k < len(other.coeffs) else ZERO
            out.append(a + b)
        return UniPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return UniPoly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UniPoly([])
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return UniPoly([c / lead for c in self.coeffs])

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly([]), self
        quot = [ZERO] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(other.coeffs) - 1] / lead
            quot[k] = c
            if not c.is_zero():
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return UniPoly(quot), UniPoly(rem[: len(other.coeffs) - 1])

    def evaluate(self, x):
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly([c * k for k, c in enumerate(self.coeffs)][1:])

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        return "UniPoly(" + ", ".join(str(c) for c in self.coeffs) + ")"


def uni_interpolate(points, values) -> UniPoly:
    """Unique polynomial of degree < len(points) through (point, value) pairs."""
    pts = [p if isinstance(p, GaussianRational) else GaussianRational(p) for p in points]
    vals = [v if isinstance(v, GaussianRational) else GaussianRational(v) for v in values]
    if len(pts) != len(vals) or not pts:
        raise ValueError("need matching nonempty points and values")
    # Newton divided differences
    coef = list(vals)
    n = len(pts)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (pts[i] - pts[i - j])
    poly = UniPoly([coef[-1]])
    for i in range(n - 2, -1, -1):
        poly = poly * UniPoly([-pts[i], ONE]) + UniPoly([coef[i]])
    return poly


def uni_gcd(polys) -> UniPoly:
    """Monic gcd of a family of UniPoly via the Euclidean algorithm."""
    g = UniPoly([])
    for p in polys:
        a, b = g, p
        while not b.is_zero():
            _, rem = a.divmod(b)
            a, b = b, rem
        g = a.monic()
        if g.is_constant() and not g.is_zero():
            return g  # already trivial, no need to continue
    return g
