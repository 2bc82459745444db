"""Exact arithmetic over the Gaussian rationals Q(i).

Scalars are pairs of stdlib Fractions, so every value is in canonical lowest
terms automatically.  Only `integer_pairs` and `GaussianRational.over` turn
values into, and back from, the Gaussian-integer (re, im) pairs over one
denominator that the exact kernels read.  JSON documents write scalars as

    RAT   := INT | INT "/" POSINT
    GAUSS := RAT | RAT "i" | RAT ("+"|"-") RAT "i"

with INT and POSINT in ASCII digits, e.g. "3", "-1/2", "2+1/3i".  A
unicode minus is accepted on input; output is ASCII and round-trips
byte-identically.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, List, Tuple

_RAT = r"[+-]?\d+(?:/\d+)?"
_URAT = r"\d+(?:/\d+)?"
# re.ASCII: \d alone would match every Unicode decimal digit, and Fraction reads them
_GAUSS_RE = re.compile(
    rf"^\s*(?P<re>{_RAT})(?P<im_joined>[+-]{_URAT})?(?P<i1>i)?\s*$", re.ASCII
)


class GaussianRational:
    """a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # keep an exact Fraction as given; Fraction(q) rebuilds it slowly
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the blocked __setattr__
        return (GaussianRational, (self.re, self.im))

    # -- constructors -------------------------------------------------

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        """Parse a GAUSS literal.  Raises ValueError on malformed input."""
        s = text.replace("−", "-").strip()
        m = _GAUSS_RE.match(s)
        if not m:
            raise ValueError(f"not a GAUSS literal: {text!r}")
        first, second, tail_i = m.group("re"), m.group("im_joined"), m.group("i1")
        if tail_i is None:
            if second is not None:
                raise ValueError(f"not a GAUSS literal: {text!r}")
            second = "0"
        elif second is None:
            first, second = "0", first
        try:
            return GaussianRational(Fraction(first), Fraction(second))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in GAUSS literal: {text!r}") from None

    @staticmethod
    def over(a: int, b: int, den: int) -> "GaussianRational":
        """(a + b*i) / den for ints a, b and den != 0, in lowest terms."""
        return GaussianRational(Fraction(a, den), Fraction(b, den))

    @staticmethod
    def from_complex(z: complex, limit: int = 10**6) -> "GaussianRational":
        """Nearest Gaussian rational with denominators up to `limit`: the
        metric's sample parameters and the numeric root candidates of
        `polys.binary_common_zero`."""
        return GaussianRational(
            Fraction(z.real).limit_denominator(limit),
            Fraction(z.imag).limit_denominator(limit),
        )

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def integer_parts(self) -> Tuple[int, int, int]:
        """(a, b, den) with self = (a + b*i) / den and den > 0 the lcm of both denominators."""
        [(a, b)], den = integer_pairs([self])
        return a, b, den

    # -- predicates / conversions ---------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # equal to an int or Fraction when real, so hash like it
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gauss(self)


def integer_pairs(values: Iterable[GaussianRational]) -> Tuple[List[Tuple[int, int]], int]:
    """(pairs, den): each value as (a, b) with value = (a + b*i) / den, and
    den > 0 the lcm of all their denominators (1 for no values)."""
    values = list(values)
    den = lcm(*(q.denominator for z in values for q in (z.re, z.im)))
    return [(z.re.numerator * (den // z.re.denominator), z.im.numerator * (den // z.im.denominator)) for z in values], den


def _fmt_rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_gauss(z: GaussianRational) -> str:
    """Canonical GAUSS literal; parse(format(z)) == z."""
    if z.im == 0:
        return _fmt_rat(z.re)
    if z.re == 0:
        return _fmt_rat(z.im) + "i"
    sign = "+" if z.im > 0 else "-"
    return _fmt_rat(z.re) + sign + _fmt_rat(abs(z.im)) + "i"


parse_gauss = GaussianRational.parse

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)

# the seeded drawers: both parts of an entry in [-DRAW_SPAN, DRAW_SPAN], and
# MAX_DRAWS draws before `first_draw` gives up
DRAW_SPAN = 3
MAX_DRAWS = 64


def random_gaussian_pairs(
    rng: random.Random, rows: int, cols: int, span: int
) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """rows x cols Gaussian integers as (re, im) int pairs, both parts
    uniform on [-span, span]: the integer form over 1 of an `ExactMatrix`.

    Entries are drawn row by row, real part before imaginary part, so a
    seeded rng always yields the same matrix.
    """
    return tuple(tuple((rng.randint(-span, span), rng.randint(-span, span)) for _ in range(cols)) for _ in range(rows))


def random_gaussian_rows(
    rng: random.Random, rows: int, cols: int, span: int
) -> Tuple[Tuple[GaussianRational, ...], ...]:
    """The draw of `random_gaussian_pairs`, as GaussianRationals."""
    return tuple(tuple(GaussianRational(a, b) for a, b in row) for row in random_gaussian_pairs(rng, rows, cols, span))


def first_draw(what: str, draw: Callable, accept: Callable, **context):
    """The first value of `draw()` that `accept` takes, in at most MAX_DRAWS
    calls of `draw`, of which a ValueError counts as a rejected draw; else
    RuntimeError("no <what> after MAX_DRAWS draws (<context as key=value>)")."""
    for _ in range(MAX_DRAWS):
        try:
            value = draw()
        except ValueError:
            continue
        if accept(value):
            return value
    where = ", ".join(f"{key}={val}" for key, val in context.items())
    raise RuntimeError(f"no {what} after {MAX_DRAWS} draws ({where})")
