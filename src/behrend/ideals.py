"""Exact arithmetic for monomial ideals of C[x, y] of finite colength.

A monomial x^a y^b is identified with the lattice point (a, b); an ideal is
stored by its minimal generating set, canonically sorted so equality is
structural.  All exponents are plain Python integers, so nothing overflows.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat
from operator import index
from typing import NamedTuple

from .errors import DomainError, number_text

Exponent = tuple[int, int]


def _exponent(value) -> int:
    try:
        return index(value)
    except TypeError:
        raise DomainError(f"exponent {value!r} is not an integer") from None


def _exponents(values) -> tuple[int, ...]:
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        return tuple(map(_exponent, values))  # raises, naming the value


def _pair(point) -> Exponent:
    a, b = point
    try:
        return index(a), index(b)
    except TypeError:
        return _exponent(a), _exponent(b)  # raises, naming the value


def minimal_generators(exponents) -> tuple[Exponent, ...]:
    """Divisibility-minimal subset of a nonempty set of exponent pairs.

    Idempotent, and membership in the generated ideal is unchanged.  An
    exponent must be an integer (operator.index); 1.5 is refused, not rounded.
    """
    points = sorted(set(map(_pair, exponents)))
    if not points:
        raise DomainError("a monomial ideal needs at least one generator")
    # in (a, b) order a point is minimal iff it lies below the last kept one,
    # so the last kept b is the least b of all
    kept, low = [points[0]], points[0][1]
    for point in points:
        if point[1] < low:
            kept.append(point)
            low = point[1]
    if points[0][0] < 0 or low < 0:
        raise DomainError("exponents must be nonnegative")
    return tuple(kept)


class MonomialIdeal:
    """A monomial ideal, immutable, canonicalized to minimal generators.

    Generators are sorted by (a, b); for a finite-colength ideal the first
    one is the pure y-power (0, b0) and the last the pure x-power (a0, 0).
    """

    __slots__ = ("generators", "_polygon")

    def __init__(self, generators):
        object.__setattr__(self, "generators", minimal_generators(generators))
        object.__setattr__(self, "_polygon", None)  # newton_polygon's memo

    @classmethod
    def _canonical(cls, generators, polygon) -> "MonomialIdeal":
        """Trusted: gens minimal and sorted, polygon theirs or None (the
        product, newton.polygon_closure, Tower.ideal)."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "generators", tuple(generators))
        object.__setattr__(ideal, "_polygon", polygon)
        return ideal

    def __reduce__(self):
        return (MonomialIdeal, (self.generators,))

    def __setattr__(self, name, value):
        raise AttributeError("MonomialIdeal is immutable")

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return f"MonomialIdeal({list(self.generators)!r})"

    def __str__(self):
        from .expr import ideal_text

        return ideal_text(self)

    # -- structure ---------------------------------------------------------

    @property
    def is_unit(self) -> bool:
        return self.generators == ((0, 0),)

    @property
    def is_finite_colength(self) -> bool:
        """True iff pure powers of both variables occur among the generators."""
        return self.generators[0][0] == 0 and self.generators[-1][1] == 0

    @property
    def x_power(self) -> int:
        """Exponent a0 of the pure x-power generator."""
        self._require_finite()
        return self.generators[-1][0]

    @property
    def y_power(self) -> int:
        """Exponent b0 of the pure y-power generator."""
        self._require_finite()
        return self.generators[0][1]

    def _require_finite(self):
        if not self.is_finite_colength:
            pairs = ", ".join(f"({number_text(a)}, {number_text(b)})" for a, b in self.generators)
            raise DomainError(f"MonomialIdeal([{pairs}]) does not have finite colength")

    def require_fat_point(self):
        """Raise unless the ideal cuts out a fat point (finite colength, not (1))."""
        self._require_finite()
        if self.is_unit:
            raise DomainError("the unit ideal does not define a fat point")
        return self

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Minimal generators of the pair sums, in one integer-coded pass.

        Every b of a sum is below K = b_self + b_other + 1 (a side's first b
        is its largest), so x^a y^b coded a*K + b sorts in (a, b) order; a
        sorted code is kept iff code % K is below the last kept one's b."""
        A, B = self.generators, other.generators
        K = A[0][1] + B[0][1] + 1
        right = [a * K + b for a, b in B]
        sums = {c + e for c in [a * K + b for a, b in A] for e in right}
        kept, low = [], K
        for code in sorted(sums):
            if code % K < low:
                kept.append(code)
                low = code % K
        return MonomialIdeal._canonical(map(divmod, kept, repeat(K)), None)

    def __pow__(self, d: int) -> "MonomialIdeal":
        """Square and multiply from the low bit, squaring no further than the
        top bit; I**1 is I itself, polygon memo included."""
        if d < 0:
            raise DomainError("negative ideal powers are undefined")
        if d == 0:
            return UNIT_IDEAL
        result = None
        base = self
        while True:
            if d & 1:
                result = base if result is None else result * base
            d >>= 1
            if not d:
                return result
            base = base * base

    def __contains__(self, exponent) -> bool:
        """Membership of the monomial x^a y^b in the ideal, by one bisect: if
        any generator divides it, so does the last generator at or below
        (a, b) in (a, b) order, since b falls as a rises."""
        a, b = exponent
        gens = self.generators
        i = bisect_right(gens, (a, b))
        return i > 0 and gens[i - 1][1] <= b

    # -- the staircase -------------------------------------------------------

    def column_heights(self) -> list[int]:
        """Height of each staircase column a = 0..a0-1: min{b : (a, b) in the ideal}.

        The output has a0 entries, so this costs O(a0); it exists for
        ferrers() only.  Use colength() for the box count.
        """
        self._require_finite()
        gens = self.generators
        heights: list[int] = []
        for (a, b), (a_next, _) in zip(gens, gens[1:]):
            heights.extend([b] * (a_next - a))
        return heights

    def colength(self) -> int:
        """dim_C of the quotient ring = number of boxes under the staircase.

        With the generators sorted as (a_0, b_0), ..., (a_n, b_n), a_0 = 0 and
        b_n = 0, the columns a_k..a_{k+1}-1 all have height b_k, so the count
        is the sum of the rectangles (a_{k+1} - a_k) * b_k: O(#generators),
        whatever the size of the exponents.
        """
        self._require_finite()
        gens = self.generators
        return sum((a_next - a) * b for (a, b), (a_next, _) in zip(gens, gens[1:]))

    def ferrers(self) -> "FerrersDiagram":
        return FerrersDiagram(tuple(self.column_heights()))


class _Heights(NamedTuple):
    column_heights: tuple[int, ...]


class FerrersDiagram(_Heights):
    """Weakly decreasing column heights of a finite staircase complement."""

    __slots__ = ()

    def __new__(cls, column_heights):
        h = column_heights
        if any(h[i] < h[i + 1] for i in range(len(h) - 1)):
            raise DomainError("column heights must be weakly decreasing")
        if h and h[-1] <= 0:
            raise DomainError("column heights must be positive")
        return super().__new__(cls, column_heights)

    @classmethod
    def _make(cls, iterable):  # through __new__'s checks; _replace calls this too
        return cls(*iterable)


UNIT_IDEAL = MonomialIdeal([(0, 0)])
MAXIMAL_IDEAL = MonomialIdeal([(1, 0), (0, 1)])


def complete_intersection(a: int, b: int) -> MonomialIdeal:
    """The ideal (x^a, y^b)."""
    if a < 1 or b < 1:
        raise DomainError("pure-power exponents must be positive")
    return MonomialIdeal([(a, 0), (0, b)])
