"""Newton polygon, integral closure and normality of plane monomial ideals.

The Newton polygon of I is Q_I = conv(generators) + first quadrant.  Its
lattice points give the integral closure; I is normal exactly when its
staircase already equals those lattice points.  Everything here is exact
integer arithmetic (cross products for the hull, ceiling divisions for the
supporting lines, Pick's theorem for lattice counts).

Only the polygon's vertices enter the computations, never a scan over the
columns of the staircase: the closure's colength and normality cost
O(#generators), the closure itself O(#output generators).  Each ideal builds
its polygon once and keeps it, and a closure is emitted canonical with its
polygon attached.

The polygon of a product is the Minkowski sum of its factors' polygons
(polygon_sum): polygon_colength is the length of its normal ideal,
polygon_closure walks that ideal's generators and closure_size counts them
first (expr.Elaborated says which products read the sum).  The second
routes that verify checks these against, the expansion, the definitional
closure oracle and the staircase shape conditions of normal ideals, live in
verify.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import gcd
from typing import NamedTuple

from .errors import DomainError
from .ideals import UNIT_IDEAL, Exponent, MonomialIdeal


class Edge(NamedTuple):
    """One bounded edge of the polygon boundary, walked from larger to smaller a.

    end - start = lattice_length * primitive_step with primitive_step = (-alpha, beta),
    gcd(alpha, beta) = 1.  inward_ray = (beta, alpha) is the primitive inward normal:
    <inward_ray, v> is minimized on the polygon exactly along this edge.
    """

    start: Exponent
    end: Exponent
    primitive_step: tuple[int, int]
    lattice_length: int
    inward_ray: tuple[int, int]

    @property
    def support_value(self) -> int:
        """Common value of <inward_ray, -> on the edge."""
        return self.inward_ray[0] * self.start[0] + self.inward_ray[1] * self.start[1]


class NewtonPolygon(NamedTuple):
    """Vertices v0..vt ordered by strictly decreasing a (v0 on the x-axis),
    plus the bounded edges between consecutive vertices (slopes strictly
    decreasing along that order)."""

    vertices: tuple[Exponent, ...]
    edges: tuple[Edge, ...]


def _cross(o: Exponent, p: Exponent, q: Exponent) -> int:
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def newton_polygon(ideal: MonomialIdeal) -> NewtonPolygon:
    """Lower-left convex hull of the generator exponents, recession cone the
    first quadrant.  Monotone chain with integer cross products; collinear
    interior points are dropped, so the vertex list holds extreme points only.
    """
    if ideal._polygon is not None:
        return ideal._polygon
    ideal._require_finite()
    chain: list[Exponent] = []
    for point in ideal.generators:  # ascending a, strictly descending b
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], point) <= 0:
            chain.pop()
        chain.append(point)
    vertices = tuple(reversed(chain))
    edges = []
    for start, end in zip(vertices, vertices[1:]):
        da = start[0] - end[0]
        db = end[1] - start[1]
        length = gcd(da, db)
        alpha, beta = da // length, db // length
        edges.append(Edge(start, end, (-alpha, beta), length, (beta, alpha)))
    polygon = NewtonPolygon(vertices, tuple(edges))
    object.__setattr__(ideal, "_polygon", polygon)
    return polygon


def polygon_sum(terms) -> NewtonPolygon:
    """Newton polygon of a product of powers, from its (Q_k, d_k) pairs.

    The polygon of IJ is Q_I + Q_J for every I and J, so the product's
    polygon is the Minkowski sum of the d_k * Q_k: the bases' edges merged
    by inward ray, lattice lengths scaled by d_k and summed, walked from
    (sum of d_k * a0_k, 0) by increasing beta/alpha.  The records equal
    newton_polygon of the multiplied-out product; O(#edges log #edges),
    whatever the exponents d_k.
    """
    lengths: dict[tuple[int, int], int] = {}
    a0 = 0
    for polygon, d in terms:
        a0 += d * polygon.vertices[0][0]
        for edge in polygon.edges:
            ray = edge.inward_ray
            lengths[ray] = lengths.get(ray, 0) + d * edge.lattice_length
    vertices = [(a0, 0)]
    edges = []
    for beta, alpha in sorted(lengths, key=cmp_to_key(lambda r, s: r[0] * s[1] - s[0] * r[1])):
        length = lengths[beta, alpha]
        if not length:  # a zeroth power
            continue
        start = vertices[-1]
        end = (start[0] - length * alpha, start[1] + length * beta)
        edges.append(Edge(start, end, (-alpha, beta), length, (beta, alpha)))
        vertices.append(end)
    return NewtonPolygon(tuple(vertices), tuple(edges))


def closure_size(polygon: NewtonPolygon) -> int:
    """Generator count of polygon_closure: one per step of each edge along
    the shorter of its width and height, plus the last vertex."""
    return 1 + sum(
        min(e.start[0] - e.end[0], e.end[1] - e.start[1]) for e in polygon.edges
    )


def polygon_closure(polygon: NewtonPolygon) -> MonomialIdeal:
    """The normal ideal of a polygon: its minimal lattice points.

    Each edge is walked along the shorter of its width and height.  Over a
    steep edge every column carries a generator, the least b above the
    supporting line; over a flat edge every row carries one, the least a to
    the right of it.  Both are exact ceilings stepping by at least 1, so
    walking by ascending a emits the generators canonical, in
    O(closure_size + #edges), with no rational hull.
    """
    gens = []
    for edge in reversed(polygon.edges):
        beta, alpha = edge.inward_ray
        value = edge.support_value
        (a_start, b_start), (a_end, b_end) = edge.start, edge.end
        gens.append(edge.end)
        if (a_start - a_end) <= (b_end - b_start):
            gens += [(a, -((beta * a - value) // alpha)) for a in range(a_end + 1, a_start)]
        else:
            gens += [(-((alpha * b - value) // beta), b) for b in range(b_end - 1, b_start, -1)]
    gens.append(polygon.vertices[0])
    return MonomialIdeal._canonical(gens, polygon)


def closure_power(ideal: MonomialIdeal, i: int) -> MonomialIdeal:
    """Integral closure of the i-th power: minimal lattice points of i * Q_I,
    emitted canonical with that polygon attached."""
    if i < 0:
        raise DomainError("negative powers are undefined")
    if i == 0:
        return UNIT_IDEAL
    polygon = newton_polygon(ideal)
    return polygon_closure(polygon if i == 1 else polygon_sum(((polygon, i),)))


def integral_closure(ideal: MonomialIdeal) -> MonomialIdeal:
    """Smallest normal monomial ideal containing the input."""
    return closure_power(ideal, 1)


def closure_colength(ideal: MonomialIdeal) -> int:
    """Colength of the integral closure, from the polygon boundary alone."""
    return polygon_colength(newton_polygon(ideal))


def polygon_colength(polygon: NewtonPolygon) -> int:
    """Colength of polygon_closure(polygon), by Pick's theorem.

    The closure's complement is the set of first-quadrant lattice points
    strictly below the boundary, counted as
    (2 * Area + a0 + b0 - sum of the edges' lattice lengths) / 2, which
    specializes to (ab + a + b - gcd(a, b)) / 2 for a single edge
    (a,0)-(0,b).  O(#edges).
    """
    a0 = polygon.vertices[0][0]
    b0 = polygon.vertices[-1][1]
    total = a0 + b0
    for edge in polygon.edges:
        (xs, ys), (xe, ye) = edge.start, edge.end
        total += xs * ye - ys * xe - edge.lattice_length
    if total % 2:
        raise AssertionError("lattice point parity violated")  # cannot happen
    return total // 2


def is_normal(ideal: MonomialIdeal) -> bool:
    """True iff the staircase equals the polygon's lattice points.

    The closure contains the ideal, so the two are equal exactly when their
    colengths are: a comparison of two O(#generators) counts.
    """
    return ideal.colength() == closure_colength(ideal)
