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
polygon i * Q_I attached, so nu, normal? and factor of n(a, b) cost one
closure walk plus one staircase pass.  The second routes that verify checks
these against, the definitional closure oracle and the staircase shape
conditions of normal ideals, live in verify.
"""

from __future__ import annotations

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

    def position_of(self, point: Exponent) -> int:
        """Position of an on-edge lattice point, in primitive steps from start."""
        return (self.start[0] - point[0]) // (-self.primitive_step[0])


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
    if not ideal.is_finite_colength:
        raise DomainError(f"{ideal!r} does not have finite colength")
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
        edges.append(
            Edge(
                start=start,
                end=end,
                primitive_step=(-alpha, beta),
                lattice_length=length,
                inward_ray=(beta, alpha),
            )
        )
    polygon = NewtonPolygon(vertices=vertices, edges=tuple(edges))
    object.__setattr__(ideal, "_polygon", polygon)
    return polygon


def closure_power(ideal: MonomialIdeal, i: int) -> MonomialIdeal:
    """Integral closure of the i-th power: minimal lattice points of i * Q_I.

    Each scaled edge is walked along the shorter of its width and height.
    Over a steep edge every column carries a generator, the least b above
    the supporting line; over a flat edge every row carries one, the least
    a to the right of it.  Both are exact ceilings stepping by at least 1,
    so walking by ascending a emits the generators canonical, in
    O(#output generators + #edges), with no rational hull.
    """
    if i < 0:
        raise DomainError("negative powers are undefined")
    if i == 0:
        return UNIT_IDEAL
    polygon = newton_polygon(ideal)
    gens = []
    for edge in reversed(polygon.edges):
        beta, alpha = edge.inward_ray
        value = i * edge.support_value
        (a_start, b_start), (a_end, b_end) = edge.start, edge.end
        gens.append((i * a_end, i * b_end))
        if (a_start - a_end) <= (b_end - b_start):
            columns = range(i * a_end + 1, i * a_start)
            gens += [(a, -((beta * a - value) // alpha)) for a in columns]
        else:
            rows = range(i * b_end - 1, i * b_start, -1)
            gens += [(-((alpha * b - value) // beta), b) for b in rows]
    gens.append((i * polygon.vertices[0][0], i * polygon.vertices[0][1]))
    if i > 1:  # same rays and primitive steps, i times longer
        edges = [Edge((i * e.start[0], i * e.start[1]), (i * e.end[0], i * e.end[1]),
                      e.primitive_step, i * e.lattice_length, e.inward_ray)
                 for e in polygon.edges]
        polygon = NewtonPolygon(tuple((i * a, i * b) for a, b in polygon.vertices), tuple(edges))
    return MonomialIdeal._canonical(gens, polygon)


def integral_closure(ideal: MonomialIdeal) -> MonomialIdeal:
    """Smallest normal monomial ideal containing the input."""
    return closure_power(ideal, 1)


def closure_colength(ideal: MonomialIdeal) -> int:
    """Colength of the integral closure, from the polygon boundary alone.

    The closure's complement is the set of first-quadrant lattice points
    strictly below the boundary of Q_I.  Pick's theorem counts them as
    (2 * Area + a0 + b0 - sum of the edges' lattice lengths) / 2, which
    specializes to (ab + a + b - gcd(a, b)) / 2 for a single edge
    (a,0)-(0,b).  Valid for every finite-colength ideal; O(#generators).
    """
    polygon = newton_polygon(ideal)
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
