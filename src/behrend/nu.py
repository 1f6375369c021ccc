"""Behrend numbers of plane fat points cut out by monomial ideals.

For each bounded edge of the Newton polygon (one normalization component per
edge), two integers are extracted from the generators of I:

  e  = min over generators g of <inward_ray, g>, the edge's support value
       (multiplicity of the pulled-back divisor along the component), and
  d  = gcd of the positions, in primitive steps along the edge, of the
       generators realizing that minimum (degree of the component over the
       exceptional curve; the endpoints always count, so d divides the
       edge's lattice length, and d = 1 whenever I is normal).

The Behrend number is the sum of d*e over the edges.  The gcd rule for d is
empirical: it reproduces every reference value in the test suite and is
pinned against the independent tower engine by the verify module, which
also holds the closed forms nu_lci and nu_power_rule checked against it.

Two routes share the edge-to-record step.  nu_monomial reads d off the
generators and the length off the staircase of an explicit ideal.  For the
normal ideal of a polygon every d is 1, and nu_normal reads the whole
report off the polygon, with Pick's count for the length; verify's
nu/normal-product holds the two routes to each other.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd
from operator import mul
from typing import NamedTuple

from .ideals import MonomialIdeal
from .newton import Edge, NewtonPolygon, newton_polygon, polygon_colength


class ComponentRecord(NamedTuple):
    """Per-edge data of the normalization component lying over it."""

    edge: Edge
    e: int
    d: int


class BehrendReport(NamedTuple):
    nu: int
    length: int
    components: tuple[ComponentRecord, ...]
    normal: bool


def _report(polygon: NewtonPolygon, degrees, length: int, normal: bool) -> BehrendReport:
    supports = [edge.support_value for edge in polygon.edges]
    components = tuple(map(ComponentRecord, polygon.edges, supports, degrees))
    return BehrendReport(sum(map(mul, degrees, supports)), length, components, normal)


def nu_monomial(ideal: MonomialIdeal) -> BehrendReport:
    """Behrend number, length and per-edge breakdown of a monomial fat point.

    Components are listed in polygon order (decreasing edge slope).  For
    non-normal ideals distinct edges are reported as distinct exceptional
    components, which is only an upper bound on their number; the total nu
    does not depend on that identification.  d is read off the generators
    and the length off the staircase, so verify can hold nu_normal to this.
    Each edge reads only the generators strictly between its vertices,
    found by bisection: O(#generators + #edges log #generators).
    """
    ideal.require_fat_point()
    polygon = newton_polygon(ideal)
    gens = ideal.generators
    degrees = []
    for edge in polygon.edges:
        beta, alpha = edge.inward_ray
        e = edge.support_value
        a_start = edge.start[0]
        # the vertices are generators, at positions 0 and the lattice length;
        # only the generators between them can lie inside the edge
        d = edge.lattice_length
        for a, b in gens[bisect_left(gens, edge.end) + 1:bisect_left(gens, edge.start)]:
            if beta * a + alpha * b == e:
                d = gcd(d, (a_start - a) // alpha)  # position in primitive steps
        degrees.append(d)
    length = ideal.colength()  # normal iff the staircase is the polygon's lattice points
    return _report(polygon, degrees, length, length == polygon_colength(polygon))


def nu_normal(polygon: NewtonPolygon) -> BehrendReport:
    """The report of nu_monomial for the normal ideal of a polygon, from the
    polygon alone: every edge's lattice points are generators, so d = 1, and
    the length is Pick's count.  O(#edges), whatever the exponents."""
    return _report(polygon, [1] * len(polygon.edges), polygon_colength(polygon), True)
