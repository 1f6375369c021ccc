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
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .ideals import MonomialIdeal
from .newton import Edge, is_normal, newton_polygon


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


def nu_monomial(ideal: MonomialIdeal) -> BehrendReport:
    """Behrend number, length and per-edge breakdown of a monomial fat point.

    Components are listed in polygon order (decreasing edge slope).  For
    non-normal ideals distinct edges are reported as distinct exceptional
    components, which is only an upper bound on their number; the total nu
    does not depend on that identification.
    """
    ideal.require_fat_point()
    components = []
    for edge in newton_polygon(ideal).edges:
        beta, alpha = edge.inward_ray
        e = edge.support_value
        d = 0
        for g in ideal.generators:
            if beta * g[0] + alpha * g[1] == e:
                d = gcd(d, edge.position_of(g))
        components.append(ComponentRecord(edge=edge, e=e, d=d))
    return BehrendReport(
        nu=sum(c.d * c.e for c in components),
        length=ideal.colength(),
        components=tuple(components),
        normal=is_normal(ideal),
    )
