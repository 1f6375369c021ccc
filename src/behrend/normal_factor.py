"""Atomic factors of normal ideals and the toric fan of their blowups.

Every normal monomial ideal factors uniquely (up to order) as a product of
powers of the atoms n_ab(alpha, beta) = closure of (x^alpha, y^beta) with
alpha, beta coprime, one factor per polygon edge.  The blowup surface is the
toric surface whose fan refines the first quadrant by the rays beta*e1 +
alpha*e2 of those factors.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import DomainError
from .ideals import MonomialIdeal, complete_intersection
from .newton import NewtonPolygon, is_normal, newton_polygon, polygon_closure


class _Atom(NamedTuple):
    alpha: int
    beta: int
    delta: int


class NabFactor(_Atom):
    """One atom n_{alpha,beta} with multiplicity delta; gcd(alpha, beta) = 1."""

    __slots__ = ()

    def __new__(cls, alpha, beta, delta):
        if alpha < 1 or beta < 1 or delta < 1:
            raise DomainError("factor data must be positive")
        if gcd(alpha, beta) != 1:
            raise DomainError("alpha and beta must be coprime")
        return super().__new__(cls, alpha, beta, delta)

    @classmethod
    def _make(cls, iterable):  # through __new__'s checks; _replace calls this too
        return cls(*iterable)

    @property
    def ray(self) -> tuple[int, int]:
        return (self.beta, self.alpha)

    @property
    def polygon(self) -> NewtonPolygon:
        """Polygon of n_ab(delta * alpha, delta * beta): one edge of lattice
        length delta, without the closure's generators."""
        a, b = self.delta * self.alpha, self.delta * self.beta
        return newton_polygon(complete_intersection(a, b))


def n_ab(alpha: int, beta: int) -> MonomialIdeal:
    """Integral closure of (x^alpha, y^beta): the normal ideal whose polygon
    is the single segment (alpha,0)-(0,beta)."""
    return polygon_closure(nab_atom(alpha, beta).polygon)


def nab_atom(alpha: int, beta: int) -> NabFactor:
    """n(alpha, beta) as the atom power n_{alpha/g, beta/g}^g, g = gcd(alpha, beta),
    without its generators."""
    if alpha < 1 or beta < 1:
        raise DomainError("n_ab needs positive exponents")
    g = gcd(alpha, beta)
    return NabFactor(alpha // g, beta // g, g)


def factor_normal(ideal: MonomialIdeal) -> tuple[NabFactor, ...]:
    """Unique factorization of a normal ideal into n_ab powers.

    One factor per polygon edge; emitted with alpha/beta increasing, which is
    also the fan's ray order from e1 to e2.  The product of
    n_ab(delta * alpha, delta * beta) over the factors is the input.
    """
    ideal.require_fat_point()
    if not is_normal(ideal):
        raise DomainError("only normal ideals factor into n_ab atoms; normalize first")
    return polygon_factors(newton_polygon(ideal))


def polygon_factors(polygon: NewtonPolygon) -> tuple[NabFactor, ...]:
    """The factorization of the normal ideal of a polygon, one factor per edge."""
    return tuple(
        NabFactor(-edge.primitive_step[0], edge.primitive_step[1], edge.lattice_length)
        for edge in reversed(polygon.edges)
    )


class Cone(NamedTuple):
    """A maximal cone of the fan, spanned by two consecutive rays."""

    rays: tuple[tuple[int, int], tuple[int, int]]
    index: int  # |det| of the spanning rays
    label: str  # "smooth", "A_n", or "index d"


class Fan(NamedTuple):
    """Complete fan of the first quadrant: rays from e1 to e2 by increasing slope."""

    rays: tuple[tuple[int, int], ...]
    cones: tuple[Cone, ...]


def cone_label(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, str]:
    """Index and singularity label of the cone <u, v>.

    d = 1 is smooth.  The cone is the Kleinian A_{d-1} point 1/d(1, d-1) iff
    some integral form equals 1 on both rays; by Cramer's rule that form is
    (v1 - u1, u0 - v0) / d, so the test is that d divides both differences.
    Other cyclic quotients are reported by their index only.
    """
    d = u[0] * v[1] - u[1] * v[0]
    if d <= 0:
        raise DomainError("rays must be ordered by increasing slope")
    if d == 1:
        return 1, "smooth"
    if (v[1] - u[1]) % d == 0 and (u[0] - v[0]) % d == 0:
        return d, f"A_{d - 1}"
    return d, f"index {d}"


def fan_of(ideal: MonomialIdeal) -> Fan:
    """Fan of the blowup surface of a normal ideal.

    Rays: e1, then beta*e1 + alpha*e2 per factor in factorization order, then
    e2; consecutive pairs span the maximal cones, annotated with their index
    and singularity type.
    """
    return factors_fan(factor_normal(ideal))


def factors_fan(factors) -> Fan:
    """Fan of the blowup of the normal ideal with these factors."""
    rays = [(1, 0)] + [f.ray for f in factors] + [(0, 1)]
    cones = []
    for u, v in zip(rays, rays[1:]):
        index, label = cone_label(u, v)
        cones.append(Cone(rays=(u, v), index=index, label=label))
    return Fan(rays=tuple(rays), cones=tuple(cones))


def component_count(ideal: MonomialIdeal) -> tuple[int, bool]:
    """Number of irreducible exceptional components of the blowup.

    Exact for normal ideals (one component per polygon edge); otherwise the
    edge count of the normalization is only an upper bound, flagged by
    exact=False.
    """
    ideal.require_fat_point()
    t = len(newton_polygon(ideal).edges)
    return t, is_normal(ideal)
