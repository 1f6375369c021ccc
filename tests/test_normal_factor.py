import random
from functools import reduce
from math import gcd
from operator import mul

import pytest

from behrend import (
    MAXIMAL_IDEAL,
    DomainError,
    MonomialIdeal,
    NabFactor,
    UNIT_IDEAL,
    complete_intersection,
    component_count,
    factor_normal,
    fan_of,
    integral_closure,
    n_ab,
)
from behrend.normal_factor import cone_label


def ideal(*gens):
    return MonomialIdeal(gens)


def reconstruct(factors):
    """Product of n_ab(delta * alpha, delta * beta) over the factors."""
    return reduce(mul, (n_ab(f.delta * f.alpha, f.delta * f.beta) for f in factors))


def reference_cone_label(u, v):
    """Cone type by its cyclic-quotient weight: <u, v> is 1/d(1, q), with q
    read off a unimodular row (p, p') completing u (extended Euclid)."""
    d = u[0] * v[1] - u[1] * v[0]
    old_r, r, old_s, s, old_t, t = u[0], u[1], 1, 0, 0, 1
    while r:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_s, s = s, old_s - k * s
        old_t, t = t, old_t - k * t
    assert old_r == 1, "u must be primitive"
    q = -(old_s * v[0] + old_t * v[1]) % d
    if d == 1:
        return 1, "smooth"
    return d, f"A_{d - 1}" if q == d - 1 else f"index {d}"


VILLA = ideal((6, 0), (4, 1), (2, 2), (1, 3), (0, 5))


class TestNab:
    def test_two_three(self):
        assert n_ab(2, 3) == ideal((2, 0), (1, 2), (0, 3))

    def test_equal_gives_maximal_power(self):
        for h in range(1, 8):
            assert n_ab(h, h) == MAXIMAL_IDEAL**h

    def test_power_identity(self):
        assert n_ab(4, 6) == n_ab(2, 3) ** 2

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            n_ab(0, 3)

    def test_power_identity_grid(self):
        for alpha in range(1, 7):
            for beta in range(1, 7):
                if gcd(alpha, beta) != 1:
                    continue
                for delta in range(1, 6):
                    assert n_ab(alpha, beta) ** delta == n_ab(delta * alpha, delta * beta)


class TestFactorization:
    def test_three_factor_example(self):
        assert factor_normal(VILLA) == (
            NabFactor(1, 2, 1),
            NabFactor(1, 1, 1),
            NabFactor(2, 1, 2),
        )

    def test_maximal_power(self):
        assert factor_normal(MAXIMAL_IDEAL**4) == (NabFactor(1, 1, 4),)

    def test_single_edge_with_multiplicity(self):
        assert factor_normal(n_ab(4, 6)) == (NabFactor(2, 3, 2),)

    def test_rejects_non_normal(self):
        with pytest.raises(DomainError):
            factor_normal(complete_intersection(2, 2))

    def test_reconstruction(self):
        assert reconstruct(factor_normal(VILLA)) == VILLA

    def test_uniqueness_roundtrip(self):
        rng = random.Random(11)
        for _ in range(40):
            gens = [(rng.randint(1, 8), 0), (0, rng.randint(1, 8))]
            gens += [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(3)]
            I = integral_closure(MonomialIdeal([g for g in gens if g != (0, 0)]))
            factors = factor_normal(I)
            assert reconstruct(factors) == I
            assert factor_normal(reconstruct(factors)) == factors


class TestFan:
    def test_blowup_of_origin(self):
        fan = fan_of(MAXIMAL_IDEAL)
        assert fan.rays == ((1, 0), (1, 1), (0, 1))
        assert all(c.label == "smooth" for c in fan.cones)

    def test_complete_tower_fan(self):
        from behrend import make_tower

        I = make_tower("x", (), range(1, 6)).ideal()
        fan = fan_of(I)
        assert fan.rays == ((1, 0), (5, 1), (4, 1), (3, 1), (2, 1), (1, 1), (0, 1))
        assert all(c.label == "smooth" for c in fan.cones)

    def test_n23_fan(self):
        fan = fan_of(n_ab(2, 3))
        assert fan.rays == ((1, 0), (3, 2), (0, 1))
        assert [c.index for c in fan.cones] == [2, 3]
        assert fan.cones[0].label == "A_1"
        assert fan.cones[1].label == "index 3"

    def test_an_labels_on_noncomplete_tower(self):
        from behrend import make_tower

        # exponent gap of 3 between consecutive chart rays gives an A_2 point
        I = make_tower("x", (), (1, 4)).ideal()
        fan = fan_of(I)
        assert (4, 1) in fan.rays and (1, 1) in fan.rays
        gap = next(c for c in fan.cones if set(c.rays) == {(1, 1), (4, 1)})
        assert gap.index == 3 and gap.label == "A_2"

    def test_ray_union_under_products(self):
        rng = random.Random(3)
        for _ in range(30):
            I = integral_closure(
                MonomialIdeal([(rng.randint(1, 6), 0), (0, rng.randint(1, 6)),
                               (rng.randint(1, 6), rng.randint(1, 6))])
            )
            J = integral_closure(
                MonomialIdeal([(rng.randint(1, 6), 0), (0, rng.randint(1, 6))])
            )
            assert set(fan_of(I * J).rays) == set(fan_of(I).rays) | set(fan_of(J).rays)


class TestConeLabel:
    def test_matches_cyclic_quotient_weight(self):
        # every ordered pair of primitive rays in [0, 20]^2
        rays = [(a, b) for a in range(21) for b in range(21) if gcd(a, b) == 1]
        labelled = 0
        for u in rays:
            for v in rays:
                if u[0] * v[1] - u[1] * v[0] <= 0:
                    with pytest.raises(DomainError):
                        cone_label(u, v)
                    continue
                assert cone_label(u, v) == reference_cone_label(u, v), (u, v)
                labelled += 1
        assert labelled > 10_000


class TestComponentCount:
    def test_maximal_power(self):
        assert component_count(MAXIMAL_IDEAL**4) == (1, True)

    def test_three_components(self):
        assert component_count(VILLA) == (3, True)

    def test_non_normal_upper_bound(self):
        assert component_count(complete_intersection(2, 2)) == (1, False)

    def test_unit_rejected(self):
        with pytest.raises(DomainError):
            component_count(UNIT_IDEAL)
