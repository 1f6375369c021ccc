import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from behrend import (
    MAXIMAL_IDEAL,
    DomainError,
    MonomialIdeal,
    closure_power,
    complete_intersection,
    integral_closure,
    is_normal,
    minimal_generators,
    n_ab,
    newton_polygon,
    staircase_conditions,
)
from behrend.newton import closure_colength
from behrend.verify import integral_closure_oracle


def ideal(*gens):
    return MonomialIdeal(gens)


@st.composite
def finite_ideals(draw, box=8):
    a0 = draw(st.integers(1, box))
    b0 = draw(st.integers(1, box))
    extra = draw(
        st.lists(st.tuples(st.integers(0, box), st.integers(0, box)), max_size=4)
    )
    gens = [(a0, 0), (0, b0)] + [p for p in extra if p != (0, 0)]
    return MonomialIdeal(gens)


class TestPolygon:
    def test_interior_point_excluded(self):
        poly = newton_polygon(ideal((4, 0), (3, 1), (2, 3), (1, 4), (0, 6)))
        assert poly.vertices == ((4, 0), (3, 1), (1, 4), (0, 6))

    def test_single_edge_square(self):
        poly = newton_polygon(complete_intersection(5, 5))
        assert poly.vertices == ((5, 0), (0, 5))
        assert len(poly.edges) == 1
        assert poly.edges[0].lattice_length == 5

    def test_coprime_edge(self):
        poly = newton_polygon(ideal((2, 0), (1, 2), (0, 3)))
        assert poly.vertices == ((2, 0), (0, 3))
        edge = poly.edges[0]
        assert edge.lattice_length == 1
        assert edge.primitive_step == (-2, 3)
        assert edge.inward_ray == (3, 2)

    def test_slopes_strictly_decrease(self):
        poly = newton_polygon(ideal((6, 0), (4, 1), (2, 2), (1, 3), (0, 5)))
        slopes = [
            (e.end[1] - e.start[1]) / (e.end[0] - e.start[0]) for e in poly.edges
        ]
        assert all(a > b for a, b in zip(slopes, slopes[1:]))
        assert all(s < 0 for s in slopes)

    def test_infinite_colength_rejected(self):
        with pytest.raises(DomainError):
            newton_polygon(MonomialIdeal([(1, 1), (0, 2)]))

    @given(finite_ideals(box=6), finite_ideals(box=6))
    @settings(max_examples=40)
    def test_product_polygon_is_minkowski_sum(self, I, J):
        direct = newton_polygon(I * J).vertices
        sums = {
            (a1 + a2, b1 + b2)
            for a1, b1 in newton_polygon(I).vertices
            for a2, b2 in newton_polygon(J).vertices
        }
        assert newton_polygon(MonomialIdeal(sums)).vertices == direct


def column_closure_power(I, i):
    """Reference closure of I^i: in every column 0..i*a0, the least b on or
    above all scaled supporting lines.  O(width * edges)."""
    if i == 0:
        return MonomialIdeal([(0, 0)])
    polygon = newton_polygon(I)
    gens = []
    for a in range(i * polygon.vertices[0][0] + 1):
        b = 0
        for edge in polygon.edges:
            beta, alpha = edge.inward_ray
            deficit = i * edge.support_value - beta * a
            if deficit > 0:
                b = max(b, -(-deficit // alpha))
        gens.append((a, b))
    return MonomialIdeal(gens)


class TestClosure:
    def test_square_closes_to_maximal_square(self):
        assert integral_closure(complete_intersection(2, 2)) == MAXIMAL_IDEAL**2

    def test_two_three(self):
        assert integral_closure(complete_intersection(2, 3)) == ideal(
            (2, 0), (1, 2), (0, 3)
        )

    def test_fifth_powers(self):
        assert integral_closure(complete_intersection(5, 5)) == MAXIMAL_IDEAL**5

    def test_closure_power_examples(self):
        assert closure_power(complete_intersection(2, 2), 1) == MAXIMAL_IDEAL**2
        assert closure_power(MAXIMAL_IDEAL, 3) == MAXIMAL_IDEAL**3
        assert closure_power(ideal((2, 0), (1, 2), (0, 3)), 2) == n_ab(4, 6)

    def test_closure_power_zero(self):
        assert closure_power(MAXIMAL_IDEAL, 0) == MonomialIdeal([(0, 0)])

    @given(finite_ideals())
    @settings(max_examples=60)
    def test_idempotent_and_normal(self, I):
        closure = integral_closure(I)
        assert integral_closure(closure) == closure
        assert is_normal(closure)

    @given(finite_ideals(box=40), st.integers(0, 4))
    def test_edge_walk_matches_column_reference(self, I, i):
        assert closure_power(I, i) == column_closure_power(I, i)

    @given(finite_ideals(box=5), finite_ideals(box=5))
    @settings(max_examples=40)
    def test_product_of_normal_is_normal(self, I, J):
        assert is_normal(integral_closure(I) * integral_closure(J))


class TestPolygonMemo:
    def test_polygon_is_built_once(self):
        I = ideal((6, 0), (4, 1), (2, 2), (1, 3), (0, 5))
        assert newton_polygon(I) is newton_polygon(I)

    def test_memo_is_not_identity(self):
        I = ideal((4, 0), (3, 1), (1, 2), (0, 5))
        J = ideal((0, 5), (1, 2), (3, 1), (4, 0))
        newton_polygon(I)
        assert I == J and hash(I) == hash(J)

    def test_closure_is_canonical_with_its_scaled_polygon(self):
        rng = random.Random(10)
        for _ in range(250):
            box = rng.randint(2, 30)
            gens = [(rng.randint(1, box), 0), (0, rng.randint(1, box))]
            gens += [(rng.randint(0, box), rng.randint(0, box)) for _ in range(rng.randint(0, 6))]
            I = MonomialIdeal([g for g in gens if g != (0, 0)])
            for i in (1, 2, 3, 7):
                C = closure_power(I, i)
                assert C.generators == minimal_generators(C.generators), (I, i)
                assert newton_polygon(C) == newton_polygon(MonomialIdeal(C.generators)), (I, i)


class TestDefinitionalOracle:
    def test_square(self):
        assert integral_closure_oracle(complete_intersection(2, 2)) == MAXIMAL_IDEAL**2

    def test_maximal_is_fixed(self):
        assert integral_closure_oracle(MAXIMAL_IDEAL) == MAXIMAL_IDEAL

    def test_two_three(self):
        assert integral_closure_oracle(complete_intersection(2, 3)) == ideal(
            (2, 0), (1, 2), (0, 3)
        )

    def test_five_five_needs_p_five(self):
        # x y^4 is certified only at multiples of p = 5 = min(a0, b0)
        assert integral_closure_oracle(complete_intersection(5, 5)) == MAXIMAL_IDEAL**5

    def test_matches_polygon_closure_on_random_ideals(self):
        rng = random.Random(7)
        for _ in range(200):
            box = rng.randint(6, 12)
            a0, b0 = rng.randint(1, box), rng.randint(1, box)
            gens = [(a0, 0), (0, b0)]
            gens += [
                (rng.randint(0, a0), rng.randint(0, b0)) for _ in range(rng.randint(0, 3))
            ]
            gens = [g for g in gens if g != (0, 0)]
            I = MonomialIdeal(gens)
            assert integral_closure_oracle(I) == integral_closure(I)


class TestNormality:
    def test_normal_example(self):
        assert is_normal(ideal((6, 0), (4, 1), (2, 2), (1, 3), (0, 5)))

    def test_square_not_normal(self):
        assert not is_normal(complete_intersection(2, 2))

    def test_maximal_powers_normal(self):
        for d in range(1, 10):
            assert is_normal(MAXIMAL_IDEAL**d)

    @given(finite_ideals())
    @settings(max_examples=60)
    def test_staircase_conditions_on_normal(self, I):
        closure = integral_closure(I)
        assert staircase_conditions(closure)

    @given(finite_ideals(box=12))
    def test_pick_test_matches_closure_comparison(self, I):
        assert is_normal(I) == (integral_closure(I) == I)

    def test_staircase_conditions_can_fail(self):
        # (x^2, y^2) misses the unit-step requirement near the axes
        assert not staircase_conditions(complete_intersection(2, 2))

    def test_staircase_condition_three_rejects(self):
        # only the cut k = 0 passes (1) and (2); b_1 = 5 > ceil((6 + 0) / 2) fails (3)
        I = ideal((2, 0), (1, 5), (0, 6))
        assert not is_normal(I) and not staircase_conditions(I)

    def test_staircase_condition_four_rejects(self):
        # only the cut k = 2 passes (1) and (2); a_1 = 4 > ceil((5 + 0) / 2) fails (4)
        I = ideal((5, 0), (4, 1), (0, 2))
        assert not is_normal(I) and not staircase_conditions(I)


class TestPickLength:
    """closure_colength is the colength of every normal ideal."""

    def test_n23(self):
        assert closure_colength(ideal((2, 0), (1, 2), (0, 3))) == 5

    def test_maximal_powers(self):
        for a in range(1, 8):
            assert closure_colength(MAXIMAL_IDEAL**a) == a * (a + 1) // 2

    def test_normal_example(self):
        assert closure_colength(ideal((6, 0), (4, 1), (2, 2), (1, 3), (0, 5))) == 14

    @given(finite_ideals())
    @settings(max_examples=60)
    def test_matches_colength_on_normal(self, I):
        closure = integral_closure(I)
        assert closure_colength(closure) == closure.colength()


class TestClosureColength:
    def test_single_edge_formula(self):
        for a, b in [(2, 3), (4, 6), (5, 5), (1, 7)]:
            expected = (a * b + a + b - gcd(a, b)) // 2
            assert closure_colength(complete_intersection(a, b)) == expected

    def test_unit_ideal(self):
        assert closure_colength(MonomialIdeal([(0, 0)])) == 0

    @given(finite_ideals(box=20))
    def test_counts_the_closure(self, I):
        assert closure_colength(I) == integral_closure(I).colength()


class TestEdgeInvariants:
    @given(finite_ideals())
    @settings(max_examples=50)
    def test_edge_geometry(self, I):
        from math import gcd

        poly = newton_polygon(I)
        for edge in poly.edges:
            beta, alpha = edge.inward_ray
            assert -edge.primitive_step[0] == alpha and edge.primitive_step[1] == beta
            assert gcd(alpha, beta) == 1 and alpha > 0 and beta > 0
            da = edge.start[0] - edge.end[0]
            db = edge.end[1] - edge.start[1]
            assert edge.lattice_length == gcd(da, db)
            value = edge.support_value
            assert beta * edge.end[0] + alpha * edge.end[1] == value
            assert all(
                beta * v[0] + alpha * v[1] >= value for v in poly.vertices
            )
