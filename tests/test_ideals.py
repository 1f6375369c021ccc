import copy
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from behrend import (
    MAXIMAL_IDEAL,
    UNIT_IDEAL,
    DomainError,
    FerrersDiagram,
    MonomialIdeal,
    complete_intersection,
    minimal_generators,
    n_ab,
    newton_polygon,
)


def ideal(*gens):
    return MonomialIdeal(gens)


def ideal_of_heights(heights):
    """The monomial ideal whose staircase has these column heights."""
    gens = [(len(heights), 0)]
    for a, height in enumerate(heights):
        if a == 0 or height < heights[a - 1]:
            gens.append((a, height))
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


@st.composite
def any_ideals(draw):
    """Any monomial ideal: the unit ideal, ones without finite colength, and
    exponents up to 10^12."""
    top = draw(st.sampled_from([2, 9, 10**12]))
    coordinate = st.integers(0, top)
    points = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=6))
    return MonomialIdeal(points)


def product_by_definition(I, J):
    """The minimal generators of every pair sum, canonicalized by the constructor."""
    return MonomialIdeal(
        {(a1 + a2, b1 + b2) for a1, b1 in I.generators for a2, b2 in J.generators}
    )


def brute_minimal(points):
    """The points no other point divides, by comparing every pair."""
    points = set(points)
    divided = {
        p for p in points for q in points if q != p and q[0] <= p[0] and q[1] <= p[1]
    }
    return tuple(sorted(points - divided))


class TestMinimalGenerators:
    def test_drops_divisible(self):
        assert minimal_generators([(2, 0), (3, 1), (0, 2)]) == ((0, 2), (2, 0))

    def test_antichain_is_kept(self):
        gens = {(5, 0), (3, 2), (2, 3), (0, 5)}
        assert set(minimal_generators(gens)) == gens

    def test_corner_dominates(self):
        assert minimal_generators([(1, 0), (0, 1), (1, 1)]) == ((0, 1), (1, 0))

    def test_idempotent(self):
        gens = [(2, 0), (3, 1), (0, 2), (5, 5)]
        once = minimal_generators(gens)
        assert minimal_generators(once) == once

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            minimal_generators([])

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            minimal_generators([(-1, 0)])

    @pytest.mark.parametrize(
        "gens,bad",
        [
            ([(1.5, 0), (0, 1)], "1.5"),
            ([(Fraction(7, 2), 0), (0, 2)], "Fraction(7, 2)"),
            ([(3, 0), (0, "2")], "'2'"),
        ],
    )
    def test_non_integral_exponent_rejected(self, gens, bad):
        with pytest.raises(DomainError, match=re.escape(f"exponent {bad} is not an integer")):
            MonomialIdeal(gens)

    @given(finite_ideals())
    def test_membership_unchanged(self, I):
        raw = list(I.generators) + [(a + 1, b + 2) for a, b in I.generators]
        J = MonomialIdeal(raw)
        assert J == I
        for a in range(10):
            for b in range(10):
                assert ((a, b) in I) == ((a, b) in J)


    @given(
        finite_ideals(),
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=6),
    )
    def test_matches_brute_force(self, I, extra):
        # the ideal's generators plus random points, some in shared columns
        raw = list(I.generators) + extra + [(a, b + 1) for a, b in extra]
        assert minimal_generators(raw) == brute_minimal(raw)


class TestProductAndPower:
    def test_product_of_pure_powers(self):
        assert complete_intersection(2, 2) * complete_intersection(3, 3) == ideal(
            (5, 0), (3, 2), (2, 3), (0, 5)
        )

    def test_unit_is_identity(self):
        I = ideal((2, 0), (1, 1), (0, 3))
        assert I * UNIT_IDEAL == I

    def test_mixed_product(self):
        assert MAXIMAL_IDEAL * ideal((1, 0), (0, 2)) == ideal((2, 0), (1, 1), (0, 3))

    def test_maximal_powers(self):
        assert MAXIMAL_IDEAL**2 == ideal((2, 0), (1, 1), (0, 2))
        assert MAXIMAL_IDEAL**3 == ideal((3, 0), (2, 1), (1, 2), (0, 3))

    def test_power_zero_is_unit(self):
        assert ideal((2, 0), (0, 2)) ** 0 == UNIT_IDEAL

    def test_normalized_power_identity(self):
        assert n_ab(2, 3) ** 2 == n_ab(4, 6)

    @given(any_ideals(), st.integers(1, 12))
    @settings(max_examples=80)
    def test_power_is_the_repeated_product(self, I, d):
        product = I
        for _ in range(d - 1):
            product = product_by_definition(product, I)
        assert I**d == product

    def test_first_power_is_the_ideal_itself(self):
        I = n_ab(5, 7)
        assert I**1 is I

    @given(any_ideals(), any_ideals())
    @example(ideal((1, 1)), ideal((2, 1), (1, 3)))
    @example(UNIT_IDEAL, ideal((2, 1), (1, 3)))
    @example(ideal((10**12, 0), (0, 10**12)), ideal((1, 10**12 - 1), (10**12, 0)))
    @settings(max_examples=200)
    def test_product_is_the_minimal_pair_sums(self, I, J):
        product = I * J
        assert product == product_by_definition(I, J)
        assert product.generators == product_by_definition(J, I).generators
        assert product._polygon is None

    @given(finite_ideals(box=5), finite_ideals(box=5))
    @settings(max_examples=60)
    def test_colength_superadditive(self, I, J):
        assert (I * J).colength() >= I.colength() + J.colength()


class TestContains:
    def test_examples(self):
        assert (1, 1) not in complete_intersection(2, 2)
        assert (2, 5) in complete_intersection(2, 2)
        assert (1, 2) in ideal((2, 0), (1, 2), (0, 3))

    def test_negative_is_outside(self):
        assert (-1, 0) not in MAXIMAL_IDEAL


class TestColength:
    def test_staircase_example(self):
        assert ideal((7, 0), (3, 1), (2, 3), (1, 4), (0, 6)).colength() == 17

    def test_maximal_cube(self):
        assert (MAXIMAL_IDEAL**3).colength() == 6

    def test_unit(self):
        assert UNIT_IDEAL.colength() == 0

    def test_triangular_numbers(self):
        for d in range(1, 21):
            assert (MAXIMAL_IDEAL**d).colength() == d * (d + 1) // 2

    def test_infinite_colength_rejected(self):
        with pytest.raises(DomainError):
            MonomialIdeal([(1, 0), (1, 2)]).colength()

    @given(finite_ideals(box=30))
    def test_rectangles_match_column_heights(self, I):
        assert I.colength() == sum(I.column_heights())


class TestFerrers:
    def test_examples(self):
        assert (MAXIMAL_IDEAL**2).ferrers().column_heights == (2, 1)
        assert ideal((2, 0), (1, 2), (0, 3)).ferrers().column_heights == (3, 2)
        assert ideal((7, 0), (3, 1), (2, 3), (1, 4), (0, 6)).ferrers().column_heights == (
            6,
            4,
            3,
            1,
            1,
            1,
            1,
        )

    def test_size_is_colength(self):
        I = ideal((4, 0), (2, 1), (0, 5))
        assert sum(I.ferrers().column_heights) == I.colength()

    def test_increasing_heights_rejected(self):
        with pytest.raises(DomainError):
            FerrersDiagram((1, 2))

    @given(finite_ideals())
    def test_roundtrip(self, I):
        assert ideal_of_heights(I.ferrers().column_heights) == I

    def test_unit_roundtrip(self):
        assert ideal_of_heights(UNIT_IDEAL.ferrers().column_heights) == UNIT_IDEAL


class TestFatPointGate:
    def test_unit_rejected(self):
        with pytest.raises(DomainError):
            UNIT_IDEAL.require_fat_point()

    def test_infinite_rejected(self):
        with pytest.raises(DomainError):
            MonomialIdeal([(2, 1)]).require_fat_point()

    def test_immutable(self):
        I = MAXIMAL_IDEAL
        with pytest.raises(AttributeError):
            I.generators = ()

    def test_structural_equality_and_hash(self):
        I = ideal((2, 0), (0, 2), (3, 3))
        J = ideal((0, 2), (2, 0))
        assert I == J and hash(I) == hash(J)


class TestCopyAndPickle:
    """Copies rebuild through the constructor; the polygon memo is not carried."""

    ROUND_TRIPS = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda I: pickle.loads(pickle.dumps(I)),
    }

    @pytest.mark.parametrize("memo", ["unset", "hull", "closure"])
    @pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
    def test_round_trip(self, how, memo):
        I = n_ab(4, 6) if memo == "closure" else ideal((4, 0), (3, 1), (1, 2), (0, 5))
        if memo == "hull":
            newton_polygon(I)
        J = self.ROUND_TRIPS[how](I)
        assert J == I and hash(J) == hash(I) and J.generators == I.generators
        assert newton_polygon(J) == newton_polygon(I)
        with pytest.raises(AttributeError):
            J.generators = ()
