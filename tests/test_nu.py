import random
from math import gcd

import pytest

from behrend import (
    MAXIMAL_IDEAL,
    DomainError,
    MonomialIdeal,
    UNIT_IDEAL,
    UnsupportedError,
    complete_intersection,
    component_count,
    factor_normal,
    ideal_text,
    integral_closure,
    is_normal,
    n_ab,
    newton_polygon,
    nu_lci,
    nu_monomial,
    nu_power_rule,
    parse,
)
from behrend import expr
from behrend.expr import EXPANSION_CAP
from behrend.newton import polygon_closure
from behrend.normal_factor import polygon_factors
from behrend.nu import nu_normal


def ideal(*gens):
    return MonomialIdeal(gens)


def random_fat_ideal(rng, box=8):
    gens = [(rng.randint(1, box), 0), (0, rng.randint(1, box))]
    gens += [(rng.randint(0, box), rng.randint(0, box)) for _ in range(3)]
    return MonomialIdeal([g for g in gens if g != (0, 0)])


def edge_data(I):
    """(edge, e, d) of every component, in polygon order."""
    return [(c.edge, c.e, c.d) for c in nu_monomial(I).components]


class TestEdgeData:
    def test_maximal_power_multiplicity(self):
        I = MAXIMAL_IDEAL**4
        [(edge, e, _)] = edge_data(I)
        assert edge.inward_ray == (1, 1)
        assert e == 4

    def test_rectangle_multiplicity(self):
        I = complete_intersection(4, 6)
        [(edge, e, _)] = edge_data(I)
        assert edge.inward_ray == (3, 2)
        assert e == 12

    def test_three_edge_multiplicities(self):
        I = ideal((4, 0), (3, 1), (2, 3), (1, 4), (0, 6))
        edges = newton_polygon(I).edges
        assert [e.inward_ray for e in edges] == [(1, 1), (3, 2), (2, 1)]
        assert [edge for edge, _, _ in edge_data(I)] == list(edges)
        assert [e for _, e, _ in edge_data(I)] == [4, 11, 6]

    def test_rectangle_degree(self):
        for k in range(1, 7):
            [(_, _, d)] = edge_data(complete_intersection(k, k))
            assert d == k

    def test_balanced_pair_degree(self):
        for h in range(1, 6):
            for k in range(1, 6):
                I = complete_intersection(h, h) * complete_intersection(k, k)
                [(_, _, d)] = edge_data(I)
                assert d == gcd(h, k)

    def test_normal_ideals_have_degree_one(self):
        rng = random.Random(5)
        from behrend import integral_closure

        for _ in range(30):
            I = integral_closure(random_fat_ideal(rng))
            for component in nu_monomial(I).components:
                assert component.d == 1

    def test_degree_divides_lattice_length(self):
        rng = random.Random(6)
        for _ in range(40):
            I = random_fat_ideal(rng)
            for c in nu_monomial(I).components:
                assert c.edge.lattice_length % c.d == 0

    def test_edge_slices_match_the_full_scan(self):
        # nu_monomial reads each edge's generators between its vertices; the
        # reference scans every generator against every edge
        def full_scan(I):
            degrees = []
            for edge in newton_polygon(I).edges:
                beta, alpha = edge.inward_ray
                d = 0
                for a, b in I.generators:
                    if beta * a + alpha * b == edge.support_value:
                        d = gcd(d, (edge.start[0] - a) // alpha)
                degrees.append(d)
            return degrees

        rng = random.Random(24)
        products = [random_fat_ideal(rng, 6) * random_fat_ideal(rng, 6) for _ in range(50)]
        products += [MAXIMAL_IDEAL**3 * complete_intersection(2, 4), n_ab(3, 5) ** 2]
        for I in products + [random_fat_ideal(rng, box) for box in (2, 5, 12, 40) * 50]:
            assert [c.d for c in nu_monomial(I).components] == full_scan(I), I


class TestNuMonomial:
    def test_n23(self):
        report = nu_monomial(ideal((2, 0), (1, 2), (0, 3)))
        assert report.nu == 6 and report.length == 5 and report.normal

    def test_product_example(self):
        report = nu_monomial(ideal((4, 0), (3, 1), (2, 3), (1, 4), (0, 6)))
        assert report.nu == 21

    def test_two_towers_example(self):
        report = nu_monomial(ideal((1, 1), (4, 0), (0, 3)))
        assert report.nu == 7 and report.length == 6

    def test_unit_rejected(self):
        with pytest.raises(DomainError):
            nu_monomial(UNIT_IDEAL)

    def test_infinite_colength_rejected(self):
        with pytest.raises(DomainError):
            nu_monomial(MonomialIdeal([(1, 1)]))

    def test_normal_component_count_matches(self):
        rng = random.Random(9)
        from behrend import integral_closure

        for _ in range(25):
            I = integral_closure(random_fat_ideal(rng))
            report = nu_monomial(I)
            t, exact = component_count(I)
            assert exact and len(report.components) == t


class TestRules:
    def test_power_rule_on_maximal(self):
        assert nu_power_rule(MAXIMAL_IDEAL, 5) == 5

    def test_power_rule_n23(self):
        assert nu_power_rule(ideal((2, 0), (1, 2), (0, 3)), 2) == 12

    def test_power_rule_lci(self):
        assert nu_power_rule(complete_intersection(2, 3), 3) == 18

    def test_power_rule_random(self):
        rng = random.Random(13)
        for _ in range(30):
            I = random_fat_ideal(rng, box=6)
            d = rng.randint(1, 4)
            assert nu_power_rule(I, d) == d * nu_monomial(I).nu

    def test_lci_values(self):
        assert nu_lci(4, 6) == 24
        assert nu_lci(1, 1) == 1
        assert nu_lci(2, 3) == 6
        for a in range(1, 13):
            for b in range(1, 13):
                assert nu_lci(a, b) == a * b

    def test_lci_rejects_zero(self):
        with pytest.raises(DomainError):
            nu_lci(0, 2)


class TestReferenceTables:
    def test_normalized_intersection_grid(self):
        for alpha in range(1, 13):
            for beta in range(1, 13):
                assert nu_monomial(n_ab(alpha, beta)).nu == alpha * beta // gcd(alpha, beta)

    def test_balanced_pair_grid(self):
        for h in range(1, 11):
            for k in range(1, 11):
                I = complete_intersection(h, h) * complete_intersection(k, k)
                assert nu_monomial(I).nu == gcd(h, k) * (h + k)

    def test_balanced_chain(self):
        degrees = []
        I = None
        for k in range(1, 11):
            factor = complete_intersection(k, k)
            I = factor if I is None else I * factor
            degrees.append(k)
            expected = gcd(*degrees) * sum(degrees) if len(degrees) > 1 else degrees[0]
            assert nu_monomial(I).nu == expected == (len(degrees) + 1) * len(degrees) // 2

    def test_pair_values(self):
        I = complete_intersection(2, 2) * complete_intersection(3, 3)
        J = complete_intersection(2, 2) * complete_intersection(6, 6)
        assert nu_monomial(I).nu == 5
        assert nu_monomial(J).nu == 16

    def test_monotone_sandwich(self):
        h, k = 2, 3
        small = nu_monomial(complete_intersection(h, h)).nu
        middle = nu_monomial(
            complete_intersection(h, h) * complete_intersection(k, k)
        ).nu
        large = nu_monomial(complete_intersection(k, k)).nu
        assert small < middle < large
        assert (small, middle, large) == (4, 5, 9)


class TestTransposeSymmetry:
    def test_invariants_are_symmetric_in_the_variables(self):
        rng = random.Random(41)
        from behrend import is_normal

        for _ in range(40):
            I = random_fat_ideal(rng)
            T = MonomialIdeal([(b, a) for a, b in I.generators])
            assert I.colength() == T.colength()
            assert is_normal(I) == is_normal(T)
            assert nu_monomial(I).nu == nu_monomial(T).nu

    def test_factorization_transposes(self):
        from behrend import factor_normal, integral_closure

        rng = random.Random(43)
        for _ in range(25):
            I = integral_closure(random_fat_ideal(rng))
            T = MonomialIdeal([(b, a) for a, b in I.generators])
            direct = sorted(
                (f.alpha, f.beta, f.delta) for f in factor_normal(I)
            )
            swapped = sorted(
                (f.beta, f.alpha, f.delta) for f in factor_normal(T)
            )
            assert direct == swapped


class TestPolygonRoute:
    """Products of normal atoms are answered from their summed polygon; a
    product with a non-normal base from its expansion."""

    @pytest.mark.parametrize(
        "text,normal_atoms,nu",
        [
            # m^8, normal, but its base is not, so only the expansion answers
            ("(x^4, x^3 y, x y^3, y^4)^2", False, 8),
            # polygon (5,0)-(4,1)-(0,7): e = 5 on ray (1, 1), 14 on ray (3, 2)
            ("n(2,3)^2 * m", True, 19),
            # twice the tower's nu: rays (1, 1) and (3, 1), each of lattice length 2
            ("tower(x; g=0; exps=[1, 3])^2", True, 12),
        ],
    )
    def test_hand_cases(self, text, normal_atoms, nu, monkeypatch):
        routes = []
        monkeypatch.setattr(expr, "nu_normal", lambda p: routes.append(p) or nu_normal(p))
        elaborated = parse(text)
        ideal = elaborated.require_ideal()
        assert is_normal(ideal)
        report = elaborated.nu()
        assert bool(routes) == normal_atoms  # the summed polygon answered
        assert report == nu_monomial(ideal)
        assert report.nu == nu
        assert elaborated.normal()
        assert elaborated.length() == ideal.colength()
        polygon = elaborated.polygon()
        assert polygon == newton_polygon(ideal)
        assert polygon_closure(polygon) == integral_closure(ideal) == ideal
        assert elaborated.staircase() == ideal
        assert polygon_factors(polygon) == elaborated.factors() == factor_normal(ideal)

    def test_normalize_of_non_normal_bases_reads_the_sum(self):
        rng = random.Random(5)
        for _ in range(100):
            parts = [random_fat_ideal(rng, 5) for _ in range(rng.randint(1, 3))]
            text = " * ".join(f"{ideal_text(p)}^{rng.randint(1, 3)}" for p in parts)
            elaborated = parse(text)
            ideal = elaborated.require_ideal()
            polygon = elaborated.polygon()
            assert polygon == newton_polygon(ideal), text
            assert polygon_closure(polygon) == integral_closure(ideal), text

    def test_expansion_cap_bounds_the_generators(self):
        # (x^2, y^2)^d has d + 1 generators: 999 is under the cap, 1000 over it
        assert len(parse(f"(x^2, y^2)^{EXPANSION_CAP - 1}").require_ideal().generators) == (
            EXPANSION_CAP
        )
        with pytest.raises(UnsupportedError, match=f"expansion cap of {EXPANSION_CAP}"):
            parse(f"(x^2, y^2)^{EXPANSION_CAP}").require_ideal()
        # nothing to multiply, nothing to cap
        many = MonomialIdeal((a, 2 * EXPANSION_CAP - a) for a in range(2 * EXPANSION_CAP + 1))
        assert parse(ideal_text(many)).require_ideal() == many

    def test_unit_product_is_no_fat_point(self):
        with pytest.raises(DomainError, match="unit ideal"):
            parse("m^0 * (1)").polygon()
