"""Acceptance suite: every criterion is one test printing its own pass/fail line.

All values are exact integers (tolerance zero).  Run with `pytest -v
tests/test_acceptance.py`; the PASS/FAIL lines also appear with -s.
"""

import random
from contextlib import contextmanager
from functools import reduce
from math import comb, gcd
from operator import mul

from behrend import (
    MAXIMAL_IDEAL,
    Factor,
    MonomialIdeal,
    TowerProduct,
    build_dynkin,
    complete_intersection,
    component_count,
    factor_normal,
    fan_of,
    integral_closure,
    make_tower,
    n_ab,
    noncomplete_product_nu,
    nu_monomial,
    product_nu,
    tower_length,
    tower_nu,
    two_tower_length,
)
from behrend.newton import closure_colength
from behrend.verify import (
    PRESETS,
    check_nu_cross,
    random_ideal,
    random_normal_ideal,
    random_tower_product,
    summarize,
)
from behrend.verify import check_closure as verify_check_closure


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def ideal(*gens):
    return MonomialIdeal(gens)


def complete(branch, height, tangent=()):
    return make_tower(branch, tangent, range(1, height + 1))


# -- 1. reference values, exact equality ----------------------------------------


def test_c1_maximal_ideal_powers():
    with criterion("1. nu(m^d) = d and length(m^d) = d(d+1)/2 for d = 1..20"):
        for d in range(1, 21):
            report = nu_monomial(MAXIMAL_IDEAL**d)
            assert report.nu == d
            assert report.length == d * (d + 1) // 2


def test_c1_complete_towers():
    with criterion("1. nu(K_s) = s(s+1)(2s+1)/6 and length(K_s) = C(s+2,3) for s = 1..12"):
        for s in range(1, 13):
            t = complete("x", s)
            expected_nu = s * (s + 1) * (2 * s + 1) // 6
            expected_len = comb(s + 2, 3)
            assert tower_nu(t) == expected_nu
            assert tower_length(t) == expected_len
            assert product_nu(TowerProduct([t])).nu == expected_nu
            report = nu_monomial(t.ideal())
            assert report.nu == expected_nu and report.length == expected_len


def test_c1_normalized_intersections():
    with criterion("1. nu(n(a,b)) = ab/gcd and length = (ab+a+b-gcd)/2 for a,b <= 12"):
        for a in range(1, 13):
            for b in range(1, 13):
                I = n_ab(a, b)
                g = gcd(a, b)
                assert nu_monomial(I).nu == a * b // g
                expected_len = (a * b + a + b - g) // 2
                assert closure_colength(I) == expected_len
                assert I.colength() == expected_len


def test_c1_balanced_pairs():
    with criterion("1. nu((x^h,y^h)(x^k,y^k)) = gcd(h,k)(h+k) for h,k <= 10"):
        for h in range(1, 11):
            for k in range(1, 11):
                I = complete_intersection(h, h) * complete_intersection(k, k)
                assert nu_monomial(I).nu == gcd(h, k) * (h + k)
        assert nu_monomial(complete_intersection(2, 2) * complete_intersection(3, 3)).nu == 5
        assert nu_monomial(complete_intersection(2, 2) * complete_intersection(6, 6)).nu == 16


def test_c1_key_example_values():
    with criterion("1. nu((x^2,x y^2,y^3)) = 6 with length 5; nu(m (x,y^2) n(2,3)) = 21"):
        report = nu_monomial(ideal((2, 0), (1, 2), (0, 3)))
        assert report.nu == 6 and report.length == 5
        J = MAXIMAL_IDEAL * ideal((1, 0), (0, 2)) * n_ab(2, 3)
        assert J == ideal((4, 0), (3, 1), (2, 3), (1, 4), (0, 6))
        assert nu_monomial(J).nu == 21


def test_c1_two_tower_six_points():
    with criterion("1. nu((x y, x^4, y^3)) = 7 with length 6"):
        report = nu_monomial(ideal((1, 1), (4, 0), (0, 3)))
        assert report.nu == 7 and report.length == 6


def test_c1_cross_product_lengths():
    with criterion("1. equal-height cross lengths 3, 12, 29 and h(h+1)(h+2)/3 + h^2 for h <= 8"):
        values = [two_tower_length(complete("x", h), complete("y", h)) for h in (1, 2, 3)]
        assert values == [3, 12, 29]
        for h in range(1, 9):
            expected = h * (h + 1) * (h + 2) // 3 + h * h
            assert two_tower_length(complete("x", h), complete("y", h)) == expected
            expansion = complete("x", h).ideal() * complete("y", h).ideal()
            assert expansion.colength() == expected


def test_c1_staircase_length():
    with criterion("1. colength((x^7,x^3 y,x^2 y^3,x y^4,y^6)) = 17"):
        assert ideal((7, 0), (3, 1), (2, 3), (1, 4), (0, 6)).colength() == 17


def test_c1_factorization():
    with criterion("1. factor((x^6,x^4 y,x^2 y^2,x y^3,y^5)) = n(1,2) n(1,1) n(2,1)^2"):
        villa = ideal((6, 0), (4, 1), (2, 2), (1, 3), (0, 5))
        factors = factor_normal(villa)
        assert [(f.alpha, f.beta, f.delta) for f in factors] == [
            (1, 2, 1),
            (1, 1, 1),
            (2, 1, 2),
        ]
        product = reduce(mul, (n_ab(f.delta * f.alpha, f.delta * f.beta) for f in factors))
        assert product == villa


def test_c1_integral_closures():
    with criterion("1. closures: (x^2,y^2) -> m^2, (x^2,y^3) -> (x^2,x y^2,y^3), (x^5,y^5) -> m^5"):
        assert integral_closure(complete_intersection(2, 2)) == MAXIMAL_IDEAL**2
        assert integral_closure(complete_intersection(2, 3)) == ideal((2, 0), (1, 2), (0, 3))
        assert integral_closure(complete_intersection(5, 5)) == MAXIMAL_IDEAL**5


def test_c1_balanced_chain():
    with criterion("1. nu of the product of (x^k,y^k) for k = 1..s equals C(s+1,2) for s <= 10"):
        I = None
        for s in range(1, 11):
            factor = complete_intersection(s, s)
            I = factor if I is None else I * factor
            assert nu_monomial(I).nu == comb(s + 1, 2)


# -- 2. property suites (seeded) -----------------------------------------------


def test_c2_dual_engine():
    with criterion("2. dual-engine equality on >= 500 random monomial tower products"):
        rng = random.Random(101)
        for _ in range(500):
            product = random_tower_product(rng, 4, False)
            assert noncomplete_product_nu(product).nu == nu_monomial(product.expand()).nu


def test_c2_power_rule():
    with criterion("2. power rule nu(I^d) = d nu(I) on >= 200 random ideals, d <= 4"):
        rng = random.Random(102)
        for _ in range(200):
            I = random_ideal(rng, 8)
            d = rng.randint(1, 4)
            assert nu_monomial(I**d).nu == d * nu_monomial(I).nu


def test_c2_closure_oracle():
    with criterion("2. polygon closure vs definitional oracle, >= 200 ideals, p <= min(a0, b0), zero failures"):
        rng = random.Random(103)
        bounds = PRESETS["default"]
        results = verify_check_closure(rng, bounds)
        counts = summarize(results)
        assert counts["fail"] == 0
        assert sum(1 for r in results if r.name == "closure/definitional") >= 200


def test_c2_staircase_conditions():
    with criterion("2. staircase conditions hold for every polygon-normal ideal, box 10"):
        from behrend import is_normal, staircase_conditions

        rng = random.Random(104)
        seen_normal = 0
        for _ in range(400):
            I = random_ideal(rng, 10)
            if is_normal(I):
                seen_normal += 1
                assert staircase_conditions(I)
            closure = integral_closure(I)
            assert staircase_conditions(closure)
        assert seen_normal > 0


def test_c2_pair_agreement():
    with criterion("2. product_nu vs two_tower_nu for all pairs h1,h2 <= 8, all admissible d"):
        nu_cross = check_nu_cross(random.Random(0), PRESETS["default"])
        results = [r for r in nu_cross if r.name == "nu/pair-agreement"]
        assert all(r.status == "pass" for r in results)
        assert any("d=2" in r.instance for r in results)


def test_c2_pick_lengths():
    with criterion("2. Pick length = brute-force colength on >= 200 random normal ideals"):
        rng = random.Random(105)
        for _ in range(200):
            I = random_normal_ideal(rng, 8)
            assert closure_colength(I) == I.colength()


# -- 3. structure tests ---------------------------------------------------------


def test_c3_dynkin_structures():
    with criterion("3. diagram shapes: chain, cross root -3, fork -3 at level d, five-factor tree"):
        chain = build_dynkin(TowerProduct([complete("x", 6)]))
        assert [n.self_intersection for n in chain.nodes] == [-2] * 5 + [-1]

        cross = build_dynkin(TowerProduct([complete("x", 3), complete("y", 4)]))
        assert cross.nodes[0].self_intersection == -3

        for d in (1, 2, 3):
            tangent = (0,) * (d - 1) + (1,)
            pair = TowerProduct([complete("x", 4), complete("x", 5, tangent=tangent)])
            diagram = build_dynkin(pair)
            fork = next(n for n in diagram.nodes if n.level == d and len(n.members) == 2)
            assert fork.self_intersection == -3

        five = TowerProduct.from_factors(
            [
                Factor(None, (), 1),
                Factor("x", (), 2),
                Factor("y", (), 2),
                Factor("x", (1,), 2),
                Factor("x", (1,), 3),
            ]
        )
        tree = build_dynkin(five)
        assert len(tree.nodes) == 5
        assert tree.nodes[0].self_intersection == -4
        assert sorted(n.self_intersection for n in tree.nodes if n.level == 2) == [-2, -1, -1]
        assert [n.self_intersection for n in tree.nodes if n.level == 3] == [-1]


def test_c3_fan_and_component_flags():
    with criterion("3. fan of n(2,3): rays (1,0),(3,2),(0,1), cone indices 2 and 3; count flags"):
        fan = fan_of(n_ab(2, 3))
        assert fan.rays == ((1, 0), (3, 2), (0, 1))
        assert [c.index for c in fan.cones] == [2, 3]
        assert component_count(n_ab(2, 3)) == (1, True)
        assert component_count(ideal((6, 0), (4, 1), (2, 2), (1, 3), (0, 5))) == (3, True)
        assert component_count(complete_intersection(2, 2)) == (1, False)
        assert component_count(MAXIMAL_IDEAL**4) == (1, True)
