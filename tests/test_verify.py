import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from behrend import (
    UNIT_IDEAL,
    MonomialIdeal,
    TowerProduct,
    build_dynkin,
    complete_intersection,
    make_tower,
    parse,
)
from behrend.verify import (
    PRESETS,
    _closure_result,
    _diagram_results,
    check_length_forms,
    check_closure,
    check_pair_agreement,
    pairwise_meet_length,
    pairwise_meet_nu,
    random_complete_pair,
    random_ideal,
    random_normal_ideal,
    random_tower_product,
    run_all,
    summarize,
)

PARENT_FAMILIES = {
    "closure/definitional",
    "closure/normal-fixed-point",
    "closure/normal-routes",
    "closure/normal-staircase-conditions",
    "length/complete-tower",
    "length/cross-pair",
    "length/equal-cross-closed-form",
    "length/pick",
    "nu/diagram-consistency",
    "nu/dual-engine",
    "nu/equal-degree-pair",
    "nu/normalized-intersection",
    "nu/pair-agreement",
    "nu/power-rule",
}
MOVED_FAMILIES = {
    "length/hoskin-deligne",
    "length/m-power",
    "nu/complete-intersection",
    "nu/contraction-degrees",
    "nu/m-power",
    "nu/tower-min-sum",
}


def test_quick_run_has_no_failures():
    results = run_all(seed=0, bounds=PRESETS["quick"])
    counts = summarize(results)
    assert counts["fail"] == 0
    assert counts["pass"] > 300


def test_inconclusive_only_from_definitional_closure():
    # the proven oracle bound leaves no inconclusive result at all
    for seed in range(5):
        results = run_all(seed=seed, bounds=PRESETS["quick"])
        assert all(r.status in ("pass", "fail") for r in results)
        seeded = [
            r for r in results
            if r.name == "closure/definitional" and r.instance == "(x^5, y^5)"
        ]
        assert seeded and all(r.status == "pass" for r in seeded)


def test_deterministic_under_seed():
    a = run_all(seed=42, bounds=PRESETS["quick"])
    b = run_all(seed=42, bounds=PRESETS["quick"])
    assert a == b


def test_results_sorted_by_name_and_instance():
    results = run_all(seed=1, bounds=PRESETS["quick"])
    keys = [(r.name, r.instance) for r in results]
    assert keys == sorted(keys)


def test_random_generators_produce_valid_instances():
    rng = random.Random(0)
    for _ in range(50):
        ideal = random_ideal(rng, 8)
        assert ideal.is_finite_colength and not ideal.is_unit
        normal = random_normal_ideal(rng, 8)
        from behrend import is_normal

        assert is_normal(normal)
        product = random_tower_product(rng, 4, False)
        assert product.all_monomial


def test_pair_agreement_covers_all_admissible_depths():
    results = check_pair_agreement(PRESETS["quick"])
    instances = {r.instance for r in results}
    assert "h1=2 h2=3 d=2" in instances  # depth equal to the smaller height
    assert "h1=3 h2=5 d=2" in instances
    assert all(r.status == "pass" for r in results)


def test_closure_seeds_never_fail():
    rng = random.Random(5)
    results = check_closure(rng, PRESETS["quick"])
    assert all(r.status != "fail" for r in results)


def test_normal_routes_cover_the_staircase_draws():
    results = check_closure(random.Random(3), PRESETS["quick"])
    routes = [r for r in results if r.name == "closure/normal-routes"]
    assert len(routes) == PRESETS["quick"].normal_ideals
    assert all(r.status == "pass" for r in routes)
    assert any(r.actual for r in routes) and not all(r.actual for r in routes)


def test_pick_disagreement_is_reported_as_failure(monkeypatch):
    import behrend.verify

    monkeypatch.setattr(
        behrend.verify, "closure_colength", lambda ideal: ideal.colength() + 1
    )
    results = check_length_forms(random.Random(4), PRESETS["quick"])
    pick = [r for r in results if r.name == "length/pick"]
    assert len(pick) == PRESETS["quick"].normal_ideals
    assert all(r.status == "fail" for r in pick)


def test_no_cross_check_vanishes():
    # verify-sweep in the benchmark counts one operation per family, so a
    # family lost here would also show there as a failed operation
    results = run_all(seed=0, bounds=PRESETS["quick"])
    names = {r.name for r in results}
    assert PARENT_FAMILIES | MOVED_FAMILIES <= names
    for name in MOVED_FAMILIES:
        assert all(r.status == "pass" for r in results if r.name == name)


@pytest.mark.parametrize(
    "target, families",
    [
        ("tower_times_m_power", {"length/m-power", "nu/m-power"}),
        ("tower_nu", {"nu/tower-min-sum"}),
        ("nu_lci", {"nu/complete-intersection"}),
        ("nu_power_rule", {"nu/power-rule"}),
        ("pairwise_meet_nu", {"nu/contraction-degrees"}),
        ("two_tower_length", {"length/cross-pair", "length/hoskin-deligne"}),
        ("pairwise_meet_length", {"length/hoskin-deligne"}),
    ],
)
def test_moved_identity_failures_are_reported(monkeypatch, target, families):
    import behrend.verify

    original = getattr(behrend.verify, target)

    def off_by_one(*args):
        value = original(*args)
        return tuple(v + 1 for v in value) if isinstance(value, tuple) else value + 1

    monkeypatch.setattr(behrend.verify, target, off_by_one)
    results = run_all(seed=0, bounds=PRESETS["quick"])

    def routed(r):  # length/hoskin-deligne takes one of four routes per product
        return (
            r.name != "length/hoskin-deligne"
            or length_route(parse(r.instance).require_towers()) == target
        )

    for name in families:
        reported = [r for r in results if r.name == name and routed(r)]
        assert reported and all(r.status == "fail" for r in reported)
    others = [r for r in results if r.name in families and not routed(r)]
    assert all(r.status == "pass" for r in others)


def length_route(product):
    """The function that supplies the expected value of length/hoskin-deligne."""
    towers = product.towers
    if product.all_monomial:
        return "nu_monomial"
    if len(towers) == 1:
        return "tower_length"
    if len(towers) == 2 and product.all_complete and towers[0].branch != towers[1].branch:
        return "two_tower_length"
    return "pairwise_meet_length"


def test_diagram_consistency_uses_independent_routes(monkeypatch):
    import behrend.verify

    rng = random.Random(11)
    products = [random_tower_product(rng, 3, True) for _ in range(60)]
    products.append(  # random draws seldom hold a complete non-monomial pair
        TowerProduct([make_tower("x", (), (1, 2)), make_tower("x", (0, 1), (1, 2, 3))])
    )
    results = [_diagram_results(p, "nu/diagram-consistency")[0] for p in products]
    checked = [r for r, p in zip(results, products) if r.name == "nu/diagram-consistency"]
    assert all(r.status == "pass" for r in checked)
    routed = [p for r, p in zip(results, products) if r.name == "nu/diagram-consistency"]
    assert any(len(p.towers) == 1 and not p.all_monomial for p in routed)
    assert any(len(p.towers) == 2 and not p.all_monomial for p in routed)
    assert any(r.name == "nu/contraction-degrees" for r in results)

    engine = behrend.verify.noncomplete_product_nu
    monkeypatch.setattr(
        behrend.verify,
        "noncomplete_product_nu",
        lambda product: engine(product)._replace(nu=engine(product).nu + 1),
    )
    for p in routed:
        assert _diagram_results(p, "nu/diagram-consistency")[0].status == "fail"


def test_repeated_exponents_leave_the_tower_closed_form():
    # draws on one branch and tangent merge, and a repeated exponent is a power
    rng = random.Random(5151)
    products = [random_tower_product(rng, 4, False) for _ in range(100)]
    assert any(len(set(t.exponents)) < len(t.exponents) for p in products for t in p.towers)
    power = TowerProduct([make_tower("y", (0, Fraction(-1, 2)), (4, 4))])
    nu, length = _diagram_results(power, "nu/diagram-consistency")
    assert (nu.name, nu.expected, nu.actual) == ("nu/contraction-degrees", 8, 8)
    assert length.status == "pass"


def test_pairwise_meet_nu_matches_the_diagram():
    # the second route of nu/contraction-degrees, on every product generator
    rng = random.Random(5)
    for _ in range(100):
        for product in (
            random_tower_product(rng, 4, False),
            random_tower_product(rng, 3, True),
            random_complete_pair(rng),
        ):
            assert pairwise_meet_nu(product) == build_dynkin(product).nu()


def test_pairwise_meet_length_matches_the_diagram():
    # the last route of length/hoskin-deligne, on every product generator
    rng = random.Random(6)
    for _ in range(100):
        for product in (
            random_tower_product(rng, 4, False),
            random_tower_product(rng, 3, True),
            random_complete_pair(rng),
        ):
            assert pairwise_meet_length(product) == build_dynkin(product).length()


def test_every_diagram_product_gets_a_length_check():
    results = run_all(seed=2, bounds=PRESETS["quick"])
    nu_families = {"nu/dual-engine", "nu/diagram-consistency", "nu/contraction-degrees"}
    products = sorted(r.instance for r in results if r.name in nu_families)
    lengths = [r for r in results if r.name == "length/hoskin-deligne"]
    assert sorted(r.instance for r in lengths) == products
    assert all(r.status == "pass" and isinstance(r.actual, int) for r in lengths)


def test_contraction_degrees_compares_two_integers():
    results = run_all(seed=0, bounds=PRESETS["quick"])
    reported = [r for r in results if r.name == "nu/contraction-degrees"]
    assert reported
    for r in reported:
        assert isinstance(r.expected, int) and r.expected == r.actual
        assert r.actual == build_dynkin(parse(r.instance).require_towers()).nu()


def test_contraction_check_failure_is_reported(monkeypatch):
    import behrend.towers

    def broken(*columns):
        raise AssertionError("divisor degree 1 on the level-1 curve")

    monkeypatch.setattr(behrend.towers, "_check_contraction_degrees", broken)
    rng = random.Random(0)
    products = [random_tower_product(rng, 3, True) for _ in range(10)]
    results = [r for p in products for r in _diagram_results(p, "nu/diagram-consistency")]
    assert all(
        r.name == "nu/contraction-degrees" and r.status == "fail" for r in results
    )


def test_definitional_closure_statuses(monkeypatch):
    import behrend.verify

    assert _closure_result(complete_intersection(5, 5)).status == "pass"
    with monkeypatch.context() as patch:
        patch.setattr(behrend.verify, "integral_closure", lambda ideal: ideal)
        result = _closure_result(complete_intersection(2, 2))
        assert result.status == "fail"
        assert str(result.actual) == "(x^2, x y, y^2)"

    oracle = behrend.verify.integral_closure_oracle

    def dropped(ideal):  # loses the generator x y^4 of m^5
        return MonomialIdeal([g for g in oracle(ideal).generators if g != (1, 4)])

    monkeypatch.setattr(behrend.verify, "integral_closure_oracle", dropped)
    assert _closure_result(complete_intersection(5, 5)).status == "fail"


def test_complete_pairs_reach_the_two_tower_route():
    results = run_all(seed=0, bounds=PRESETS["quick"])
    products = [
        parse(r.instance).require_towers()
        for r in results
        if r.name == "nu/diagram-consistency"
    ]
    assert any(len(p.towers) == 2 and not p.all_monomial for p in products)


# sha256 of the lines repr((name, instance, repr(expected), repr(actual),
# status)) of run_all(seed) at the default preset, one per result
DEFAULT_DIGESTS = {
    0: "f6067b4506e040fa947701f490259ff05495bdcc321df041a235282d18b95cdc",
    1: "6da733bf2f6ce2ad2fa765b4d3a87d1a25217350778454e2fd9b2e5288836e9b",
    2: "360c0fdf3636a79e93330d359000094e8d11d86cdeb42413c3593f43d974d26a",
    99: "19438a5c52767a0410a783526e457114ace6b2185d266aab7a1ba1152b3d0335",
}


@pytest.mark.parametrize("seed", sorted(DEFAULT_DIGESTS))
def test_default_runs_are_pinned(seed):
    # every draw, instance, value and status, in order
    digest = hashlib.sha256()
    for r in run_all(seed, PRESETS["default"]):
        line = repr((r.name, r.instance, repr(r.expected), repr(r.actual), r.status))
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == DEFAULT_DIGESTS[seed]


def most_drawn(results, family, admit=lambda instance: True):
    """The instance family reports most often in results, and how often."""
    drawn = Counter(r.instance for r in results if r.name == family and admit(r.instance))
    instance, count = drawn.most_common(1)[0]
    assert count > 1
    return instance, count


def test_a_repeated_closure_draw_fails_every_time(monkeypatch):
    import behrend.verify

    instance, count = most_drawn(run_all(0), "closure/definitional")
    target = parse(instance).require_ideal()
    oracle = behrend.verify.integral_closure_oracle
    monkeypatch.setattr(
        behrend.verify,
        "integral_closure_oracle",
        lambda ideal: UNIT_IDEAL if ideal == target else oracle(ideal),
    )
    failed = [(r.name, r.instance) for r in run_all(0) if r.status == "fail"]
    assert failed == [("closure/definitional", instance)] * count


def test_a_repeated_power_draw_fails_every_time(monkeypatch):
    import behrend.verify

    # d >= 2, so the base ideal, whose nu the power rule reads, stays right
    instance, count = most_drawn(
        run_all(0), "nu/power-rule", lambda instance: not instance.endswith("^ 1")
    )
    target = parse(instance).require_ideal()
    nu_monomial = behrend.verify.nu_monomial

    def wrong(ideal):
        report = nu_monomial(ideal)
        return report._replace(nu=report.nu + 1) if ideal == target else report

    monkeypatch.setattr(behrend.verify, "nu_monomial", wrong)
    # fixed families may meet the same ideal, (x, y)^3 = (x, y) * (x^2, y^2)
    results = [r for r in run_all(0) if r.name == "nu/power-rule"]
    assert [r.instance for r in results if r.status == "fail"] == [instance] * count
