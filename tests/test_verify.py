import hashlib
import random
from collections import Counter, defaultdict
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
    _closure_results,
    _diagram_results,
    check_length_forms,
    check_closure,
    check_nu_cross,
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
NORMAL_PRODUCT_FAMILIES = {"closure/normal-product", "factor/normal-product", "nu/normal-product"}


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
    nu_cross = check_nu_cross(random.Random(0), PRESETS["quick"])
    results = [r for r in nu_cross if r.name == "nu/pair-agreement"]
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
    assert PARENT_FAMILIES | MOVED_FAMILIES | NORMAL_PRODUCT_FAMILIES <= names
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


def test_pairwise_routes_read_one_factor_depths_per_product(monkeypatch):
    import behrend.verify

    depths, calls = behrend.verify._factor_depths, Counter()

    def counted(product):
        calls[id(product)] += 1
        return depths(product)

    monkeypatch.setattr(behrend.verify, "_factor_depths", counted)
    rng = random.Random(7)
    products = [random_tower_product(rng, 3, True) for _ in range(200)]
    results = [_diagram_results(p, "nu/diagram-consistency") for p in products]
    # a product with neither a nu nor a length closed form takes both pairwise routes
    assert any(nu.name == "nu/contraction-degrees" for nu, _ in results)
    assert calls and set(calls.values()) == {1}


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

    [result] = _closure_results(complete_intersection(5, 5))
    assert result.status == "pass"
    with monkeypatch.context() as patch:
        patch.setattr(behrend.verify, "integral_closure", lambda ideal: ideal)
        [result] = _closure_results(complete_intersection(2, 2))
        assert result.status == "fail"
        assert str(result.actual) == "(x^2, x y, y^2)"

    oracle = behrend.verify.integral_closure_oracle

    def dropped(ideal):  # loses the generator x y^4 of m^5
        return MonomialIdeal([g for g in oracle(ideal).generators if g != (1, 4)])

    monkeypatch.setattr(behrend.verify, "integral_closure_oracle", dropped)
    [result] = _closure_results(complete_intersection(5, 5))
    assert result.status == "fail"


def test_complete_pairs_reach_the_two_tower_route():
    results = run_all(seed=0, bounds=PRESETS["quick"])
    products = [
        parse(r.instance).require_towers()
        for r in results
        if r.name == "nu/diagram-consistency"
    ]
    assert any(len(p.towers) == 2 and not p.all_monomial for p in products)


# family -> seed -> sha256 of the lines repr((name, instance, repr(expected),
# repr(actual), status)) of that family's results in run_all(seed) at the
# default preset, in order; a new family adds its own digests
DEFAULT_DIGESTS = {
    "closure/definitional": {
        0: "17007661c7982934a6c458763b94e69cc5747fb91fdd62c3f00d4f3f33a68411",
        1: "d037806c09b5116b54778cc2ed71b85b90aa3e87dbec403935465e68c3f54fe0",
        2: "98ea63f82c4a50648d306fcbfed6136535c1d42a7ac9888a5f10927e0dab02ca",
        99: "6a1ce7c92c6cf2c4cbb7937d0c1add5633dfb44bab19b0d0e9f60512e568ad62",
    },
    "closure/normal-fixed-point": {
        0: "323d4802a736194a83b8d6aefe33b8cfa40142d18a745ec2b4dcc0543897ed07",
        1: "ff1a6fbb8fbcbeeaeb4c355f27a360967a7776cc6d2e41d9a24804a04ed624bf",
        2: "7aeb3e5d1b8a9e579da34193db5585dfe28b6999faaf93f3d4b701feba5b4e79",
        99: "02abbb342b7bfb62e1d30f448440f116be87e79b42af15b67c62484d92bf54af",
    },
    "closure/normal-product": {
        0: "7f318c302c20ff32ce4666ff1bcfa83e592ff0ff81facf20ef99ecd3e19b1271",
        1: "f3c2595d9c488c3f872f163129cfc10b2d75f802f1dcc1fd4196937b91900e43",
        2: "e614bc007fde26a3f149ea3b78e2a467764d1f2eeff539f0709c76f9f7859163",
        99: "85bef5aa603cd27bb7e9b0ece031c73b71cd08a1ed121cc853eb829cad9aa870",
    },
    "closure/normal-routes": {
        0: "981f94b3fd4e19a7d780a8d3f91cc001b0dc6ca64be26cc693a6b8a2267011d6",
        1: "4b4fcbc11d13eb67dd452e93fe6259d72df31ffc4e2939fcdcad205b4e428d26",
        2: "bf04cdf73c087acd54339de8c2438e53b6be6741cdcc7775049c0b7d48894b37",
        99: "aa24aca5aa955088e2a1315339a8bc1e3414f585f49fbe6c9f88e59e8a525b11",
    },
    "closure/normal-staircase-conditions": {
        0: "dc970d047faef0f18b65c8d7998cd5a3a1ef62950c37c62e5536932e952ffeae",
        1: "4d5a6fdf617d738e6696f8a9a231cd2374824b62219a88d20f45bedc29807042",
        2: "3f55527030ffdceaa32dbb6f006de1f950e16c60f411c6c06901f079dbd67036",
        99: "f0a03dfa147dc8a9c957eabb7e5a2d094a5280c089a4fada3b92d3ef736042a1",
    },
    "factor/normal-product": {
        0: "81a97b50a34d2ae6d8e0613f33368fc70e70e54f6ecd24ac4d14c796a981b8a3",
        1: "a77a0187e5eb78f7b83a241e42ee6d9fe7e45dde6f770ec3c74bb32724673748",
        2: "5aa00f255334c03aa3895568b7ab027168ecd2587e19ff4d6db7ae13cfa96faa",
        99: "0e4e50da4425c01a6ac521b49214c83df8198389f0ad719afd190e6cf54a0b03",
    },
    "length/complete-tower": {
        0: "24de1f35b0d15a01a604445091e3fbdb642422ae6face5c08289ec6753583640",
        1: "24de1f35b0d15a01a604445091e3fbdb642422ae6face5c08289ec6753583640",
        2: "24de1f35b0d15a01a604445091e3fbdb642422ae6face5c08289ec6753583640",
        99: "24de1f35b0d15a01a604445091e3fbdb642422ae6face5c08289ec6753583640",
    },
    "length/cross-pair": {
        0: "df5a55b713214b5e4d1e6bac63cccf4fbf0337b4db9abe45e05512b8e944db87",
        1: "df5a55b713214b5e4d1e6bac63cccf4fbf0337b4db9abe45e05512b8e944db87",
        2: "df5a55b713214b5e4d1e6bac63cccf4fbf0337b4db9abe45e05512b8e944db87",
        99: "df5a55b713214b5e4d1e6bac63cccf4fbf0337b4db9abe45e05512b8e944db87",
    },
    "length/equal-cross-closed-form": {
        0: "43374f84800702caabfdc5c11a4bba530003ce9812021f709906cbd3e398ece5",
        1: "43374f84800702caabfdc5c11a4bba530003ce9812021f709906cbd3e398ece5",
        2: "43374f84800702caabfdc5c11a4bba530003ce9812021f709906cbd3e398ece5",
        99: "43374f84800702caabfdc5c11a4bba530003ce9812021f709906cbd3e398ece5",
    },
    "length/hoskin-deligne": {
        0: "4143972e1177c18706fd664e3e5297226bbe6d25ef6629a47a8b1b45178cab2a",
        1: "4add6822eb341a9670670419b4e0ff11c6ff200a4bb87cdbda5ceef977201654",
        2: "aff2989832122b3a4948eb84bab8d751d2a71ae685c6b1be17cb3685b1e52769",
        99: "9d993b832724c00ce8f64d5b70805daee0fc189d80b7ba45a6503c5563256c09",
    },
    "length/m-power": {
        0: "987737b40fa2e93fb9bc7a8eb40fd736c45c90193d8fc988b5f605fc431cddf0",
        1: "987737b40fa2e93fb9bc7a8eb40fd736c45c90193d8fc988b5f605fc431cddf0",
        2: "987737b40fa2e93fb9bc7a8eb40fd736c45c90193d8fc988b5f605fc431cddf0",
        99: "987737b40fa2e93fb9bc7a8eb40fd736c45c90193d8fc988b5f605fc431cddf0",
    },
    "length/pick": {
        0: "e16046477258102b40ef0dc4cd04a9372af43a630022b46f9aa80f06a0fd0bc6",
        1: "005f7e81ed6f63476dca41f9b6aa49b723fed492744a8235ef69fa2a51d6c1c2",
        2: "ef1874d2b6e8e692669a6a0e0d6e0cc8cc20787131f1c7634869b5d9ccb673c8",
        99: "d5253ff909a576181811989f97b3b1cc3cb7b5291ead51d5488a4623b65ab4fe",
    },
    "nu/complete-intersection": {
        0: "e3a8de1cd7912caaee48e8d48d3fa38105b338820aad4fce116fe8e1de21f9e0",
        1: "e3a8de1cd7912caaee48e8d48d3fa38105b338820aad4fce116fe8e1de21f9e0",
        2: "e3a8de1cd7912caaee48e8d48d3fa38105b338820aad4fce116fe8e1de21f9e0",
        99: "e3a8de1cd7912caaee48e8d48d3fa38105b338820aad4fce116fe8e1de21f9e0",
    },
    "nu/contraction-degrees": {
        0: "5ca488f14d6d46705571b3cc45a9372ceca1f3cd9c2967ec1713bf8c5fec2e30",
        1: "447f5efc2e9629123787f39b83b1936ccf294e62c36439692c5d59d7fb7b5a8e",
        2: "2f9d0f2d036994ed16e4b612e1a5c767a05a698d90c94b368b51d8a05bbbd70e",
        99: "e7d5828edb9c033092c7aa68249f367f48de61bc04fb543ceddc6276ae7c5b0b",
    },
    "nu/diagram-consistency": {
        0: "569f0465947971285b574d2617a5f2987d3cfae7c6d4f8b622ee4b885fd73efb",
        1: "d48ee73367665db0568c93fecdc5a6a56a7a2649ca4ceb0dc7ebd070aced2e09",
        2: "8efa2c857e365158d1afe1927b68f816546a34ba0f30eb5280e19fd44e7810b8",
        99: "1c14cc80e180debe832b37b4688057eb7f103cdfa59010b879567f6193df8d09",
    },
    "nu/dual-engine": {
        0: "004d8ac72310020ee77e73d211a284840a0780ad8da9b10eba26fc5cd24b2a0f",
        1: "97d6f6d40488bafd3fdf7c5825ec31f9555c6cab9d0f4f009b1243569130eef9",
        2: "e2dae51ac4fa964d99b5b44228f17cf2c3c0dd0ef2a33b84c7a077dfc4a01dbe",
        99: "110ca9f9aa4d184cbb0b908b7d1ee0616fb8bd6925f5b09eea919c0a6e6909ff",
    },
    "nu/equal-degree-pair": {
        0: "83b55c68034dea679df06591104d150d863595906c73cca4e76abae8cfec0c74",
        1: "83b55c68034dea679df06591104d150d863595906c73cca4e76abae8cfec0c74",
        2: "83b55c68034dea679df06591104d150d863595906c73cca4e76abae8cfec0c74",
        99: "83b55c68034dea679df06591104d150d863595906c73cca4e76abae8cfec0c74",
    },
    "nu/m-power": {
        0: "f5e0ae73615a25fc56bd04fd1bcc45cf067997fb9b0ed5534367b04bd7e87ce3",
        1: "f5e0ae73615a25fc56bd04fd1bcc45cf067997fb9b0ed5534367b04bd7e87ce3",
        2: "f5e0ae73615a25fc56bd04fd1bcc45cf067997fb9b0ed5534367b04bd7e87ce3",
        99: "f5e0ae73615a25fc56bd04fd1bcc45cf067997fb9b0ed5534367b04bd7e87ce3",
    },
    "nu/normal-product": {
        0: "49b2d2a543b65e2c2fb2e9016d6f5bc87ffff59b60d01ad377c6cbf07e92899d",
        1: "32b7eaa05b64cd0073223bd51dd2d5ef95ce069e7169a3fbc3369e81ee5cc5a6",
        2: "26056286d420d03c6fbfb6e467b3622732992d06c3016c8a1bd3ba71bea63467",
        99: "084a9fafeffde33d52fd30d7b12353bba1e63dfa74eea7115ebfe82cf044b285",
    },
    "nu/normalized-intersection": {
        0: "5f0e0925fd8e2f02ab52ceba505cdc974ecc794139f5178081a686621f7ba1a2",
        1: "5f0e0925fd8e2f02ab52ceba505cdc974ecc794139f5178081a686621f7ba1a2",
        2: "5f0e0925fd8e2f02ab52ceba505cdc974ecc794139f5178081a686621f7ba1a2",
        99: "5f0e0925fd8e2f02ab52ceba505cdc974ecc794139f5178081a686621f7ba1a2",
    },
    "nu/pair-agreement": {
        0: "4193b8a657b87a6d864e58eaf50f9183b7c07f38ad5735378e28b371d7404b0f",
        1: "4193b8a657b87a6d864e58eaf50f9183b7c07f38ad5735378e28b371d7404b0f",
        2: "4193b8a657b87a6d864e58eaf50f9183b7c07f38ad5735378e28b371d7404b0f",
        99: "4193b8a657b87a6d864e58eaf50f9183b7c07f38ad5735378e28b371d7404b0f",
    },
    "nu/power-rule": {
        0: "5c1a025bb5b61babfefb18ab44d798a90e70b3b011b55e278601ef18b55c28a9",
        1: "263faf8d878d4f68d43a09aeeccbabc09281ed76285a8a10d9c9c3c15cc899a6",
        2: "7cd55a85140bab9946ea06f1f4e0f2443a9cd36162b3305ca3c1ae438ec81612",
        99: "de175dfe599dff485d1318790b3e1bcc5233d2d118331a0ec38961f8595011fe",
    },
    "nu/tower-min-sum": {
        0: "37a2e78818d8fbb36ec845ad09f2442a91efb7d9aa5c9404587a5f978db2f7ae",
        1: "37a2e78818d8fbb36ec845ad09f2442a91efb7d9aa5c9404587a5f978db2f7ae",
        2: "37a2e78818d8fbb36ec845ad09f2442a91efb7d9aa5c9404587a5f978db2f7ae",
        99: "37a2e78818d8fbb36ec845ad09f2442a91efb7d9aa5c9404587a5f978db2f7ae",
    },
}


@pytest.mark.parametrize("seed", [0, 1, 2, 99])
def test_default_runs_are_pinned(seed):
    # every draw, instance, value and status, in order, one digest per family
    digests = defaultdict(hashlib.sha256)
    for r in run_all(seed, PRESETS["default"]):
        line = repr((r.name, r.instance, repr(r.expected), repr(r.actual), r.status))
        digests[r.name].update(line.encode() + b"\n")
    assert set(digests) == set(DEFAULT_DIGESTS)
    reported = {family: digest.hexdigest() for family, digest in digests.items()}
    assert reported == {family: pinned[seed] for family, pinned in DEFAULT_DIGESTS.items()}


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
