import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from behrend import (
    MAXIMAL_IDEAL,
    DomainError,
    DynkinNode,
    Factor,
    MonomialIdeal,
    TowerProduct,
    UnsupportedError,
    build_dynkin,
    make_tower,
    noncomplete_product_nu,
    nu_monomial,
    parse,
    product_nu,
    product_text,
    tower_length,
    tower_nu,
    tower_times_m_power,
    two_tower_length,
    two_tower_nu,
)
from behrend import towers
from behrend.towers import tower_from_terms
from behrend.verify import pairwise_meet_length


def library_length(product):
    """The length the library answers for the product's text."""
    return parse(product_text(product)).length()


def complete(branch, height, tangent=()):
    return make_tower(branch, tangent, range(1, height + 1))


def contribution(diagram, factor, node_index):
    """Contribution of one factor (tower index, exponent) to one node's
    multiplicity: the level of the deepest common ancestor of the node and
    the factor's own node, found by walking diagram.parents level by level."""
    i = next(index for index, factors in enumerate(diagram.factors) if factor in factors)
    j = node_index
    levels, parents = diagram.levels, diagram.parents
    while levels[i] > levels[j]:
        i = parents[i]
    while levels[j] > levels[i]:
        j = parents[j]
    while i != j:
        i, j = parents[i], parents[j]
    return levels[i]


def tangent_prefix(tower, r):
    """Coefficients of g in degrees < r, zero-padded to length r - 1."""
    coeffs = dict(tower.tangent)
    return tuple(coeffs.get(d, Fraction(0)) for d in range(1, r))


def _pairwise_related(t1, t2, r):
    if r == 1 or r > max(t1.height, t2.height):
        return True
    if 1 < r <= min(t1.height, t2.height):
        return t1.branch == t2.branch and tangent_prefix(t1, r) == tangent_prefix(t2, r)
    return False


def equivalence_classes(product, r):
    """The classes at level r, read off the nodes of the built diagram, and
    the excess pool (towers below height r).  They are checked against the
    pairwise three-case relation, whose transitivity is asserted, not
    assumed, and the classes must come in the order of their branch and
    zero-padded tangent prefix."""
    towers = product.towers
    classes = [node.members for node in build_dynkin(product).nodes if node.level == r]
    excess = tuple(i for i, t in enumerate(towers) if t.height < r)
    lookup = {i: c for c, members in enumerate(classes) for i in members}
    assert sorted(lookup) == [i for i, t in enumerate(towers) if t.height >= r]
    assert sum(len(members) for members in classes) == len(lookup)
    for i in range(len(towers)):
        for j in range(i + 1, len(towers)):
            same = (
                lookup[i] == lookup[j]
                if i in lookup and j in lookup
                else i in excess and j in excess
            )
            assert _pairwise_related(towers[i], towers[j], r) == same
    keys = [(towers[m[0]].branch, tangent_prefix(towers[m[0]], r)) for m in classes]
    assert keys == sorted(keys)
    return classes, excess


def first_members_ascend(diagram):
    """Whether the nodes at each level come in the order of their first
    members, that is, whether node order and tower indices agree."""
    firsts = {}
    for level, members in zip(diagram.levels, diagram.members):
        firsts.setdefault(level, []).append(members[0])
    return all(f == sorted(f) for f in firsts.values())


def reference_dynkin(product):
    """The former per-level engine, kept as a reference: at every level it
    groups the completed towers by branch and zero-padded tangent prefix and
    sorts the groups.  Returns one (level, members, factors, parent,
    self_intersection, multiplicity, surviving) tuple per node."""
    towers = product.towers
    height = max(t.height for t in towers)
    nodes_members, parents = [], []
    node_at = [dict() for _ in range(height + 1)]
    for r in range(1, height + 1):
        if r == 1:
            classes = [tuple(range(len(towers)))]
        else:
            grouped = {}
            for i, t in enumerate(towers):
                if t.height >= r:
                    grouped.setdefault((t.branch, tangent_prefix(t, r)), []).append(i)
            classes = [tuple(grouped[key]) for key in sorted(grouped)]
        for members in classes:
            index = len(nodes_members)
            nodes_members.append((r, members))
            for i in members:
                node_at[r][i] = index
            parents.append(node_at[r - 1][members[0]] if r > 1 else -1)
    count = len(nodes_members)
    degree = [0] * count
    for index in range(1, count):
        degree[parents[index]] += 1
        degree[index] += 1
    attached = [[] for _ in range(count)]
    for i, t in enumerate(towers):
        for k in t.exponents:
            attached[node_at[k][i]].append((i, k))
    below = [len(factors) for factors in attached]
    for index in range(count - 1, 0, -1):
        below[parents[index]] += below[index]
    multiplicity = below[:]
    for index in range(1, count):
        multiplicity[index] += multiplicity[parents[index]]
    return [
        (
            level,
            members,
            tuple(attached[index]),
            parents[index],
            -degree[index] - (1 if level == 1 else 0),
            multiplicity[index],
            any(level in towers[i].exponents for i in members),
        )
        for index, (level, members) in enumerate(nodes_members)
    ]


def forked_product(rng, max_height=12):
    """One to five towers whose tangents copy a shared random prefix before
    diverging, so that forks are deep; some towers end below the forks of
    others, and a prefix followed by zeros or negative terms checks the
    zero-padded order."""
    values = (Fraction(0), Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2))
    shared = [rng.choice(values) for _ in range(max_height - 1)]
    while True:
        towers = []
        for _ in range(rng.randint(1, 5)):
            branch = "x" if rng.random() < 0.8 else "y"
            height = rng.randint(1, max_height)
            degree = rng.randint(0, height - 1)
            keep = rng.randint(0, degree)
            tangent = shared[:keep] + [rng.choice(values) for _ in range(degree - keep)]
            if rng.random() < 0.5:
                exps = range(1, height + 1)
            else:
                exps = sorted(rng.sample(range(1, height), rng.randint(0, height - 1)))
                exps.append(height)
            towers.append(make_tower(branch, tangent, exps))
        try:
            return TowerProduct.from_factors(towers)
        except UnsupportedError:
            continue


def reference_products():
    """The forked products the reference comparison draws."""
    rng = random.Random(53)
    return [forked_product(rng) for _ in range(240)]


def random_product(rng, max_height=8):
    """Up to three towers, monomial or with a tangent, complete or gapped."""
    while True:
        factors = []
        for _ in range(rng.randint(1, 3)):
            branch, height = rng.choice("xy"), rng.randint(1, max_height)
            if rng.random() < 0.5:
                exps = list(range(1, height + 1))
            else:
                exps = sorted(rng.sample(range(1, height + 1), rng.randint(1, height)))
            degree = rng.randint(0, exps[-1] - 1) if rng.random() < 0.5 else 0
            tangent = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(degree))
            factors.extend(Factor(branch, tangent, e) for e in exps)
        try:
            return TowerProduct.from_factors(factors)
        except UnsupportedError:
            continue


class TestMakeTower:
    def test_complete_monomial(self):
        t = complete("x", 4)
        assert t.is_complete and t.is_monomial and t.height == 4

    def test_curvilinear(self):
        t = make_tower("x", (), (5,))
        assert t.ideal() == MonomialIdeal([(1, 0), (0, 5)])

    def test_tangent_degree_bound(self):
        with pytest.raises(DomainError):
            make_tower("x", (0, 0, 1), (2,))  # deg g = 3 >= height 2

    def test_exponents_must_not_decrease(self):
        # a repeated exponent is a repeated factor
        assert make_tower("x", (), (2, 2)).exponents == (2, 2)
        with pytest.raises(DomainError, match="nondecreasing"):
            make_tower("x", (), (3, 1))

    @pytest.mark.parametrize("value", [1.5, Fraction(7, 2), "2"])
    def test_exponents_must_be_integers(self, value):
        # refused and named, not truncated
        with pytest.raises(DomainError, match=re.escape(f"exponent {value!r} is not an integer")):
            make_tower("x", (), [1, value])

    def test_exponents_must_be_positive(self):
        with pytest.raises(DomainError):
            make_tower("x", (), (0, 1))

    def test_branch_checked(self):
        with pytest.raises(DomainError):
            make_tower("t", (), (1,))

    def test_trailing_zeros_stripped(self):
        t = make_tower("x", (Fraction(1, 2), 0, 0), (4,))
        assert t.tangent == ((1, Fraction(1, 2)),)

    def test_coefficients_become_fractions_before_zeros_drop(self):
        t = make_tower("x", ("1/2", "0", 0.0, "-3"), (5,))
        assert t.tangent == ((1, Fraction(1, 2)), (4, Fraction(-3)))
        assert all(type(c) is Fraction for _, c in t.tangent)
        # a factor's dense tangent is read the same way, also for its slot
        product = TowerProduct.from_factors([Factor("x", (0.5, "0"), 2), Factor(None, (), 1)])
        assert product.towers == (make_tower("x", (Fraction(1, 2),), (1, 2)),)


class TestTowerIdeal:
    def test_complete_height_three(self):
        assert complete("x", 3).ideal() == MonomialIdeal(
            [(3, 0), (2, 1), (1, 3), (0, 6)]
        )

    def test_gapped(self):
        assert make_tower("x", (), (1, 3)).ideal() == MonomialIdeal(
            [(2, 0), (1, 1), (0, 4)]
        )

    def test_y_branch_transposes(self):
        assert complete("y", 3).ideal() == MonomialIdeal(
            [(0, 3), (1, 2), (3, 1), (6, 0)]
        )

    def test_non_monomial_unsupported(self):
        with pytest.raises(UnsupportedError):
            complete("x", 3, tangent=(1,)).ideal()


class TestClosedForms:
    def test_complete_length_and_nu(self):
        for s in range(1, 13):
            t = complete("x", s)
            assert tower_length(t) == s * (s + 1) * (s + 2) // 6
            assert tower_nu(t) == s * (s + 1) * (2 * s + 1) // 6

    def test_gapped_length(self):
        assert tower_length(make_tower("x", (), (1, 3))) == 5

    def test_curvilinear(self):
        for n in range(1, 9):
            t = make_tower("x", (), (n,))
            assert tower_length(t) == n and tower_nu(t) == n

    def test_gapped_nu_is_min_sum(self):
        t = make_tower("x", (), (1, 3))
        assert tower_nu(t) == 6

    def test_nu_form_needs_distinct_exponents(self):
        # the min-sum counts a curve once per factor; nu of (x, y^4)^2 is 8, not 16
        t = make_tower("x", (), (4, 4))
        with pytest.raises(UnsupportedError, match="distinct exponents"):
            tower_nu(t)
        assert nu_monomial(t.ideal()).nu == 8

    def test_matches_monomial_engines(self):
        rng = random.Random(2)
        for _ in range(30):
            exps = sorted(rng.sample(range(1, 9), rng.randint(1, 4)))
            t = make_tower(rng.choice("xy"), (), exps)
            I = t.ideal()
            assert tower_length(t) == I.colength()
            assert tower_nu(t) == nu_monomial(I).nu


class TestTwoTowerForms:
    def test_two_maximal(self):
        assert two_tower_nu(complete("x", 1), complete("y", 1)) == 2

    def test_cross_monomial_equal_heights(self):
        for h in range(1, 9):
            pyramidal = h * (h + 1) * (2 * h + 1) // 6
            expected = 2 * pyramidal + 2 * h * h - 2 * h
            assert two_tower_nu(complete("x", h), complete("y", h)) == expected

    def test_same_branch_first_order_split(self):
        assert two_tower_nu(complete("x", 2), complete("x", 3, tangent=(1,))) == 26

    def test_same_branch_deep_split_matches_monomial_model(self):
        # g1 = 0 and g2 = y^2 agree to depth 2, so the shear x -> x - y^2
        # turns the product into a monomial multiset; the polygon engine on
        # that expansion is ground truth.
        k1 = complete("x", 2)
        k2 = complete("x", 3, tangent=(0, 1))
        expansion = k1.ideal() * complete("x", 3).ideal()
        assert two_tower_nu(k1, k2) == nu_monomial(expansion).nu == 22

    def test_identical_towers_rejected(self):
        with pytest.raises(UnsupportedError):
            two_tower_nu(complete("x", 3), complete("x", 3))

    def test_aligned_cross_directions_rejected(self):
        kx = complete("x", 2, tangent=(Fraction(1, 2),))
        ky = complete("y", 2, tangent=(2,))
        with pytest.raises(UnsupportedError):
            two_tower_nu(kx, ky)

    def test_tangents_agreeing_past_min_height_rejected(self):
        k1 = complete("x", 2)
        k2 = complete("x", 5, tangent=(0, 0, 0, 1))  # d = 4 > 2
        with pytest.raises(UnsupportedError):
            two_tower_nu(k1, k2)

    def test_non_complete_rejected(self):
        with pytest.raises(UnsupportedError):
            two_tower_nu(make_tower("x", (), (2,)), complete("y", 2))

    def test_length_cross_pairs(self):
        assert [
            two_tower_length(complete("x", h), complete("y", h)) for h in (1, 2, 3)
        ] == [3, 12, 29]
        assert two_tower_length(complete("x", 2), complete("y", 1)) == 7

    def test_length_formula_matches_expansion(self):
        for hx in range(1, 7):
            for hy in range(1, 7):
                expansion = complete("x", hx).ideal() * complete("y", hy).ideal()
                assert (
                    two_tower_length(complete("x", hx), complete("y", hy))
                    == expansion.colength()
                )

    def test_length_needs_cross_branch(self):
        with pytest.raises(UnsupportedError):
            two_tower_length(complete("x", 2), complete("x", 3, tangent=(1,)))


class TestTowerProduct:
    def test_merges_disjoint_same_tangent(self):
        product = TowerProduct.from_factors(
            [Factor("x", (), 2), Factor("x", (), 4), Factor(None, (), 1)]
        )
        assert len(product.towers) == 1
        assert product.towers[0].exponents == (1, 2, 4)

    def test_overlapping_exponents_repeat(self):
        product = TowerProduct.from_factors([Factor("x", (), 2), Factor("x", (), 2)])
        assert [t.exponents for t in product.towers] == [(2, 2)]
        assert product.expand() == make_tower("x", (), (2,)).ideal() ** 2

    def test_two_floating_m_factors(self):
        product = TowerProduct.from_factors(
            [Factor(None, (), 1), Factor(None, (), 1), Factor("x", (), 2)]
        )
        assert sorted(t.branch for t in product.towers) == ["x", "y"]

    def test_three_m_factors_go_round(self):
        product = TowerProduct.from_factors([Factor(None, (), 1)] * 3)
        assert [(t.branch, t.exponents) for t in product.towers] == [("x", (1, 1)), ("y", (1,))]
        assert product.expand() == MonomialIdeal([(1, 0), (0, 1)]) ** 3

    # towers as (branch, tangent terms, exponents); a literal's own exponent
    # 1 floats like a bare m, and the j-th floating factor goes to slot j mod
    # the slot count: the groups in (branch, tangent) order, then new
    # monomial towers on x and on y
    G = ((1, 1),)  # the tangent g = y, or x on the branch y
    X1, Y1 = ("x", (), (1,)), ("y", (), (1,))
    NO_GROUP = []
    WITHOUT_ONE = [("x", (), (2, 3))]
    WITH_ONE = [("x", G, (1, 2))]
    TWO_GROUPS = [("y", (), (1, 3)), ("x", G, (2,))]

    @pytest.mark.parametrize(
        "towers,count,expected",
        [
            (NO_GROUP, 1, [X1]),
            (NO_GROUP, 2, [X1, Y1]),
            (NO_GROUP, 3, [("x", (), (1, 1)), Y1]),
            (WITHOUT_ONE, 0, [("x", (), (2, 3))]),
            (WITHOUT_ONE, 1, [("x", (), (1, 2, 3))]),
            (WITHOUT_ONE, 2, [("x", (), (1, 2, 3)), Y1]),
            (WITHOUT_ONE, 3, [("x", (), (1, 1, 2, 3)), Y1]),
            (WITH_ONE, 0, [("x", G, (1, 2))]),
            (WITH_ONE, 1, [("x", G, (1, 2)), X1]),
            (WITH_ONE, 2, [("x", G, (1, 2)), X1, Y1]),
            (WITH_ONE, 3, [("x", G, (1, 1, 2)), X1, Y1]),
            (TWO_GROUPS, 0, [("x", G, (1, 2)), ("y", (), (3,))]),
            (TWO_GROUPS, 1, [("x", G, (1, 2)), ("y", (), (1, 3))]),
            (TWO_GROUPS, 2, [("x", G, (1, 2)), ("y", (), (1, 3)), X1]),
            (TWO_GROUPS, 3, [("x", G, (1, 1, 2)), ("y", (), (1, 3)), X1]),
            (TWO_GROUPS, 7,
             [("x", G, (1, 1, 1, 2)), ("y", (), (1, 1, 1, 3)), ("x", (), (1, 1))]),
        ],
    )
    def test_bare_m_fill_free_slots_in_order(self, towers, count, expected):
        items = [tower_from_terms(*t) for t in towers] + [Factor(None, (), 1)] * count
        product = TowerProduct.from_factors(items)
        assert {(t.branch, t.tangent, t.exponents) for t in product.towers} == set(expected)

    def test_non_canonical_towers_are_rebuilt(self):
        # a Tower made without make_tower is canonicalized or refused, not passed on
        unsorted = towers.Tower("x", (), (3, 2))
        product = TowerProduct.from_factors([unsorted])
        assert product.towers[0] is not unsorted
        assert product.towers[0].exponents == (2, 3)
        zero_term = towers.Tower("x", ((1, Fraction(1)), (2, Fraction(0))), (2, 5))
        (rebuilt,) = TowerProduct.from_factors([zero_term]).towers
        assert rebuilt.tangent == ((1, 1),)
        with pytest.raises(DomainError, match="sharing branch and tangent"):
            TowerProduct.from_factors([zero_term, make_tower("x", (1,), (3,))])
        unsorted_terms = towers.Tower("x", ((3, Fraction(2)), (1, Fraction(-1))), (4,))
        (rebuilt,) = TowerProduct.from_factors([unsorted_terms]).towers
        assert rebuilt.tangent == ((1, -1), (3, 2))
        with pytest.raises(DomainError, match="tangent degree 2 must be smaller"):
            TowerProduct.from_factors([towers.Tower("x", ((2, Fraction(1)),), (2,))])
        with pytest.raises(DomainError, match="degrees must be positive"):
            TowerProduct.from_factors([towers.Tower("x", ((0, Fraction(1)),), (2,))])
        with pytest.raises(DomainError, match="branch must be"):
            TowerProduct.from_factors([towers.Tower("z", (), (2,))])

    # the round-robin rule above on parsed products: with no more exponent-1
    # factors than slots, the j-th fills slot j
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("tower(x; g=y; exps=[2, 3]) * tower(x; g=2*y; exps=[1, 2])",
             [("x", G, (1, 2, 3)), ("x", ((1, 2),), (2,))]),
            ("tower(x; g=-y; exps=[1, 3]) * tower(x; g=y; exps=[1, 2])"
             " * tower(x; g=0; exps=[2])",
             [("x", ((1, -1),), (1, 3)), ("x", (), (1, 2)), ("x", G, (2,))]),
            ("tower(x; g=y; exps=[1, 2]) * m", [("x", (), (1,)), ("x", G, (1, 2))]),
            ("tower(x; g=y; exps=[2, 3]) * m", [("x", G, (1, 2, 3))]),
            ("tower(x; g=y; exps=[2, 3]) * m^2", [("x", (), (1,)), ("x", G, (1, 2, 3))]),
            ("m * tower(x; g=2*y; exps=[2, 4]) * tower(x; g=y; exps=[2, 3])",
             [("x", G, (1, 2, 3)), ("x", ((1, 2),), (2, 4))]),
            ("tower(y; g=2*x; exps=[2]) * tower(x; g=y; exps=[3]) * m",
             [("x", G, (1, 3)), ("y", ((1, 2),), (2,))]),
            ("tower(y; g=0; exps=[1, 2]) * tower(x; g=y; exps=[2, 3]) * m",
             [("x", G, (1, 2, 3)), ("y", (), (1, 2))]),
            ("tower(x; g=y; exps=[3]) * m * tower(x; g=-y; exps=[2])",
             [("x", ((1, -1),), (1, 2)), ("x", G, (3,))]),
            # literals on one tangent merge; a merged group is rebuilt
            ("tower(x; g=y; exps=[1, 3]) * tower(x; g=y; exps=[2])", [("x", G, (1, 2, 3))]),
            ("tower(x; g=0; exps=[2]) * tower(x; g=y; exps=[1, 2]) * tower(x; g=y; exps=[3])",
             [("x", (), (1, 2)), ("x", G, (2, 3))]),
        ],
    )
    def test_exponent_one_placement(self, text, expected):
        product = parse(text).require_towers()
        assert [(t.branch, t.tangent, t.exponents) for t in product.towers] == expected

    def test_same_key_towers_rejected_directly(self):
        with pytest.raises(DomainError):
            TowerProduct([complete("x", 2), complete("x", 3)])

    def test_expand(self):
        product = TowerProduct.from_factors([Factor("x", (), 2), Factor("y", (), 3)])
        assert product.expand() == MonomialIdeal([(1, 1), (4, 0), (0, 3)])


class TestEquivalenceClasses:
    def test_cross_pair_splits_at_two(self):
        product = TowerProduct([complete("x", 2), complete("y", 2)])
        classes, excess = equivalence_classes(product, 1)
        assert classes == [(0, 1)] and excess == ()
        classes, excess = equivalence_classes(product, 2)
        assert len(classes) == 2 and excess == ()

    def test_same_branch_splits_past_tangent_depth(self):
        product = TowerProduct(
            [complete("x", 4), complete("x", 4, tangent=(0, 1))]  # d = 2
        )
        for r in (1, 2):
            classes, _ = equivalence_classes(product, r)
            assert len(classes) == 1
        classes, _ = equivalence_classes(product, 3)
        assert len(classes) == 2

    def test_single_tower(self):
        product = TowerProduct([complete("x", 3)])
        for r in (1, 2, 3):
            classes, excess = equivalence_classes(product, r)
            assert classes == [(0,)] and excess == ()

    def test_short_tower_pools_into_excess(self):
        product = TowerProduct([complete("x", 2), complete("y", 4)])
        classes, excess = equivalence_classes(product, 3)
        assert classes == [(1,)] and excess == (0,)

    def test_random_products_every_level(self):
        rng = random.Random(37)
        products = [random_product(rng) for _ in range(40)]
        products += [forked_product(rng) for _ in range(40)]
        for product in products:
            for r in range(1, max(t.height for t in product.towers) + 2):
                equivalence_classes(product, r)


class TestReferenceEngine:
    def test_matches_per_level_engine(self):
        products = reference_products()
        assert sum(len(p.towers) >= 4 for p in products) >= 40
        deep_forks = 0
        for product in products:
            diagram = build_dynkin(product)
            nodes = diagram.nodes
            actual = [
                (n.level, n.members, n.factors, diagram.parents[n.index],
                 n.self_intersection, n.multiplicity, n.surviving)
                for n in nodes
            ]
            assert actual == reference_dynkin(product)
            deep_forks += any(
                n.level >= 4 and len(nodes[diagram.parents[n.index]].members)
                > len(n.members) for n in nodes
            )
        assert deep_forks >= 50

    def test_views_and_sums_match_the_node_records(self):
        # nodes and edges are built from the columns on access; nu and length
        # read the columns, and must equal the sums over the node records
        for product in reference_products():
            diagram = build_dynkin(product)
            nodes, parents = diagram.nodes, diagram.parents
            columns = (diagram.levels, diagram.members, diagram.factors,
                       diagram.self_intersection, diagram.multiplicity, diagram.surviving)
            assert {len(column) for column in columns} == {len(parents)} == {len(nodes)}
            for i, node in enumerate(nodes):
                assert type(node) is DynkinNode
                assert node == DynkinNode(i, *(column[i] for column in columns))
            assert diagram.edges == tuple((parents[i], i) for i in range(1, len(nodes)))
            assert diagram.nu() == sum(n.multiplicity for n in nodes if n.surviving)
            weights = [n.multiplicity - (nodes[parents[n.index]].multiplicity if n.index else 0)
                       for n in nodes]
            assert diagram.length() == sum(w * (w + 1) // 2 for w in weights)

    def test_matches_per_level_engine_at_benchmark_heights(self):
        rng = random.Random(61)

        def coefficient():
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))

        def sparse(height, share):
            picked = rng.sample(range(1, height), max(1, round((height - 1) * share)))
            return sorted(picked) + [height]

        prefix = [coefficient() if rng.random() < 0.5 else 0 for _ in range(59)]
        shapes = [
            # forked complete towers, distinct linear terms
            [complete("x", h, (c, coefficient())) for h, c in ((100, 1), (97, -2), (94, 3))],
            # two towers agreeing to degree 60
            [complete("x", 120, prefix + [1]), complete("x", 118, prefix + [-1])],
            # one sparse tower
            [make_tower("x", (coefficient(), coefficient()), sparse(120, 0.25))],
            # forked sparse towers
            [make_tower("x", (c,), sparse(h, 0.3)) for h, c in ((90, 1), (88, 2), (86, -1))],
            # monomial towers on both branches
            [make_tower("x", (), sparse(120, 0.3)), make_tower("y", (), sparse(118, 0.3))],
            # curvilinear towers on both branches
            [complete("x", 90, (2, coefficient())), complete("y", 45, (Fraction(1, 3),))],
        ]
        products = [TowerProduct.from_factors(towers) for towers in shapes]
        products += [forked_product(rng, max_height=60) for _ in range(30)]
        for product in products:
            diagram = build_dynkin(product)
            actual = [
                (n.level, n.members, n.factors, diagram.parents[n.index],
                 n.self_intersection, n.multiplicity, n.surviving)
                for n in diagram.nodes
            ]
            assert actual == reference_dynkin(product)
        assert max(len(build_dynkin(p).nodes) for p in products) >= 250

    def test_diagram_cap_counts_the_nodes_before_building(self, monkeypatch):
        rng = random.Random(59)
        for product in [forked_product(rng) for _ in range(40)]:
            count = len(reference_dynkin(product))
            monkeypatch.setattr(towers, "DIAGRAM_CAP", count)
            assert len(build_dynkin(product).nodes) == count
            monkeypatch.setattr(towers, "DIAGRAM_CAP", count - 1)
            with pytest.raises(UnsupportedError, match=f"has {count} nodes, above the diagram cap"):
                build_dynkin(product)

    def test_stored_order_is_the_padded_order(self):
        # (1, 0, -1) sorts before (1,), whose padded form is (1, 0, 0), so the
        # product stores it first and its class comes first at level 4
        product = TowerProduct([complete("x", 5, (1,)), complete("x", 5, (1, 0, -1))])
        assert [t.tangent for t in product.towers] == [((1, 1), (3, -1)), ((1, 1),)]
        classes, _ = equivalence_classes(product, 4)
        assert classes == [(0,), (1,)]
        assert [n[:2] for n in reference_dynkin(product)] == [
            (n.level, n.members) for n in build_dynkin(product).nodes
        ]

    def test_node_order_follows_the_tower_indices(self):
        # the towers g = y and g = y - y^2 split at level 3; y - y^2 is stored
        # first, so its node comes first
        product = TowerProduct([make_tower("x", (1,), [3]), make_tower("x", (1, -1), [3])])
        assert build_dynkin(product).members == ((0, 1), (0, 1), (0,), (1,))
        for product in reference_products():
            assert first_members_ascend(build_dynkin(product))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("xy"), st.lists(st.integers(-2, 2), max_size=5),
                              st.integers(1, 3)), min_size=1, max_size=6))
    def test_node_order_follows_the_tower_indices_on_drawn_towers(self, drawn):
        tower_list = list({t[:2]: t for t in (make_tower(b, g, [len(g) + extra])
                                              for b, g, extra in drawn)}.values())
        try:
            product = TowerProduct(tower_list)
        except UnsupportedError:  # aligned cross-branch directions are refused
            assume(False)
        assert first_members_ascend(build_dynkin(product))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("xy"),
                              st.lists(st.integers(-2, 2), max_size=6)), min_size=2, max_size=8))
    def test_sort_key_and_depth_read_the_zero_padded_tangents(self, drawn):
        # short tangents with zero runs and both signs, so one is often a
        # prefix of another; equal (branch, tangent) pairs are dropped
        tower_list = list({t[:2]: t for t in (make_tower(b, g, [len(g) + 1])
                                              for b, g in drawn)}.values())
        width = max(len(g) for _, g in drawn)

        def padded(t):
            coeffs = dict(t.tangent)
            return tuple(coeffs.get(d, 0) for d in range(1, width + 1))

        # a product stores its towers by branch and padded tangent
        stored = sorted(tower_list, key=lambda t: (t.branch, padded(t)))
        assert sorted(tower_list, key=towers._padded_key) == stored
        try:
            assert TowerProduct(tower_list).towers == tuple(stored)
        except UnsupportedError:  # aligned cross-branch directions are refused
            pass
        for s in tower_list:
            for t in tower_list:
                differ = [d for d, (a, b) in enumerate(zip(padded(s), padded(t)), 1) if a != b]
                expected = 1 if s.branch != t.branch else (differ or [None])[0]
                assert towers.agreement_depth(s, t) == expected


class TestDynkinShapes:
    def test_single_tower_chain(self):
        diagram = build_dynkin(TowerProduct([complete("x", 5)]))
        self_ints = [n.self_intersection for n in diagram.nodes]
        assert self_ints == [-2, -2, -2, -2, -1]
        assert len(diagram.edges) == len(diagram.nodes) - 1

    def test_height_one_tower(self):
        diagram = build_dynkin(TowerProduct([complete("x", 1)]))
        assert [n.self_intersection for n in diagram.nodes] == [-1]

    def test_cross_pair_root(self):
        diagram = build_dynkin(TowerProduct([complete("x", 3), complete("y", 2)]))
        assert diagram.nodes[0].self_intersection == -3
        assert len(diagram.nodes) == 3 + 2 - 1

    def test_same_branch_fork_node(self):
        for d in (1, 2, 3):
            tangent = (0,) * (d - 1) + (1,)
            diagram = build_dynkin(
                TowerProduct([complete("x", 4), complete("x", 5, tangent=tangent)])
            )
            fork = next(n for n in diagram.nodes if n.level == d and len(n.members) == 2)
            assert fork.self_intersection == -3

    def test_five_factor_tree(self):
        product = TowerProduct.from_factors(
            [
                Factor(None, (), 1),
                Factor("x", (), 2),
                Factor("y", (), 2),
                Factor("x", (1,), 2),
                Factor("x", (1,), 3),
            ]
        )
        diagram = build_dynkin(product)
        assert diagram.nodes[0].self_intersection == -4
        level_two = sorted(
            n.self_intersection for n in diagram.nodes if n.level == 2
        )
        assert level_two == [-2, -1, -1]
        leaves = [n for n in diagram.nodes if n.level == 3]
        assert len(leaves) == 1 and leaves[0].self_intersection == -1

    def test_diagram_is_tree(self):
        rng = random.Random(17)
        for _ in range(20):
            factors = []
            for _ in range(rng.randint(1, 3)):
                branch = rng.choice("xy")
                exps = sorted(rng.sample(range(1, 7), rng.randint(1, 3)))
                factors.extend(Factor(branch, (), e) for e in exps)
            try:
                product = TowerProduct.from_factors(factors)
            except UnsupportedError:
                continue
            diagram = build_dynkin(product)
            nodes = diagram.nodes
            assert len(diagram.edges) == len(nodes) - 1
            assert all(abs(nodes[a].level - nodes[b].level) == 1 for a, b in diagram.edges)


class TestContribution:
    def test_single_tower_min_rule(self):
        product = TowerProduct([complete("x", 4)])
        diagram = build_dynkin(product)
        for i in range(1, 5):
            for j, node in enumerate(diagram.nodes):
                assert contribution(diagram, (0, i), node.index) == min(
                    i, node.level
                )

    def test_cross_pair_off_chain_is_one(self):
        product = TowerProduct([complete("x", 3), complete("y", 3)])
        diagram = build_dynkin(product)
        y_index = next(i for i, t in enumerate(product.towers) if t.branch == "y")
        x_index = 1 - y_index
        for node in diagram.nodes:
            if node.level > 1 and node.members == (y_index,):
                assert contribution(diagram, (x_index, 3), node.index) == 1

    def test_m_factor_contributes_one_everywhere(self):
        product = TowerProduct.from_factors(
            [Factor(None, (), 1), Factor("x", (), 2), Factor("x", (), 3)]
        )
        diagram = build_dynkin(product)
        for node in diagram.nodes:
            assert contribution(diagram, (0, 1), node.index) == 1

    def test_multiplicity_is_contribution_sum(self):
        rng = random.Random(47)
        products = [TowerProduct([complete("x", 3), complete("y", 2)])]
        products += [random_product(rng) for _ in range(60)]
        assert any(not p.all_monomial for p in products)
        assert any(not p.all_complete for p in products)
        for product in products:
            diagram = build_dynkin(product)
            for node in diagram.nodes:
                total = sum(
                    contribution(diagram, (i, k), node.index)
                    for i, t in enumerate(product.towers)
                    for k in t.exponents
                )
                assert total == node.multiplicity


class TestProductNu:
    def test_single_tower(self):
        summary = product_nu(TowerProduct([complete("x", 4)]))
        assert summary.nu == 30

    def test_two_maximal(self):
        summary = product_nu(TowerProduct([complete("x", 1), complete("y", 1)]))
        assert summary.nu == 2

    def test_cross_pair_closed_form(self):
        for h in range(1, 6):
            summary = product_nu(TowerProduct([complete("x", h), complete("y", h)]))
            assert summary.nu == 2 * h * (h + 1) * (2 * h + 1) // 6 + 2 * h * h - 2 * h

    def test_agreement_sweep(self):
        for h1 in range(1, 9):
            for h2 in range(h1, 9):
                cross = TowerProduct([complete("x", h1), complete("y", h2)])
                assert product_nu(cross).nu == two_tower_nu(
                    complete("x", h1), complete("y", h2)
                )
                for d in range(1, min(h1, h2) + 1):
                    if d >= h2:
                        continue
                    pair = TowerProduct(
                        [complete("x", h1), complete("x", h2, tangent=(0,) * (d - 1) + (1,))]
                    )
                    assert product_nu(pair).nu == two_tower_nu(*pair.towers)

    def test_rejects_non_complete(self):
        with pytest.raises(UnsupportedError):
            product_nu(TowerProduct([make_tower("x", (), (2,))]))


class TestNoncompleteProducts:
    def test_seven(self):
        product = TowerProduct.from_factors([Factor("x", (), 2), Factor("y", (), 3)])
        summary = noncomplete_product_nu(product)
        assert summary.nu == 7 and summary.length == 6
        survivors = sorted(
            (n.level, n.multiplicity)
            for n in summary.diagram.nodes
            if n.surviving
        )
        assert survivors == [(2, 3), (3, 4)]
        assert sorted(n.multiplicity for n in summary.diagram.nodes) == [2, 3, 3, 4]

    def test_single_gapped_tower_min_sum(self):
        rng = random.Random(23)
        for _ in range(25):
            exps = sorted(rng.sample(range(1, 9), rng.randint(1, 4)))
            product = TowerProduct([make_tower("x", (), exps)])
            expected = sum(min(a, b) for a in exps for b in exps)
            assert noncomplete_product_nu(product).nu == expected

    def test_curvilinear(self):
        for n in range(1, 8):
            product = TowerProduct([make_tower("x", (), (n,))])
            assert noncomplete_product_nu(product).nu == n

    def test_length_routes(self):
        gapped = TowerProduct([make_tower("x", (1,), (2, 5))])
        assert library_length(gapped) == noncomplete_product_nu(gapped).length == 2 + 7
        pair = TowerProduct([complete("x", 2, tangent=(1,)), complete("y", 3)])
        assert library_length(pair) == noncomplete_product_nu(pair).length == 4 + 10 + 6
        # a same-branch pair and a three-tower product, which no closed form
        # covers, pinned by linear_algebra_length
        same_branch = TowerProduct([complete("x", 2), complete("x", 3, tangent=(1,))])
        three = TowerProduct([*same_branch.towers, complete("y", 1)])
        for product, length in ((same_branch, 20), (three, 26)):
            assert linear_algebra_length(product) == length
            assert library_length(product) == noncomplete_product_nu(product).length == length

    def test_monomial_cross_oracle(self):
        rng = random.Random(29)
        checked = 0
        while checked < 120:
            factors = []
            for _ in range(rng.randint(1, 3)):
                branch = rng.choice("xy")
                exps = rng.sample(range(1, 8), rng.randint(1, 4))
                factors.extend(Factor(branch, (), e) for e in exps)
            try:
                product = TowerProduct.from_factors(factors)
            except UnsupportedError:
                continue
            checked += 1
            assert noncomplete_product_nu(product).nu == nu_monomial(product.expand()).nu

    def test_non_monomial_engine_against_sheared_expansion(self):
        # towers with tangents 0 and y^2 on the same branch: shearing by y^2
        # monomializes both, multiset exponents {2} and {1, 2, 3}
        product = TowerProduct(
            [make_tower("x", (), (2,)), make_tower("x", (0, 1), (1, 2, 3))]
        )
        sheared = make_tower("x", (), (2,)).ideal() * make_tower("x", (), (1, 2, 3)).ideal()
        assert noncomplete_product_nu(product).nu == nu_monomial(sheared).nu


def linear_algebra_length(product):
    """dim R/m^N minus the rank of I modulo m^N, over Fraction, for
    N = sum of the exponents + 1.

    Every factor (x + g(y), y^k) contains m^k, so m^N lies in I and this is
    the colength.  I modulo m^N is built factor by factor: an echelon basis
    of J modulo m^N times the two generators of the next factor spans that
    product modulo m^N.
    """
    n = sum(sum(t.exponents) for t in product.towers) + 1

    def times(p, q):
        out = {}
        for (a, b), c in p.items():
            for (d, e), f in q.items():
                if a + b + d + e < n:
                    out[a + d, b + e] = out.get((a + d, b + e), 0) + c * f
        return out

    def echelon(rows):
        pivots = {}  # lowest-degree monomial of a row -> that row, scaled to 1 there
        for row in rows:
            row = {m: c for m, c in row.items() if c}
            while row:
                lead = min(row, key=lambda m: (m[0] + m[1], m))
                c = row[lead]
                if lead not in pivots:
                    pivots[lead] = {m: v / c for m, v in row.items()}
                    break
                for m, v in pivots[lead].items():
                    w = row.get(m, 0) - c * v
                    if w:
                        row[m] = w
                    else:
                        row.pop(m, None)
        return list(pivots.values())

    basis = [{(a, b): Fraction(1)} for a in range(n) for b in range(n - a)]
    for tower in product.towers:
        curve = {(1, 0): Fraction(1), **{(0, d): c for d, c in tower.tangent}}
        for k in tower.exponents:
            gens = [curve, {(0, k): Fraction(1)}]
            if tower.branch == "y":
                gens = [{(b, a): c for (a, b), c in g.items()} for g in gens]
            basis = echelon([times(v, g) for v in basis for g in gens])
    return n * (n + 1) // 2 - len(basis)


def needs_the_diagram(product):
    """No staircase and no single- or two-tower closed form gives the length."""
    towers = product.towers
    cross_pair = (
        len(towers) == 2 and product.all_complete and towers[0].branch != towers[1].branch
    )
    return not product.all_monomial and len(towers) > 1 and not cross_pair


class TestHoskinDeligne:
    def test_matches_linear_algebra(self):
        # small tangent products: two or three draws, exponent sum <= 10
        rng = random.Random(37)
        products = []
        while len(products) < 48:
            factors = []
            for _ in range(rng.randint(2, 3)):
                branch = rng.choice("xy")
                exps = sorted(rng.sample(range(1, 5), rng.randint(1, 2)))
                degree = rng.randint(0, exps[-1] - 1)
                tangent = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(degree)]
                factors.extend(Factor(branch, tangent, e) for e in exps)
            if sum(f.exponent for f in factors) > 10:
                continue
            try:
                products.append(TowerProduct.from_factors(factors))
            except UnsupportedError:
                continue
        assert sum(needs_the_diagram(p) for p in products) >= 20
        for product in products:
            expected = linear_algebra_length(product)
            assert library_length(product) == expected
            assert noncomplete_product_nu(product).length == expected

    def test_linear_algebra_reference_on_monomial_products(self):
        rng = random.Random(41)
        products = [random_product(rng, max_height=4) for _ in range(40)]
        monomial = [p for p in products if p.all_monomial]
        assert len(monomial) >= 10
        for product in monomial:
            assert linear_algebra_length(product) == product.expand().colength()


class TestTowerTimesMPower:
    def test_first_example(self):
        assert tower_times_m_power(make_tower("x", (), (2,)), 1) == (4, 5)

    def test_two_factor_tower(self):
        t = make_tower("x", (), (2, 3))
        length, nu = tower_times_m_power(t, 2)
        assert length == tower_length(t) + (2 * 3 + 2 * 2 * 2) // 2
        assert nu == tower_nu(t) + 2 * 2 + 2 + 2

    def test_degenerate_power(self):
        t = make_tower("x", (), (2, 5))
        assert tower_times_m_power(t, 0) == (tower_length(t), tower_nu(t))

    def test_requires_gap_at_one(self):
        with pytest.raises(DomainError):
            tower_times_m_power(make_tower("x", (), (1, 2)), 1)

    def test_requires_monomial(self):
        with pytest.raises(UnsupportedError):
            tower_times_m_power(make_tower("x", (1,), (2,)), 1)

    def test_engine_concurrence_small(self):
        t = make_tower("x", (), (2,))
        product = TowerProduct.from_factors(
            [Factor("x", (), 2), Factor(None, (), 1), Factor(None, (), 1)]
        )
        assert noncomplete_product_nu(product).nu == tower_times_m_power(t, 2)[1]


class TestCrossBranchAlignment:
    def test_aligned_pair_rejected_at_product_level(self):
        kx = complete("x", 2, tangent=(Fraction(1, 2),))
        ky = complete("y", 2, tangent=(2,))
        with pytest.raises(UnsupportedError):
            TowerProduct([kx, ky])

    def test_unaligned_pair_accepted(self):
        kx = complete("x", 2, tangent=(Fraction(1, 2),))
        ky = complete("y", 2, tangent=(3,))
        assert product_nu(TowerProduct([kx, ky])).nu == two_tower_nu(kx, ky)

    def test_aligned_at_reciprocal_coefficient(self):
        # c_x = 1/c for the y coefficient c = -3/2, among other x towers
        kx = complete("x", 3, tangent=(Fraction(-2, 3), 1))
        others = [complete("x", 2, tangent=(5,)), complete("x", 2)]
        ky = complete("y", 3, tangent=(Fraction(-3, 2),))
        with pytest.raises(UnsupportedError, match="aligned tangent directions"):
            TowerProduct([*others, kx, ky])

    def test_zero_linear_coefficient_never_aligned(self):
        # a y tower with c = 0 has no reciprocal; c_x * 0 is never 1
        kx = complete("x", 3, tangent=(0, 1))
        ky = complete("y", 3, tangent=(0, 2))
        assert len(TowerProduct([kx, ky, complete("x", 2, tangent=(7,))]).towers) == 3

    def test_monomial_cross_pair_never_aligned(self):
        TowerProduct([complete("x", 3), complete("y", 4)])


class TestDivisorDegreeChecks:
    def test_random_products_with_tangents(self):
        # build_dynkin raises if any curve's pulled-back divisor degree is
        # positive, or if the zero/negative split disagrees with survival
        rng = random.Random(31)
        built = 0
        while built < 150:
            factors = []
            for _ in range(rng.randint(1, 3)):
                branch = rng.choice("xy")
                exps = sorted(rng.sample(range(1, 8), rng.randint(1, 3)))
                degree = rng.randint(0, exps[-1] - 1)
                tangent = tuple(
                    Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                    for _ in range(degree)
                )
                factors.extend(Factor(branch, tangent, e) for e in exps)
            try:
                product = TowerProduct.from_factors(factors)
            except UnsupportedError:
                continue
            built += 1
            summary = noncomplete_product_nu(product)
            diagram = summary.diagram
            nodes = diagram.nodes
            adjacency = [0] * len(nodes)
            for a, b in diagram.edges:
                adjacency[a] += nodes[b].multiplicity
                adjacency[b] += nodes[a].multiplicity
            for node in nodes:
                degree_on_curve = (
                    node.multiplicity * node.self_intersection + adjacency[node.index]
                )
                assert degree_on_curve <= 0
                assert (degree_on_curve < 0) == node.surviving

    def test_a_wrong_multiplicity_names_its_curve(self):
        # the check reads build_dynkin's columns; raising the level-3 curve's
        # multiplicity by 1 lifts its parent's divisor degree to 0, a survivor's
        diagram = towers.build_dynkin(TowerProduct([complete("x", 3), complete("y", 2)]))
        levels, self_intersection, multiplicity, surviving = map(list, (
            diagram.levels, diagram.self_intersection, diagram.multiplicity, diagram.surviving
        ))
        towers._check_contraction_degrees(
            diagram.parents, levels, self_intersection, multiplicity, surviving
        )
        multiplicity[-1] += 1
        with pytest.raises(AssertionError, match=(
            r"divisor degree 0 on the level-2 curve contradicts multiplicity 7 / survival True"
        )):
            towers._check_contraction_degrees(
                diagram.parents, levels, self_intersection, multiplicity, surviving
            )

    def test_a_valid_diagram_passes_as_tuples_or_lists(self):
        # a diagram holds its columns as tuples, build_dynkin passes lists
        for product in [TowerProduct([make_tower("x", (1,), [1, 2, 3])]),
                        *reference_products()[:40]]:
            diagram = build_dynkin(product)
            columns = (diagram.parents, diagram.levels, diagram.self_intersection,
                       diagram.multiplicity, diagram.surviving)
            assert towers._check_contraction_degrees(*columns) is None
            assert towers._check_contraction_degrees(*map(list, columns)) is None

    def test_a_wrong_tuple_multiplicity_names_its_curve(self):
        # raising the root's multiplicity by 1 lifts the level-2 curve's
        # divisor degree to 0, a survivor's
        diagram = build_dynkin(TowerProduct([make_tower("x", (1,), [1, 2, 3])]))
        multiplicity = (diagram.multiplicity[0] + 1, *diagram.multiplicity[1:])
        with pytest.raises(AssertionError, match=(
            r"divisor degree 0 on the level-2 curve contradicts multiplicity 5 / survival True"
        )):
            towers._check_contraction_degrees(diagram.parents, diagram.levels,
                                              diagram.self_intersection, multiplicity,
                                              diagram.surviving)


@st.composite
def powered_towers(draw, tangents):
    """(tower, d) pairs: up to three towers of exponent multisets in 1..5,
    each raised to d in 1..3, with tangents of degree below the height if
    asked."""
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        exps = sorted(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
        degree = draw(st.integers(0, exps[-1] - 1)) if tangents else 0
        coefficients = st.fractions(-2, 2, max_denominator=2)
        tangent = [draw(coefficients) for _ in range(degree)]
        tower = make_tower(draw(st.sampled_from("xy")), tangent, exps)
        pairs.append((tower, draw(st.integers(1, 3))))
    return pairs


class TestRepeatedFactors:
    """Powers and extra m factors are repeated factors: the diagram engine
    answers them as multisets of exponents."""

    @given(powered_towers(tangents=False), st.integers(0, 5))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_monomial_products_match_the_polygon_engine(self, pairs, k):
        product = TowerProduct.from_factors(
            [tower for tower, d in pairs for _ in range(d)] + [Factor(None, (), 1)] * k
        )
        ideal = MAXIMAL_IDEAL**k
        for tower, d in pairs:
            ideal *= tower.ideal() ** d
        assert product.expand() == ideal
        diagram = build_dynkin(product)
        assert diagram.nu() == nu_monomial(ideal).nu
        assert diagram.length() == ideal.colength()

    @given(powered_towers(tangents=True), st.integers(2, 4))
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_powers_scale_nu(self, pairs, d):
        try:
            product = TowerProduct.from_factors([tower for tower, e in pairs for _ in range(e)])
        except UnsupportedError:  # aligned cross directions
            assume(False)
        assume(not product.all_monomial)
        power = TowerProduct.from_factors(product.towers * d)
        assert build_dynkin(power).nu() == d * build_dynkin(product).nu()
        assert build_dynkin(power).length() == pairwise_meet_length(power)
