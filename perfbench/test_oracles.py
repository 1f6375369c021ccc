"""The benchmark's own checks agree with the program on small random inputs.

A wrong oracle would report a program fault that is not there, so each
formula in oracles.py is pinned here to the program, and the workload checks
are shown to accept the program's outputs and to reject a wrong value.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402
from behrend import (  # noqa: E402
    Factor,
    MonomialIdeal,
    TowerProduct,
    build_dynkin,
    factor_normal,
    fan_of,
    integral_closure,
    make_tower,
    n_ab,
    newton_polygon,
    noncomplete_product_nu,
    nu_monomial,
    product_nu,
    run_all,
    tower_length,
)
from behrend.verify import PRESETS, random_ideal  # noqa: E402

SEEDS = range(60)


def ideals(seed, box=9):
    rng = random.Random(seed)
    ideal = random_ideal(rng, box)
    return list(ideal.generators), ideal


@pytest.mark.parametrize("seed", SEEDS)
def test_staircase_forms(seed):
    points, ideal = ideals(seed)
    assert O.staircase_length(points) == ideal.colength()
    assert O.column_heights(points) == list(ideal.ferrers().column_heights)
    assert O.minimal(points + [(9, 9)]) == list(ideal.generators)


@pytest.mark.parametrize("seed", SEEDS)
def test_polygon_forms(seed):
    points, ideal = ideals(seed)
    assert O.pick_count(points) == integral_closure(ideal).colength()
    assert O.lower_hull(points) == list(reversed(newton_polygon(ideal).vertices))
    closure = list(integral_closure(ideal).generators)
    factors = [(f.alpha, f.beta, f.delta) for f in factor_normal(integral_closure(ideal))]
    assert O.hull_edges(closure) == factors
    fan = fan_of(integral_closure(ideal))
    assert O.fan_rays(closure) == list(fan.rays)
    assert [O.cone_index(*c.rays) for c in fan.cones] == [c.index for c in fan.cones]


@pytest.mark.parametrize("seed", SEEDS[:20])
def test_products_and_powers(seed):
    (p1, i1), (p2, i2) = ideals(seed, 6), ideals(seed + 1000, 6)
    assert O.product(p1, p2) == list((i1 * i2).generators)
    d = seed % 4 + 1
    assert O.power(p1, d) == list((i1**d).generators)
    assert d * nu_monomial(i1).nu == nu_monomial(i1**d).nu


@pytest.mark.parametrize("k", range(1, 16))
def test_roadmap_family_nu(k):
    points = O.roadmap_family(6 * k)
    assert O.roadmap_family_nu(6 * k) == nu_monomial(MonomialIdeal(points)).nu


@pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (4, 6), (7, 5), (12, 8)])
def test_closed_forms(a, b):
    assert nu_monomial(n_ab(a, b)).nu == O.lcm(a, b)
    assert nu_monomial(MonomialIdeal([(a, 0), (0, b)])).nu == a * b


@pytest.mark.parametrize("seed", SEEDS[:30])
def test_single_towers(seed):
    rng = random.Random(seed)
    height = rng.randint(2, 9)
    exps = W._sparse(rng, height, rng.random())
    branch = rng.choice("xy")
    monomial = make_tower(branch, (), exps)
    assert sorted(O.tower_points(branch, exps)) == list(monomial.ideal().generators)
    assert O.tower_nu(exps) == nu_monomial(monomial.ideal()).nu
    curved = make_tower(branch, [Fraction(rng.randint(1, 5))], exps)
    assert O.tower_nu(exps) == noncomplete_product_nu(TowerProduct([curved])).nu
    assert O.staircase_length(O.tower_points(branch, exps)) == tower_length(curved)


@pytest.mark.parametrize("h1", range(2, 8))
def test_two_tower_form(h1):
    for h2 in range(2, 8):
        cross = [make_tower("x", (), range(1, h1 + 1)), make_tower("y", (), range(1, h2 + 1))]
        assert O.two_tower_nu(h1, h2, 1) == product_nu(TowerProduct(cross)).nu
        for depth in range(1, min(h1, h2)):
            pair = [
                make_tower("x", (0,) * (depth - 1) + (1,), range(1, h1 + 1)),
                make_tower("x", (0,) * (depth - 1) + (2,), range(1, h2 + 1)),
            ]
            assert O.two_tower_nu(h1, h2, depth) == product_nu(TowerProduct(pair)).nu


@pytest.mark.parametrize("seed", SEEDS)
def test_forked_towers(seed):
    rng = random.Random(seed)
    count = rng.randint(1, 4)
    heights = [rng.randint(2, 8) for _ in range(count)]
    complete = rng.random() < 0.5
    sets = [list(range(1, h + 1)) if complete else W._sparse(rng, h, rng.random())
            for h in heights]
    tangents = W._forked_tangents(rng, count, heights)
    product = TowerProduct.from_factors(
        Factor("x", tuple(t), e) for t, s in zip(tangents, sets) for e in s)
    diagram = build_dynkin(product)
    assert O.forked_nu(sets) == diagram.nu()
    if complete:
        assert O.forked_complete_nu(heights) == diagram.nu()
    assert O.is_tree(len(diagram.nodes), diagram.edges)
    assert not O.is_tree(len(diagram.nodes), diagram.edges[1:])


@pytest.mark.parametrize("builder", sorted(W.BUILDERS))
def test_workload_checks_accept_the_program(builder, capsys):
    from behrend import cli

    queries = W.BUILDERS[builder](3)
    assert len(queries) == W.QUERIES
    for query in queries:
        if not query.svg:
            assert cli.main(list(query.argv)) == 0
            assert query.check(capsys.readouterr().out, None) == [], query.argv


def run(capsys, *argv):
    from behrend import cli

    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_workload_checks_reject_a_wrong_value(fmt, capsys):
    ideal, other = [(4, 0), (1, 2), (0, 5)], [(4, 0), (2, 1), (0, 5)]
    text = W.gens_text(ideal)
    tower = W.tower_text("y", [], [2, 3, 5])
    towers = W.product_text([("x", [1], range(1, 4)), ("x", [2], range(1, 3))])
    fmt = ("--format", fmt)
    rejected = [
        (W.check_length(O.staircase_length(ideal) + 1), run(capsys, "length", text, *fmt)),
        (W.check_nu(O.roadmap_family_nu(6) + 1), run(capsys, "nu", W.gens_text(O.roadmap_family(6)), *fmt)),
        (W.check_normal(O.staircase_length(ideal) != O.pick_count(ideal)),
         run(capsys, "normal?", text, *fmt)),
        (W.check_normalize(other), run(capsys, "normalize", text, *fmt)),
        (W.check_factor(O.tower_points("y", [2, 3, 6])), run(capsys, "factor", tower, *fmt)),
        (W.check_fan(O.tower_points("y", [2, 3, 6])), run(capsys, "fan", tower, *fmt)),
        (W.check_ferrers(other), run(capsys, "ferrers", text, *fmt)),
        (W.check_dynkin(O.forked_complete_nu([3, 2]) + 1), run(capsys, "dynkin", towers, *fmt)),
        (W.check_nu(O.forked_complete_nu([3, 2]) + 1), run(capsys, "nu", towers, *fmt)),
    ]
    for check, out in rejected:
        assert check(out, None) != [], out[:80]
    assert W.check_dynkin(O.forked_complete_nu([3, 2]))(run(capsys, "dynkin", towers, *fmt), None) == []


def test_run_all_counts_one_known_failure():
    results = run_all(5, PRESETS["quick"])
    operations, failed, problems = W.check_run_all(results)
    assert (failed, problems) == (1, [])
    assert operations == len({r.name for r in results}) + 1
    broken = [r if r.name != "nu/pair-agreement" else r.__class__(
        r.name, r.instance, r.expected, r.actual + 1, "pass") for r in results]
    assert W.check_run_all(broken)[1] == 2
