import random

import pytest

from behrend import DomainError
from behrend.verify import (
    PRESETS,
    check_length_forms,
    check_closure,
    check_pair_agreement,
    random_ideal,
    random_monomial_tower_product,
    random_normal_ideal,
    run_all,
    summarize,
)


def test_quick_run_has_no_failures():
    results = run_all(seed=0, bounds=PRESETS["quick"])
    counts = summarize(results)
    assert counts["fail"] == 0
    assert counts["pass"] > 300


def test_inconclusive_only_from_definitional_closure():
    results = run_all(seed=0, bounds=PRESETS["quick"])
    for r in results:
        if r.status == "inconclusive":
            assert r.name == "closure/definitional"


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
        product = random_monomial_tower_product(rng, 7)
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


@pytest.mark.parametrize("p_max", [0, -1])
def test_closure_check_rejects_nonpositive_p_max(p_max):
    with pytest.raises(DomainError, match="p_max must be positive"):
        check_closure(random.Random(0), PRESETS["quick"], p_max)


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
