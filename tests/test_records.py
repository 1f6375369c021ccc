"""Every record type of the package is an immutable value: it refuses
attribute assignment, survives copy, deepcopy and pickle as an equal value
of the same type, and keeps its hash.  The three records with invariants,
NabFactor, FerrersDiagram and TowerProduct, check them on construction."""

import copy
import pickle
import pkgutil
from fractions import Fraction
from importlib import import_module

import pytest

import behrend
from behrend import (
    CheckResult,
    DomainError,
    Factor,
    FerrersDiagram,
    MonomialIdeal,
    NabFactor,
    TowerProduct,
    UnsupportedError,
    fan_of,
    factor_normal,
    make_tower,
    n_ab,
    newton_polygon,
    noncomplete_product_nu,
    nu_monomial,
    parse,
)
from behrend.expr import Token
from behrend.verify import PRESETS

IDEAL = MonomialIdeal([(4, 0), (3, 1), (1, 2), (0, 5)])
NORMAL = n_ab(4, 6) * n_ab(1, 2)
PRODUCT = parse(
    "tower(x; g = 1/2*y; exps = [1, 3]) * tower(x; g = -y; exps = [2])"
).require_towers()
SUMMARY = noncomplete_product_nu(PRODUCT)


def instances():
    report = nu_monomial(IDEAL)
    fan = fan_of(NORMAL)
    return [
        Token("int", "7", 3),
        parse("tower(x; g = 0; exps = [1, 2]) * m"),
        IDEAL.ferrers(),
        newton_polygon(IDEAL).edges[0],
        newton_polygon(IDEAL),
        factor_normal(NORMAL)[0],
        fan.cones[0],
        fan,
        report.components[0],
        report,
        make_tower("y", (Fraction(2, 3), 0, 1), (2, 4, 5)),
        Factor("x", (Fraction(-1, 2),), 2),
        PRODUCT,
        SUMMARY.diagram.nodes[1],
        SUMMARY.diagram,
        SUMMARY,
        CheckResult.compare("nu/example", "instance", 3, 3),
        PRESETS["quick"],
    ]


def record_types():
    """Every NamedTuple class that a behrend module defines, bases excluded.
    The modules are listed from the package directory, so a module this file
    does not import is still scanned."""
    modules = [
        import_module(f"behrend.{info.name}")
        for info in pkgutil.iter_modules(behrend.__path__)
        if info.name != "__main__"
    ]
    return {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type)
        and issubclass(value, tuple)
        and value.__module__ == module.__name__
        and not value.__name__.startswith("_")
    }


def test_every_record_type_has_an_instance():
    assert {type(record) for record in instances()} == record_types()
    assert len(record_types()) == 18


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
}


@pytest.mark.parametrize("record", instances(), ids=lambda record: type(record).__name__)
def test_record_is_an_immutable_value(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    for how, round_trip in ROUND_TRIPS.items():
        clone = round_trip(record)
        assert type(clone) is type(record), how
        assert clone == record and hash(clone) == hash(record), how


def test_nab_factor_checks_its_data():
    with pytest.raises(DomainError, match="coprime"):
        NabFactor(2, 4, 1)
    with pytest.raises(DomainError, match="positive"):
        NabFactor(0, 1, 1)
    assert NabFactor(2, 3, 1).ray == (3, 2)


def test_ferrers_diagram_checks_its_heights():
    with pytest.raises(DomainError, match="positive"):
        FerrersDiagram((2, 0))
    assert FerrersDiagram(()).column_heights == ()


def test_make_and_replace_check_the_invariants():
    # NamedTuple's own _make skips __new__, and _replace goes through _make
    with pytest.raises(DomainError, match="coprime"):
        NabFactor(2, 3, 1)._replace(alpha=6)
    with pytest.raises(DomainError, match="positive"):
        NabFactor._make((0, 0, 0))
    with pytest.raises(DomainError, match="decreasing"):
        FerrersDiagram._make(((1, 3),))
    with pytest.raises(DomainError, match="positive"):
        FerrersDiagram((2, 1))._replace(column_heights=(2, 0))
    twin = PRODUCT.towers[0]._replace(exponents=(2, 3))
    with pytest.raises(DomainError, match="sharing branch and tangent"):
        PRODUCT._replace(towers=(*PRODUCT.towers, twin))
    with pytest.raises(DomainError, match="sharing branch and tangent"):
        TowerProduct._make(((twin, PRODUCT.towers[0]),))
    aligned = (make_tower("x", (2,), (2,)), make_tower("y", (Fraction(1, 2),), (2,)))
    with pytest.raises(UnsupportedError, match="aligned"):
        TowerProduct._make((aligned,))


@pytest.mark.parametrize(
    "record,change",
    [
        (NabFactor(2, 3, 1), {"alpha": 4}),
        (FerrersDiagram((3, 1)), {"column_heights": (2, 2)}),
        (PRODUCT, {"towers": PRODUCT.towers[:1]}),
    ],
)
def test_valid_replace_and_make_keep_the_type(record, change):
    changed = record._replace(**change)
    assert type(changed) is type(record)
    assert changed == tuple({**record._asdict(), **change}.values())
    assert type(record)._make(record) == record
    for how, round_trip in ROUND_TRIPS.items():
        assert round_trip(changed) == changed, how
