"""Exact invariants of fat points in the affine plane.

Monomial ideals of finite colength in C[x, y]: lengths, Ferrers staircases,
Newton polygons, integral closures and normality, the unique factorization
of normal ideals into n(a, b) atoms, toric fans of blowups, towers of
curvilinear ideals with their exceptional-curve diagrams, and above all the
Behrend number, computed by two independent engines that verify each other.
"""

from .errors import BehrendError, DomainError, ParseError, UnsupportedError
from .expr import factors_text, ideal_text, parse, product_text, tower_text
from .ideals import (
    MAXIMAL_IDEAL,
    UNIT_IDEAL,
    FerrersDiagram,
    MonomialIdeal,
    complete_intersection,
    minimal_generators,
)
from .newton import (
    Edge,
    NewtonPolygon,
    closure_power,
    integral_closure,
    is_normal,
    newton_polygon,
)
from .normal_factor import (
    Cone,
    Fan,
    NabFactor,
    component_count,
    factor_normal,
    fan_of,
    n_ab,
)
from .nu import BehrendReport, ComponentRecord, nu_monomial
from .towers import (
    DynkinDiagram,
    DynkinNode,
    Factor,
    Tower,
    TowerNuSummary,
    TowerProduct,
    build_dynkin,
    make_tower,
    noncomplete_product_nu,
    tower_length,
)
from .verify import (
    Bounds,
    CheckResult,
    nu_lci,
    nu_power_rule,
    product_nu,
    run_all,
    staircase_conditions,
    tower_nu,
    tower_times_m_power,
    two_tower_length,
    two_tower_nu,
)

__version__ = "0.1.0"

__all__ = [
    "BehrendError",
    "DomainError",
    "ParseError",
    "UnsupportedError",
    "MonomialIdeal",
    "FerrersDiagram",
    "MAXIMAL_IDEAL",
    "UNIT_IDEAL",
    "minimal_generators",
    "complete_intersection",
    "Edge",
    "NewtonPolygon",
    "newton_polygon",
    "closure_power",
    "integral_closure",
    "is_normal",
    "staircase_conditions",
    "NabFactor",
    "Fan",
    "Cone",
    "n_ab",
    "factor_normal",
    "fan_of",
    "component_count",
    "BehrendReport",
    "ComponentRecord",
    "nu_monomial",
    "nu_power_rule",
    "nu_lci",
    "Tower",
    "TowerProduct",
    "TowerNuSummary",
    "Factor",
    "DynkinDiagram",
    "DynkinNode",
    "make_tower",
    "tower_length",
    "tower_nu",
    "two_tower_nu",
    "two_tower_length",
    "build_dynkin",
    "product_nu",
    "noncomplete_product_nu",
    "tower_times_m_power",
    "parse",
    "ideal_text",
    "factors_text",
    "tower_text",
    "product_text",
    "Bounds",
    "CheckResult",
    "run_all",
]
