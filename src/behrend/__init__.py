"""Exact invariants of fat points in the affine plane.

Monomial ideals of finite colength in C[x, y]: lengths, Ferrers staircases,
Newton polygons, integral closures and normality, the unique factorization
of normal ideals into n(a, b) atoms, toric fans of blowups, towers of
curvilinear ideals with their exceptional-curve diagrams, and above all the
Behrend number, computed by two independent engines that verify each other.

The public names resolve on first access (PEP 562), so a process imports
only the modules whose names it uses: `behrend nu "(x^2,y^3)"` never loads
`verify`, `render` or `towers`.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "errors": ("BehrendError", "DomainError", "ParseError", "UnsupportedError"),
    "ideals": (
        "MonomialIdeal", "FerrersDiagram", "MAXIMAL_IDEAL", "UNIT_IDEAL",
        "minimal_generators", "complete_intersection",
    ),
    "newton": (
        "Edge", "NewtonPolygon", "newton_polygon", "closure_power",
        "integral_closure", "is_normal",
    ),
    "normal_factor": ("NabFactor", "Fan", "Cone", "n_ab", "factor_normal", "fan_of",
                      "component_count"),
    "nu": ("BehrendReport", "ComponentRecord", "nu_monomial"),
    "towers": (
        "Tower", "TowerProduct", "TowerNuSummary", "Factor", "DynkinDiagram",
        "DynkinNode", "make_tower", "tower_length", "build_dynkin",
        "noncomplete_product_nu",
    ),
    "expr": ("parse", "ideal_text", "factors_text", "tower_text", "product_text"),
    "verify": (
        "staircase_conditions", "nu_power_rule", "nu_lci", "tower_nu", "two_tower_nu",
        "two_tower_length", "product_nu", "tower_times_m_power", "Bounds",
        "CheckResult", "run_all",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
