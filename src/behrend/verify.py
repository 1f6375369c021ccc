"""Brute-force and cross-engine verification harness.

Every closed form in the package is checked here against an independent
route: staircase counts against length formulas, the Newton-polygon Behrend
number against the tower diagram engine, the polygon integral closure
against the definitional power membership test.  The library computes each
quantity once; the second routes live here, together with the closed forms
and oracles that only these checks call.  The families, in table order:

  length/complete-tower      tower_length against the staircase count
  length/cross-pair          two_tower_length against the staircase count
  length/equal-cross-closed-form
                             h(h+1)(h+2)/3 + h^2 against the same count
  length/pick                Pick's count of the polygon (closure_colength)
                             against the staircase of the closure
  nu/dual-engine             the diagram engine against the polygon engine
                             on random monomial tower products
  nu/contraction-degrees     the diagram engine against pairwise_meet_nu
                             (meet levels of factor pairs), for the products
                             no closed form covers
  length/hoskin-deligne      the diagram's length on every product drawn for
                             the diagram engine, against the staircase of
                             the monomial expansion, tower_length,
                             two_tower_length for a complete cross pair, or
                             else pairwise_meet_length (mixed multiplicities)
  nu/power-rule              d * nu(I) (nu_power_rule) against nu(I^d)
  nu/equal-degree-pair       gcd(h, k) (h + k) against nu_monomial
  nu/normalized-intersection lcm(a, b) against nu_monomial of n(a, b)
  nu/tower-min-sum           tower_nu against sum_{k,l} min(i_k, i_l)
  nu/complete-intersection   nu_lci against nu_monomial
  nu/diagram-consistency     the diagram engine against the polygon engine,
                             the single-tower form (by the shear onto the
                             monomial model) or two_tower_nu, on products
                             with rational tangents and on complete
                             non-monomial pairs, drawn so that the two-tower
                             route runs on every seed
  nu/pair-agreement          product_nu against two_tower_nu
  length/m-power, nu/m-power tower_times_m_power against the staircase count
                             and nu_monomial of the expansion K * m^n
  closure/definitional       integral_closure against integral_closure_oracle
  closure/normal-fixed-point integral_closure against the normal ideal itself
  closure/normal-staircase-conditions
                             staircase_conditions against normality
  closure/normal-routes      is_normal (Pick's count) against the closure
  nu/normal-product, factor/normal-product, closure/normal-product
                             the polygon route of expr.Elaborated (nu_normal,
                             polygon_factors, polygon_closure of the summed
                             polygon) against nu_monomial, factor_normal and
                             integral_closure of the multiplied-out product,
                             on random products of powers of normal atoms

BLOCKS is that table.  A block is one family's instances, fixed or drawn
from one seeded generator, and the check that returns one instance's
results.  The walker draws a block's instances, then checks each distinct
instance once through a cache it makes for the block, so a repeated draw
reports its first results again.  Nothing is kept from one call to the next.
Every check is decisive ("pass" or "fail"): the definitional closure
oracle's bound p <= min(a0, b0) is proven (see integral_closure_oracle).
The oracle walks the staircase of the box [0, a0] x [0, b0], testing each
step against up to min(a0, b0) powers of I, so it is a test oracle only;
the library's closure walks the polygon.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from fractions import Fraction
from functools import cache, partial
from itertools import combinations, combinations_with_replacement
from math import gcd
from operator import lt
from typing import NamedTuple

from .errors import DomainError, UnsupportedError
from .expr import ideal_text, parse, product_text, tower_text
from .ideals import MAXIMAL_IDEAL, MonomialIdeal, complete_intersection
from .newton import closure_colength, integral_closure, is_normal, polygon_closure
from .normal_factor import factor_normal, n_ab, polygon_factors
from .nu import nu_monomial, nu_normal
from .towers import (
    BRANCHES,
    Tower,
    TowerNuSummary,
    TowerProduct,
    difference_order,
    make_tower,
    noncomplete_product_nu,
    tower_length,
)


class CheckResult(NamedTuple):
    name: str
    instance: str
    expected: object
    actual: object
    status: str  # pass | fail

    @staticmethod
    def compare(name: str, instance: str, expected, actual) -> "CheckResult":
        status = "pass" if expected == actual else "fail"
        return CheckResult(name, instance, expected, actual, status)


# Sizes shared by every preset.
TOWER_EXPONENT_MAX = 7
POWER_MAX = 4
STAIRCASE_BOX = 10
COMPLETE_TOWER_MAX = 8
CROSS_HEIGHT_MAX = 6
RANDOM_BOX = 8


class Bounds(NamedTuple):
    """Instance counts and grid sizes on which the presets differ."""

    name: str
    tower_products: int = 500
    tangent_products: int = 150
    power_ideals: int = 200
    closure_ideals: int = 200
    normal_ideals: int = 200
    pair_height_max: int = 8
    nab_max: int = 12
    balanced_pair_max: int = 10
    normal_products: int = 20


PRESETS = {
    "default": Bounds(name="default"),
    "quick": Bounds(
        name="quick",
        tower_products=60,
        tangent_products=25,
        power_ideals=30,
        closure_ideals=30,
        normal_ideals=30,
        pair_height_max=5,
        nab_max=6,
        balanced_pair_max=6,
        normal_products=4,
    ),
}


# -- second routes: closed forms and oracles that only the checks call -------


def nu_lci(a: int, b: int) -> int:
    """nu of the complete intersection (x^a, y^b): equals the length a*b.

    nu/complete-intersection compares it with the edge formula.
    """
    if a < 1 or b < 1:
        raise DomainError("exponents must be positive")
    return a * b


def nu_power_rule(ideal: MonomialIdeal, d: int) -> int:
    """nu(I^d) = d * nu(I); nu/power-rule compares it with the edge formula
    on I^d."""
    if d < 1:
        raise DomainError("the power rule needs d >= 1")
    return d * nu_monomial(ideal).nu


def tower_nu(tower: Tower) -> int:
    """Behrend number: length + sum_{j<s} i_j (s - j).

    This equals sum_{k,l} min(i_k, i_l); nu/tower-min-sum checks the
    identity.  Both count each curve once per factor, so they hold for
    distinct exponents only: nu of a power I^d is d * nu(I).
    """
    exps = tower.exponents
    if not all(map(lt, exps, exps[1:])):
        raise UnsupportedError("the tower closed form needs distinct exponents")
    s = len(exps)
    return tower_length(tower) + sum(exps[j] * (s - 1 - j) for j in range(s - 1))


def _require_complete(tower: Tower, what: str):
    if not tower.is_complete:
        raise UnsupportedError(f"{what} needs complete towers; use noncomplete_product_nu")


def two_tower_nu(k1: Tower, k2: Tower) -> int:
    """Closed form for the Behrend number of a product of two complete towers.

    With d the tangent-agreement depth (d = 1 for distinct-direction
    cross-branch pairs, d = o(g1 - g2) for same-branch pairs, d <= min of the
    heights), the blowup tree is a shared chain of d nodes forking into two
    arms, and summing the ancestor-level contributions gives

        nu = nu1 + nu2 + (h1 + h2 - 2d) * d(d+1)/2 + 2d (h1 - d)(h2 - d).

    For d = 1 this is nu1 + nu2 + 2 h1 h2 - h1 - h2.
    """
    _require_complete(k1, "the two-tower closed form")
    _require_complete(k2, "the two-tower closed form")
    h1, h2 = k1.height, k2.height
    if k1.branch != k2.branch:
        if k1.linear_coefficient() * k2.linear_coefficient() == 1:
            raise UnsupportedError(
                "the tangent directions coincide; after a linear change of "
                "variables this is a same-branch pair"
            )
        d = 1
    else:
        d = difference_order(k1, k2)
        if d is None:
            raise UnsupportedError("identical towers form a power; use nu_power_rule")
        if d > min(h1, h2):
            raise UnsupportedError(
                "tangents agree beyond the smaller height; no two-tower closed "
                "form applies, use the diagram engine"
            )
    nu1, nu2 = tower_nu(k1), tower_nu(k2)
    return nu1 + nu2 + (h1 + h2 - 2 * d) * d * (d + 1) // 2 + 2 * d * (h1 - d) * (h2 - d)


def two_tower_length(kx: Tower, ky: Tower) -> int:
    """Length of a product of two cross-branch complete towers: l1 + l2 + hx*hy."""
    if not (kx.is_complete and ky.is_complete):
        raise UnsupportedError("the two-tower length form needs complete towers")
    if kx.branch == ky.branch:
        raise UnsupportedError("the length closed form needs cross-branch towers")
    if kx.linear_coefficient() * ky.linear_coefficient() == 1:
        raise UnsupportedError("the tangent directions coincide")
    return tower_length(kx) + tower_length(ky) + kx.height * ky.height


def product_nu(product: TowerProduct) -> TowerNuSummary:
    """Behrend number of a product of complete towers.

    nu/pair-agreement compares it with the two-tower closed form.
    """
    for t in product.towers:
        _require_complete(t, "product_nu")
    return noncomplete_product_nu(product)


def tower_times_m_power(tower: Tower, n: int) -> tuple[int, int]:
    """Length and Behrend number of K * m^n for a monomial tower K with i_1 > 1.

        length(K m^n) = length(K) + (n(n+1) + 2 n s) / 2
        nu(K m^n)     = nu(K) + s n + n + s

    n = 0 degenerates to (length, nu) of the tower itself.  length/m-power
    and nu/m-power compare both values with the staircase count and the
    edge formula on the expanded monomial ideal.
    """
    if not tower.is_monomial:
        raise UnsupportedError("the m-power closed form needs a monomial tower")
    if tower.exponents[0] == 1:
        raise DomainError("the m-power closed form needs i_1 > 1")
    if n < 0:
        raise DomainError("m-power must be nonnegative")
    s = len(tower.exponents)
    length = tower_length(tower) + (n * (n + 1) + 2 * n * s) // 2
    nu = tower_nu(tower) + s * n + n + s if n > 0 else tower_nu(tower)
    return length, nu


def integral_closure_oracle(ideal: MonomialIdeal) -> MonomialIdeal:
    """Definitional closure: accept x^m iff (x^m)^p lies in I^p for some
    p <= min(a0, b0), or p = 1 for the unit ideal.

    Test oracle only, independent of the polygon route; the bound makes it
    decisive.  A closure member m that dominates a vertex needs p = 1.
    Otherwise m lies above an edge from vertex u to vertex v, of width
    w = u_x - v_x <= a0.  With the integer s = u_x - m_x, w m dominates
    (w - s) u + s v, a sum of w generators, so (x^m)^w lies in I^w.  The
    same argument on the edge to the left of m gives that edge's height,
    at most b0; so some p <= min(a0, b0) certifies m.
    """
    ideal._require_finite()
    bound = max(1, min(ideal.x_power, ideal.y_power))
    powers = [None, ideal]
    for _ in range(bound - 1):
        powers.append(powers[-1] * ideal)

    def accepts(a: int, b: int) -> bool:
        return any((p * a, p * b) in powers[p] for p in range(1, bound + 1))

    # The accepted points form an ideal: each column's least accepted b is
    # at most the previous column's, so one walk down the staircase finds them.
    accepted = []
    b = ideal.y_power  # (0, b0) is a generator
    for a in range(ideal.x_power + 1):
        while b and accepts(a, b - 1):
            b -= 1
        accepted.append((a, b))
    return MonomialIdeal(accepted)


def staircase_conditions(ideal: MonomialIdeal) -> bool:
    """Necessary shape conditions on the minimal staircase of a normal ideal.

    With generators sorted as x^{a_0}, x^{a_1}y^{b_{n-1}}, ..., y^{b_0}
    (a_i and b_i strictly decreasing, a_n = b_n = 0), some cut 0 <= k <= n
    must satisfy:
      (1) a_i = n - i for i = k..n,
      (2) b_{n-i} = i for i = 0..k,
      (3) b_i <= ceil((b_{i-1} + b_{i+1}) / 2) for i = 1..n-k-1,
      (4) a_i <= ceil((a_{i-1} + a_{i+1}) / 2) for i = 1..k-1.
    Every normal ideal passes; the converse does not hold.
    """
    ideal.require_fat_point()
    gens = tuple(reversed(ideal.generators))  # a descending
    n = len(gens) - 1
    a = [g[0] for g in gens]
    c = [g[1] for g in gens]  # c[i] = b_{n-i}
    b = list(reversed(c))

    def ceil_half(x: int, y: int) -> int:
        return (x + y + 1) // 2

    for k in range(n + 1):
        if any(a[i] != n - i for i in range(k, n + 1)):
            continue
        if any(c[i] != i for i in range(k + 1)):
            continue
        if any(b[i] > ceil_half(b[i - 1], b[i + 1]) for i in range(1, n - k)):
            continue
        if any(a[i] > ceil_half(a[i - 1], a[i + 1]) for i in range(1, k)):
            continue
        return True
    return False


def random_ideal(rng: random.Random, box: int) -> MonomialIdeal:
    """Random finite-colength monomial ideal with generators in [0, box]^2."""
    a0 = rng.randint(1, box)
    b0 = rng.randint(1, box)
    gens = [(a0, 0), (0, b0)]
    for _ in range(rng.randint(0, 4)):
        point = (rng.randint(0, a0), rng.randint(0, b0))
        if point != (0, 0):
            gens.append(point)
    return MonomialIdeal(gens)


def random_normal_ideal(rng: random.Random, box: int) -> MonomialIdeal:
    return integral_closure(random_ideal(rng, box))


def random_tower_product(rng: random.Random, max_size: int, tangents: bool) -> TowerProduct:
    """Up to three towers with random branches, exponent sets of up to
    max_size exponents and, if asked, rational tangents; draws on one
    branch and tangent merge, repeated exponents included, and aligned
    cross directions are resampled."""
    while True:
        drawn = []
        for _ in range(rng.randint(1, 3)):
            branch = rng.choice(("x", "y"))
            exps = sorted(rng.sample(range(1, TOWER_EXPONENT_MAX + 1), rng.randint(1, max_size)))
            tangent = _random_tangent(rng, exps[-1]) if tangents else ()
            drawn.append(make_tower(branch, tangent, exps))
        try:
            return TowerProduct.from_factors(drawn)
        except UnsupportedError:
            continue


def random_complete_pair(rng: random.Random) -> TowerProduct:
    """Two complete towers of height at most TOWER_EXPONENT_MAX with random
    branches and rational tangents, not both monomial; resamples on equal
    tangents or aligned cross directions."""
    while True:
        heights = [rng.randint(1, TOWER_EXPONENT_MAX) for _ in range(2)]
        towers = [
            make_tower(rng.choice(BRANCHES), _random_tangent(rng, h), range(1, h + 1))
            for h in heights
        ]
        if any(not t.is_monomial for t in towers):
            try:
                return TowerProduct(towers)
            except (DomainError, UnsupportedError):
                continue


def _random_tangent(rng: random.Random, height: int) -> tuple[Fraction, ...]:
    """Coefficients in {-2, ..., 2} / {1, 2}, of degree below the height."""
    degree = rng.randint(0, height - 1)
    return tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(degree))


def random_normal_product(rng: random.Random, bounds: Bounds) -> str:
    """Text of a product of one to three powers, d <= POWER_MAX, of normal
    atoms: n(a, b) with a, b <= nab_max, m, monomial towers and normal
    generator lists."""
    factors = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        if kind == 0:
            atom = f"n({rng.randint(1, bounds.nab_max)},{rng.randint(1, bounds.nab_max)})"
        elif kind == 1:
            atom = "m"
        elif kind == 2:
            exps = sorted(rng.sample(range(1, TOWER_EXPONENT_MAX + 1), rng.randint(1, 3)))
            atom = tower_text(make_tower(rng.choice(BRANCHES), (), exps))
        else:
            atom = ideal_text(random_normal_ideal(rng, RANDOM_BOX))
        d = rng.randint(1, POWER_MAX)
        factors.append(atom if d == 1 else f"{atom}^{d}")
    return " * ".join(factors)


def _factor_depths(product: TowerProduct):
    """The factors (i, k), tower and exponent, of a product, and the
    agreement depths a_ij of its towers: difference_order on one branch, 1
    across branches, unbounded for i = j.  Factors (i, k) and (j, l) meet at
    level min(k, l, a_ij)."""
    towers = product.towers
    depth = [
        [
            float("inf") if i == j else difference_order(s, t) if s.branch == t.branch else 1
            for j, t in enumerate(towers)
        ]
        for i, s in enumerate(towers)
    ]
    factors = [(i, k) for i, tower in enumerate(towers) for k in tower.exponents]
    return factors, depth


def pairwise_meet_nu(product: TowerProduct, meets=None) -> int:
    """nu of a tower product by the contribution rule, without the diagram.

    Two factors sit on one curve when they meet at their common exponent,
    k == l <= a_ij; nu sums each curve's meet levels with every factor.
    meets is _factor_depths(product), if the caller has it.
    """
    factors, depth = meets or _factor_depths(product)
    curves: list[tuple[int, int]] = []
    for i, k in factors:
        if not any(l == k <= depth[i][j] for j, l in curves):
            curves.append((i, k))
    return sum(min(k, l, depth[i][j]) for i, k in curves for j, l in factors)


def pairwise_meet_length(product: TowerProduct, meets=None) -> int:
    """Length of a tower product from the mixed multiplicities of its
    curvilinear factors, without the diagram.

    For complete ideals l(IJ) = l(I) + l(J) + e(I|J) (Huneke-Swanson,
    Integral Closure of Ideals, Rings, and Modules, ch. 14).  The factor
    (f) + m^k has length k, and two factors share as many base points, each
    of weight 1, as the level at which they meet, so
    l = sum of k + sum over factor pairs of min(k, l, a_ij).  meets is
    _factor_depths(product), if the caller has it.
    """
    factors, depth = meets or _factor_depths(product)
    pairs = combinations(factors, 2)
    return sum(k for _, k in factors) + sum(min(k, l, depth[i][j]) for (i, k), (j, l) in pairs)


# -- checks: each returns the results of one instance and draws nothing --------


def _complete_tower_results(s: int) -> list[CheckResult]:
    tower = make_tower("x", (), range(1, s + 1))
    expected = tower.ideal().colength()
    return [CheckResult.compare("length/complete-tower", f"s={s}", expected, tower_length(tower))]


def _cross_pair_results(heights: tuple[int, int]) -> list[CheckResult]:
    """The staircase of a monomial cross pair against two_tower_length and,
    at equal heights h, against h(h+1)(h+2)/3 + h^2."""
    hx, hy = heights
    kx = make_tower("x", (), range(1, hx + 1))
    ky = make_tower("y", (), range(1, hy + 1))
    expected = (kx.ideal() * ky.ideal()).colength()
    actual = two_tower_length(kx, ky)
    results = [CheckResult.compare("length/cross-pair", f"hx={hx} hy={hy}", expected, actual)]
    if hx == hy:
        closed = hx * (hx + 1) * (hx + 2) // 3 + hx * hx
        results.append(
            CheckResult.compare("length/equal-cross-closed-form", f"h={hx}", expected, closed)
        )
    return results


def _pick_results(ideal: MonomialIdeal) -> list[CheckResult]:
    text = ideal_text(ideal)
    return [CheckResult.compare("length/pick", text, ideal.colength(), closure_colength(ideal))]


def _diagram_results(product: TowerProduct, family: str) -> list[CheckResult]:
    """The diagram engine's nu and length against independent routes.

    Monomial products go to the polygon engine and the staircase; a single
    tower to its closed forms, which hold for its monomial model and so, by
    the shear, for it (tower_nu for distinct exponents only); a complete
    pair to the two-tower forms (the length form for cross pairs only).
    What no closed form covers goes to pairwise_meet_nu, under
    nu/contraction-degrees, and to pairwise_meet_length.  The closed-form
    nu comparisons are reported under family.  A failed divisor-degree
    check of build_dynkin is reported as one nu/contraction-degrees
    failure.
    """
    text = product_text(product)
    try:
        summary = noncomplete_product_nu(product)
    except AssertionError as error:
        expected = "consistent divisor degrees"
        return [CheckResult("nu/contraction-degrees", text, expected, str(error), "fail")]
    towers = product.towers
    nu = length = None
    if product.all_monomial:
        report = nu_monomial(product.expand())
        nu, length = report.nu, report.length
    elif len(towers) == 1:
        length = tower_length(towers[0])
        try:
            nu = tower_nu(towers[0])
        except UnsupportedError:  # repeated exponents
            pass
    elif len(towers) == 2 and product.all_complete:
        try:
            nu = two_tower_nu(*towers)
        except UnsupportedError:
            pass
        if towers[0].branch != towers[1].branch:
            length = two_tower_length(*towers)
    meets = _factor_depths(product) if nu is None or length is None else None
    if nu is None:
        family, nu = "nu/contraction-degrees", pairwise_meet_nu(product, meets)
    if length is None:
        length = pairwise_meet_length(product, meets)
    return [
        CheckResult.compare(family, text, nu, summary.nu),
        CheckResult.compare("length/hoskin-deligne", text, length, summary.length),
    ]


def _power_rule_results(drawn: tuple[MonomialIdeal, int]) -> list[CheckResult]:
    ideal, d = drawn
    instance = f"{ideal_text(ideal)} ^ {d}"
    expected = nu_power_rule(ideal, d)
    return [CheckResult.compare("nu/power-rule", instance, expected, nu_monomial(ideal**d).nu)]


def _equal_degree_results(degrees: tuple[int, int]) -> list[CheckResult]:
    h, k = degrees
    actual = nu_monomial(complete_intersection(h, h) * complete_intersection(k, k)).nu
    expected = gcd(h, k) * (h + k)
    return [CheckResult.compare("nu/equal-degree-pair", f"h={h} k={k}", expected, actual)]


def _normalized_intersection_results(exponents: tuple[int, int]) -> list[CheckResult]:
    alpha, beta = exponents
    lcm = alpha * beta // gcd(alpha, beta)
    actual = nu_monomial(n_ab(alpha, beta)).nu
    return [CheckResult.compare("nu/normalized-intersection", f"n({alpha},{beta})", lcm, actual)]


def _min_sum_results(exps: tuple[int, ...]) -> list[CheckResult]:
    expected = sum(min(a, b) for a in exps for b in exps)
    actual = tower_nu(make_tower("x", (), exps))
    return [CheckResult.compare("nu/tower-min-sum", f"exps={list(exps)}", expected, actual)]


def _complete_intersection_results(exponents: tuple[int, int]) -> list[CheckResult]:
    a, b = exponents
    actual = nu_monomial(complete_intersection(a, b)).nu
    return [CheckResult.compare("nu/complete-intersection", f"a={a} b={b}", nu_lci(a, b), actual)]


def _pair_agreement_results(heights: tuple[int, int]) -> list[CheckResult]:
    """Diagram engine against the two-tower closed form: the x-tower of
    height h1 with the y-tower of height h2, and with the x-tower of height
    h2 whose tangent agrees with it to each admissible depth d."""
    h1, h2 = heights
    k1 = make_tower("x", (), range(1, h1 + 1))
    partners = {"cross": make_tower("y", (), range(1, h2 + 1))}
    for d in range(1, min(h1, h2 - 1) + 1):  # the tangent degree must stay below the height
        partners[f"d={d}"] = make_tower("x", (0,) * (d - 1) + (1,), range(1, h2 + 1))
    return [
        CheckResult.compare("nu/pair-agreement", f"h1={h1} h2={h2} {label}", two_tower_nu(k1, k2),
                            product_nu(TowerProduct([k1, k2])).nu)
        for label, k2 in partners.items()
    ]


def _m_power_results(drawn: tuple[tuple[int, ...], int]) -> list[CheckResult]:
    """tower_times_m_power against the staircase count and the edge formula
    on the expanded ideal K * m^n."""
    exps, n = drawn
    tower = make_tower("x", (), exps)
    expanded = tower.ideal() * MAXIMAL_IDEAL**n
    length, nu = tower_times_m_power(tower, n)
    instance = f"{tower_text(tower)} * m^{n}"
    return [
        CheckResult.compare("length/m-power", instance, expanded.colength(), length),
        CheckResult.compare("nu/m-power", instance, nu_monomial(expanded).nu, nu),
    ]


def _closure_results(ideal: MonomialIdeal) -> list[CheckResult]:
    """The polygon closure against the definitional oracle."""
    expected, actual = integral_closure(ideal), integral_closure_oracle(ideal)
    return [CheckResult.compare("closure/definitional", ideal_text(ideal), expected, actual)]


def _staircase_result(ideal: MonomialIdeal) -> CheckResult:
    return CheckResult.compare(
        "closure/normal-staircase-conditions", ideal_text(ideal), True, staircase_conditions(ideal)
    )


def _normal_results(ideal: MonomialIdeal) -> list[CheckResult]:
    """A normal ideal is its own closure and passes the staircase conditions."""
    text, closure = ideal_text(ideal), integral_closure(ideal)
    fixed_point = CheckResult.compare("closure/normal-fixed-point", text, ideal, closure)
    return [fixed_point, _staircase_result(ideal)]


def _normal_routes_results(ideal: MonomialIdeal) -> list[CheckResult]:
    """The Pick-count normality test against the closure; a normal ideal
    also passes the staircase conditions."""
    normal = is_normal(ideal)
    routes = CheckResult.compare(
        "closure/normal-routes", ideal_text(ideal), integral_closure(ideal) == ideal, normal
    )
    return [routes, _staircase_result(ideal)] if normal else [routes]


def _normal_product_results(text: str) -> list[CheckResult]:
    """The polygon route of expr.Elaborated against the multiplied-out product:
    the nu report (d, length and normality included), the factorization and
    the closure.  It reads polygon(), since nu() reads a lone list directly."""
    elaborated = parse(text)
    polygon = elaborated.polygon()  # the sum, lone lists included
    ideal = elaborated.require_ideal()
    return [
        CheckResult.compare("nu/normal-product", text, nu_monomial(ideal), nu_normal(polygon)),
        CheckResult.compare("factor/normal-product", text, factor_normal(ideal),
                            polygon_factors(polygon)),
        CheckResult.compare("closure/normal-product", text, integral_closure(ideal),
                            polygon_closure(polygon)),
    ]


# -- the table and its walker --------------------------------------------------


def _draws(n: int, draw: Callable, rng: random.Random, *args) -> list:
    """n instances draw(rng, *args), all drawn before any is checked."""
    return [draw(rng, *args) for _ in range(n)]


def _grid(n: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]


def _subsets(items: range, max_size: int) -> list[tuple[int, ...]]:
    return [s for size in range(1, max_size + 1) for s in combinations(items, size)]


# closure/definitional checks these on every seed, before its draws
CLOSURE_SEEDS = tuple(complete_intersection(a, b) for a, b in ((2, 2), (2, 3), (5, 5)))

# Each block is (part, draw, check).  part names the walk that runs it: the
# check_* walks length, nu and closure, or run_all's last.  draw(rng, bounds)
# gives the family's instances; check(instance) gives one instance's results
# and draws nothing.  In generator order: run_all walks the parts in this
# order and each part's blocks from the top, so a block that draws changes
# the instances of every drawing block below it.  The normal products come
# last so that adding them left every earlier draw as it was.
BLOCKS = (
    ("length", lambda rng, b: range(1, COMPLETE_TOWER_MAX + 1), _complete_tower_results),
    ("length", lambda rng, b: _grid(CROSS_HEIGHT_MAX), _cross_pair_results),
    ("length", lambda rng, b: _draws(b.normal_ideals, random_normal_ideal, rng, RANDOM_BOX),
     _pick_results),
    ("nu", lambda rng, b: _draws(b.tower_products, random_tower_product, rng, 4, False),
     partial(_diagram_results, family="nu/dual-engine")),
    ("nu", lambda rng, b: [(random_ideal(rng, RANDOM_BOX), rng.randint(1, POWER_MAX))
                           for _ in range(b.power_ideals)], _power_rule_results),
    ("nu", lambda rng, b: _grid(b.balanced_pair_max), _equal_degree_results),
    ("nu", lambda rng, b: _grid(b.nab_max), _normalized_intersection_results),
    ("nu", lambda rng, b: _subsets(range(1, TOWER_EXPONENT_MAX + 1), TOWER_EXPONENT_MAX),
     _min_sum_results),
    ("nu", lambda rng, b: _grid(b.nab_max), _complete_intersection_results),
    ("nu", lambda rng, b: _draws(b.tangent_products, random_tower_product, rng, 3, True),
     partial(_diagram_results, family="nu/diagram-consistency")),
    ("nu", lambda rng, b: combinations_with_replacement(range(1, b.pair_height_max + 1), 2),
     _pair_agreement_results),
    ("nu", lambda rng, b: [(exps, n) for exps in _subsets(range(2, 6), 3) for n in range(4)],
     _m_power_results),
    ("closure",
     lambda rng, b: [*CLOSURE_SEEDS, *_draws(b.closure_ideals, random_ideal, rng, RANDOM_BOX)],
     _closure_results),
    ("closure", lambda rng, b: _draws(b.normal_ideals, random_normal_ideal, rng, RANDOM_BOX),
     _normal_results),
    ("closure", lambda rng, b: _draws(b.normal_ideals, random_ideal, rng, STAIRCASE_BOX),
     _normal_routes_results),
    ("last", lambda rng, b: _draws(b.tangent_products // 5, random_complete_pair, rng),
     partial(_diagram_results, family="nu/diagram-consistency")),
    ("last", lambda rng, b: _draws(b.normal_products, random_normal_product, rng, b),
     _normal_product_results),
)


def _walk(part: str, rng: random.Random, bounds: Bounds) -> list[CheckResult]:
    """The results of part's blocks, in table order.  Each block draws all
    its instances, then checks each distinct one once through a cache made
    for the block; a repeated draw reports its first results again."""
    results = []
    for block_part, draw, check in BLOCKS:
        if block_part == part:
            instances = draw(rng, bounds)
            checked = cache(check)
            for instance in instances:
                results += checked(instance)
    return results


def check_length_forms(rng: random.Random, bounds: Bounds) -> list[CheckResult]:
    """Closed-form lengths and Pick's count against staircase counts."""
    return _walk("length", rng, bounds)


def check_nu_cross(rng: random.Random, bounds: Bounds) -> list[CheckResult]:
    """The Newton-polygon Behrend number against every independent route."""
    return _walk("nu", rng, bounds)


def check_closure(rng: random.Random, bounds: Bounds) -> list[CheckResult]:
    """Polygon closure against the definitional power test, plus normality checks."""
    return _walk("closure", rng, bounds)


def run_all(seed: int = 0, bounds: Bounds | None = None) -> list[CheckResult]:
    """Walk the whole table with one seeded generator; results sorted by
    (name, instance).  The first three parts run through their module-level
    names, which perfbench/layers.py times."""
    bounds = bounds or PRESETS["default"]
    rng = random.Random(seed)
    results = check_length_forms(rng, bounds)
    results += check_nu_cross(rng, bounds)
    results += check_closure(rng, bounds)
    results += _walk("last", rng, bounds)
    return sorted(results, key=lambda r: (r.name, r.instance))


def summarize(results) -> dict[str, int]:
    # "inconclusive" is always 0.  The key stays because schema version 1
    # requires it and perfbench parses the text summary line that prints it.
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for r in results:
        counts[r.status] += 1
    return counts
