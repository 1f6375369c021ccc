"""Towers of curvilinear ideals and the leveled diagram engine for products.

A tower is a product of curvilinear factors sharing one branch and tangent,
    (x + g(y)) + m^{i_1} * ... * (x + g(y)) + m^{i_s},   i_1 <= ... <= i_s,
(or the transpose in y), with deg g < i_s; a repeated exponent is a repeated
factor, as in a power.  Towers are normal; their blowups,
and the blowups of products of towers, are governed by a rooted leveled tree
whose nodes are exceptional curves.  The engine here builds that tree from
tangent-agreement classes, computes the multiplicity of every curve from
per-factor contributions, sums the surviving multiplicities into the
Behrend number, and reads the length off the same tree (Hoskin-Deligne).

Construction.  Two towers share the curve at level r >= 2 when both reach
height r, lie on one branch and have tangents agreeing in every degree
below r; at level 1 every tower shares the root.  A product stores its
towers, and numbers them, by branch and then lexicographically by tangent
(missing degrees read as 0).  That order puts every class at every level in
one contiguous run, and the agreement_depth of any two towers is the
minimum of the adjacent depths between them: the property LCP arrays rest
on (Kasai et al., CPM 2001).  A class at level r is therefore a maximal run
of towers of height >= r whose adjacent depths, minimized over any shorter
towers between them, are at least r.  The runs change only on the level
after a tower ends or an adjacent depth runs out; between those event
levels each class adds one chain node.

Cost.  The product sorts once: a key pass per tangent and O(T log T)
comparisons.  The diagram takes O(T) at each of at most 2T - 1 event
levels, and list slicing and repetition over the parallel chains between
them; Python-level loops run once per factor, to place it, and once per
node in each of three passes: the weights, the multiplicities and the
contraction check.  The diagram keeps the columns those passes fill, one
per node field, and builds no record per node: nu and length read the
columns, and the node records are built only when DynkinDiagram.nodes is
read.  On a 2-core host the 150,000-node chain's noncomplete_product_nu
takes about 0.09 s in-process, and its whole `nu` process about 0.22 s.

The contribution of a factor whose own node is c_I to a node c is the level
of the deepest common ancestor of c and c_I (a node counts as its own
ancestor).  On trees whose only fork is at the root this reduces to the
familiar min(i, j) / constant-1 pattern; on deeper forks it is the value the
iterated-blowup order computation actually produces.

The closed forms checked against the engine (tower_nu, two_tower_nu,
two_tower_length, tower_times_m_power) live in verify.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, compress, groupby, repeat, zip_longest
from math import inf
from operator import le, lt, mul, sub
from typing import NamedTuple

from .errors import DomainError, UnsupportedError, number_text
from .ideals import MonomialIdeal, _exponents

BRANCHES = ("x", "y")

# Most nodes build_dynkin builds, until the engine stores segments instead of
# nodes: the diagram of a tower of height H has at least H nodes.  `nu` of the
# chain tower(x; g=y; exps=[1, H]) takes, end to end on a 2-core host (median
# of 5 processes), 0.07 s at H = 10^4, 0.15 s at 10^5 and 0.22 s at the cap.
DIAGRAM_CAP = 150_000

_ZERO = Fraction(0)


class Tower(NamedTuple):
    """Validated tower; build through make_tower, which takes g dense, or
    tower_from_terms, which takes its terms.

    tangent holds g as its nonzero terms (degree, coefficient), by ascending
    degree, however g was given; the empty tuple is the monomial tower g = 0.
    """

    branch: str
    tangent: tuple[tuple[int, Fraction], ...]
    exponents: tuple[int, ...]

    @property
    def height(self) -> int:
        return self.exponents[-1]

    @property
    def is_complete(self) -> bool:
        return self.exponents == tuple(range(1, len(self.exponents) + 1))

    @property
    def is_monomial(self) -> bool:
        return not self.tangent

    def linear_coefficient(self) -> Fraction:
        return self.tangent[0][1] if self.tangent and self.tangent[0][0] == 1 else _ZERO

    def ideal(self) -> MonomialIdeal:
        """Minimal generators of a monomial tower: x^{s-k} y^{i_1+...+i_k}.

        Non-monomial towers are isomorphic to their monomial model by the
        shear (x, y) -> (x - g(y), y), which preserves every invariant
        computed in this package, but their literal generators are not
        monomials; asking for them is unsupported.
        """
        if not self.is_monomial:
            raise UnsupportedError(
                "non-monomial towers have no monomial generators; "
                "invariants are computed on the monomial model"
            )
        # every exponent is positive, so the powers of x fall and those of y
        # rise strictly with k: each generator is minimal
        s = len(self.exponents)
        partial = [0, *accumulate(self.exponents)]
        if self.branch == "x":
            return MonomialIdeal._canonical([(s - k, partial[k]) for k in range(s, -1, -1)], None)
        return MonomialIdeal._canonical([(partial[k], s - k) for k in range(s + 1)], None)


def make_tower(branch: str, tangent, exponents) -> Tower:
    """Validate and build a tower from its dense tangent, the coefficients
    of g at degrees 1, 2, ...; the tower stores their nonzero terms."""
    return tower_from_terms(branch, enumerate(tangent, 1), exponents)


def tower_from_terms(branch: str, terms, exponents) -> Tower:
    """Validate and build a tower from the (degree, coefficient) terms of its
    tangent, one per degree; each broken precondition is its own error."""
    if branch not in BRANCHES:
        raise DomainError(f"branch must be 'x' or 'y', not {branch!r}")
    exps = _exponents(exponents)
    if not exps:
        raise DomainError("a tower needs at least one exponent")
    if exps[0] < 1:
        raise DomainError("tower exponents must be positive")
    if not all(map(le, exps, exps[1:])):
        raise DomainError("tower exponents must be nondecreasing")
    tangent = _nonzero_terms(terms)
    if tangent and tangent[0][0] < 1:
        raise DomainError("the tangent must vanish at 0: its degrees must be positive")
    if tangent and tangent[-1][0] >= exps[-1]:
        raise DomainError(f"tangent degree {number_text(tangent[-1][0])} must be smaller "
                          f"than the height {number_text(exps[-1])}")
    return Tower(branch, tangent, exps)


def _nonzero_terms(terms) -> tuple[tuple[int, Fraction], ...]:
    """The nonzero terms, each coefficient made a Fraction, by degree."""
    return tuple(sorted((d, f) for d, c in terms
                        if (f := c if isinstance(c, Fraction) else Fraction(c))))


def tower_length(tower: Tower) -> int:
    """Colength: sum over k of i_1 + ... + i_k."""
    partial = list(accumulate(tower.exponents))
    return sum(partial)


def agreement_depth(t1: Tower, t2: Tower) -> int | None:
    """The level up to which two towers share their curves, where both
    reach: 1 across branches, else o(g1 - g2), the first degree where the
    tangents differ, which is the smaller degree of their first differing
    terms; None when they are equal."""
    if t1.branch != t2.branch:
        return 1
    pairs = zip_longest(t1.tangent, t2.tangent, fillvalue=(inf,))
    return next((min(s[0], t[0]) for s, t in pairs if s != t), None)


# -- products ----------------------------------------------------------------


class Factor(NamedTuple):
    """A single curvilinear factor (f) + m^exponent.  At exponent 1 it cuts
    out m, whatever f: (f) + m = m.  tangent is dense, as make_tower takes
    it; the tower built from the factor stores its nonzero terms."""

    branch: str
    tangent: tuple[Fraction, ...]
    exponent: int


class _Towers(NamedTuple):
    towers: tuple[Tower, ...]


class TowerProduct(_Towers):
    """A finite product of pairwise tangent-distinct towers, sorted by
    _padded_key, the order that numbers the diagram, so two products are
    equal exactly when their towers are."""

    __slots__ = ()

    def __new__(cls, towers):
        towers = tuple(sorted(towers, key=_padded_key))
        if not towers:
            raise DomainError("a tower product needs at least one tower")
        if any(s[:2] == t[:2] for s, t in zip(towers, towers[1:])):  # same branch and tangent
            raise DomainError(
                "towers sharing branch and tangent must be merged or rejected; "
                "build products through from_factors"
            )
        # cross-branch towers with aligned directions (c_x * c_y = 1) share a
        # branch after a linear change of variables; the classes would split them
        x_directions = [t.linear_coefficient() for t in towers if t.branch == "x" and t.tangent]
        if x_directions and any(t.branch == "y" and t.linear_coefficient()
                                and 1 / t.linear_coefficient() in x_directions for t in towers):
            raise UnsupportedError(
                "cross-branch towers with aligned tangent directions: "
                "rewrite them on a common branch first"
            )
        return super().__new__(cls, towers)

    @classmethod
    def _make(cls, iterable):  # through __new__'s checks; _replace calls this too
        return cls(*iterable)

    @classmethod
    def from_factors(cls, factors) -> "TowerProduct":
        """Group raw factors, and whole towers, into towers.

        Each item is a Factor or a Tower; a Tower stands for the factors of
        its exponents.  The factors on one (branch, tangent) form one tower
        whose exponents are their multiset: a repeated exponent is a
        repeated factor, as in a power.  Exponent-1 factors all cut out m,
        whatever their branch and tangent; the j-th goes to slot j mod the
        slot count, the slots being the groups by _padded_key, then new
        monomial towers on x and on y.  tower_from_terms builds every group,
        so a Tower not built by it is canonicalized or refused as it would.
        """
        floating = 0
        groups: dict[tuple, list] = {}  # (branch, tangent) -> exponents
        for item in factors:
            if isinstance(item, Tower):
                key, exponents = (item.branch, item.tangent), item.exponents
            else:
                key = (item.branch, _nonzero_terms(enumerate(item.tangent, 1)))
                exponents = (item.exponent,)
            ones = exponents.count(1)
            if ones:
                floating += ones
                exponents = [e for e in exponents if e != 1]
            if exponents:
                groups.setdefault(key, []).extend(exponents)
        if not groups and not floating:
            raise DomainError("a tower product needs at least one factor")
        if floating:
            slots = sorted(groups, key=_padded_key)
            slots += [key for key in (("x", ()), ("y", ())) if key not in groups]
            for j, key in enumerate(slots[:floating]):
                groups.setdefault(key, []).extend([1] * len(range(j, floating, len(slots))))
        return cls(tower_from_terms(branch, tangent, sorted(exps))
                   for (branch, tangent), exps in groups.items())

    @property
    def all_monomial(self) -> bool:
        return all(t.is_monomial for t in self.towers)

    @property
    def all_complete(self) -> bool:
        return all(t.is_complete for t in self.towers)

    def expand(self) -> MonomialIdeal:
        """The product ideal, available for monomial products only."""
        if not self.all_monomial:
            raise UnsupportedError("only monomial tower products expand to monomial ideals")
        result = None
        for t in self.towers:
            result = t.ideal() if result is None else result * t.ideal()
        return result


def _padded_key(tower) -> tuple:
    """The tower order: by branch and then by zero-padded tangent, read off
    the terms of a tower or a (branch, tangent) pair; a term c of degree d
    reads (0, d, c) if c < 0 and (2, -d, c) if c > 0, and the end, zeros
    from there on, reads (1,); so where one tangent has c and the other 0,
    c < 0 sorts first and c > 0 last, as on the padded tangents."""
    terms = [(0, d, c) if c.numerator < 0 else (2, -d, c) for d, c in tower[1]]
    return (tower[0], *terms, (1,))


def _classes_at(r: int, depths, heights) -> list[tuple[int, ...]]:
    """Classes at level r, in tower order, members ascending: maximal runs of
    towers of height >= r whose adjacent depths, minimized over the shorter
    towers skipped between them, are at least r."""
    runs: list[list[int]] = []
    gap = 0  # least depth since the last tower of height >= r
    for i, (height, depth) in enumerate(zip(heights, [*depths, 0])):
        if height >= r:
            if gap >= r:
                runs[-1].append(i)
            else:
                runs.append([i])
            gap = depth
        elif depth < gap:
            gap = depth
    return list(map(tuple, runs))


class DynkinNode(NamedTuple):
    """One exceptional curve: its level, tangent-agreement class, attached
    original factors, self-intersection, multiplicity and survival flag."""

    index: int
    level: int
    members: tuple[int, ...]
    factors: tuple[tuple[int, int], ...]
    self_intersection: int
    multiplicity: int
    surviving: bool


class DynkinDiagram(NamedTuple):
    """Rooted leveled tree of exceptional curves of a tower-product blowup,
    held as one column per node field; node 0 is the root."""

    levels: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    factors: tuple[tuple[tuple[int, int], ...], ...]
    self_intersection: tuple[int, ...]
    multiplicity: tuple[int, ...]
    surviving: tuple[bool, ...]
    parents: tuple[int, ...]  # parent node index; -1 at the root

    @property
    def nodes(self) -> tuple[DynkinNode, ...]:
        """The node records, built from the columns on every access."""
        # tuple.__new__ is what DynkinNode._make calls, less its per-row length check
        rows = zip(range(len(self.levels)), self.levels, self.members, self.factors,
                   self.self_intersection, self.multiplicity, self.surviving)
        return tuple(map(tuple.__new__, repeat(DynkinNode), rows))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The (parent, child) pairs, children ascending."""
        return tuple(zip(self.parents[1:], range(1, len(self.parents))))

    def nu(self) -> int:
        return sum(compress(self.multiplicity, self.surviving))

    def length(self) -> int:
        """Colength by Hoskin-Deligne: the sum of o(o+1)/2 over the nodes,
        which are the infinitely near base points (Casas-Alvero,
        Singularities of Plane Curves, ch. 8).  The weight o of a node
        counts the factors attached in its subtree, which is its
        multiplicity less its parent's; every tangent is rational, so every
        residue degree is 1."""
        multiplicity = self.multiplicity
        parent_multiplicity = [0, *map(multiplicity.__getitem__, self.parents[1:])]
        weights = list(map(sub, multiplicity, parent_multiplicity))
        return (sum(map(mul, weights, weights)) + sum(weights)) // 2


def build_dynkin(product: TowerProduct) -> DynkinDiagram:
    """Build the leveled tree for a product of towers.

    Every tower is read as its completion (all levels 1..height, same
    tangent): the node at level r of a class of towers exists whether or not
    a member has exponent r.  Nodes are numbered level by level, and within
    a level in the product's tower order, so their first members ascend: on
    each branch the order of the zero-padded tangent prefixes of degree < r,
    since a class is a contiguous run of it and two towers of different
    classes differ below degree r.  A node's members ascend, its parent is
    the node one level down holding its members, and a factor (tower i,
    exponent k) attaches to the level-k node holding i.

    Nodes are built a segment at a time: between two event levels the same
    w classes each add a chain node per level, so past its first level each
    node's parent is the node w before it.  Every parent precedes its
    children, so one pass from the last node adds each node's weight, the
    number of factors in its subtree, into its parent's, and one pass from
    the root adds the parent's multiplicity, the weights of its ancestors,
    to each node's own weight: a factor contributes to c the number of
    ancestors of c whose subtree holds the factor's node.  A node survives
    iff a factor attaches to it (the completion's extra curves are
    contracted on the actual blowup).  More than DIAGRAM_CAP nodes, counted
    before any is built, raise UnsupportedError; the divisor-degree check
    runs on every diagram, on the columns the diagram then holds.
    """
    towers = product.towers
    heights = [t.height for t in towers]
    top = max(heights)
    # no two stored towers share branch and tangent, so no depth is None
    depths = list(map(agreement_depth, towers, towers[1:]))
    # the runs change only on the level after a height or an adjacent depth
    starts = sorted({1} | {e + 1 for e in (*heights, *depths) if e < top})
    segments = [(r, end, _classes_at(r, depths, heights))
                for r, end in zip(starts, [*starts[1:], top + 1])]
    count = sum(len(runs) * (end - r) for r, end, runs in segments)
    if count > DIAGRAM_CAP:
        raise UnsupportedError(
            f"the diagram has {number_text(count)} nodes, above the diagram cap of {DIAGRAM_CAP}"
        )
    levels, members_of, parents = [], [], []
    factors: list[tuple[tuple[int, int], ...]] = [()] * count
    tail = [-1] * len(towers)  # each tower's node at the last level built
    # towers with a repeated exponent (a power) attach each run of copies at once
    powers = [len(set(t.exponents)) < len(t.exponents) for t in towers]
    for r, end, runs in segments:
        first, width = len(levels), len(runs)
        stop = first + (end - r) * width
        levels += sorted([*range(r, end)] * width)
        members_of += runs * (end - r)
        parents += [tail[members[0]] for members in runs]
        parents += range(first, stop - width)
        for node, members in enumerate(runs, first):
            for i in members:
                tail[i] = stop - width + node - first
                exps = towers[i].exponents
                span = exps[bisect_left(exps, r):bisect_left(exps, end)]
                if powers[i]:
                    for k, copies in groupby(span):
                        factors[node + (k - r) * width] += ((i, k),) * len(list(copies))
                    continue
                for k in span:
                    factors[node + (k - r) * width] += ((i, k),)

    # weights and child counts, each node before its parent
    weight = list(map(len, factors))
    self_intersection = [-1] * count  # -1 - #children
    for node in range(count - 1, 0, -1):
        parent = parents[node]
        weight[parent] += weight[node]
        self_intersection[parent] -= 1
    # multiplicities, each parent before its nodes
    multiplicity = weight[:]
    for node in range(1, count):
        multiplicity[node] += multiplicity[parents[node]]

    surviving = list(map(bool, factors))
    _check_contraction_degrees(parents, levels, self_intersection, multiplicity, surviving)
    return DynkinDiagram(*map(tuple, (levels, members_of, factors, self_intersection,
                                      multiplicity, surviving, parents)))


def _check_contraction_degrees(
    parents, levels, self_intersection, multiplicity, surviving
) -> None:
    """Intersection-theoretic self-check of multiplicities and survival.

    On the completed (smooth) surface every curve E has E^2 = -1 - #children,
    which equals the stored self-intersection for the root and internal nodes
    alike.  The pulled-back divisor D = sum of multiplicity * curve restricts
    to degree m * E^2 + sum of adjacent multiplicities on E; this is <= 0
    everywhere, negative exactly on the curves the actual blowup keeps, and
    zero exactly on the contracted ones.  Any violation means the computed
    multiplicities or the survival flags are wrong, so fail loudly.  It
    reads build_dynkin's columns.
    """
    degrees = list(map(mul, multiplicity, self_intersection))
    for child in range(1, len(parents)):
        parent = parents[child]
        degrees[parent] += multiplicity[child]
        degrees[child] += multiplicity[parent]
    if max(degrees) <= 0 and tuple(map(lt, degrees, repeat(0))) == tuple(surviving):
        return
    node = next(node for node, degree in enumerate(degrees)
                if degree > 0 or (degree < 0) != surviving[node])
    raise AssertionError(
        f"divisor degree {degrees[node]} on the level-{levels[node]} curve "
        f"contradicts multiplicity {multiplicity[node]} / "
        f"survival {surviving[node]}"
    )


class TowerNuSummary(NamedTuple):
    """Behrend number and length of a tower product, with its diagram."""

    nu: int
    length: int
    diagram: DynkinDiagram


def noncomplete_product_nu(product: TowerProduct) -> TowerNuSummary:
    """Behrend number and length of an arbitrary finite product of towers."""
    diagram = build_dynkin(product)
    return TowerNuSummary(diagram.nu(), diagram.length(), diagram)
