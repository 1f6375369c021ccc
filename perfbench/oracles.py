"""Independent values the benchmark checks the program's outputs against.

Nothing here imports `behrend`: every formula is computed from the
benchmark's own description of an input (generator lists, tower exponents),
so a fault in the program cannot hide behind the same fault in its check.
`test_oracles.py` pins each formula to the program on small random inputs.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd

Point = tuple[int, int]


def minimal(points) -> list[Point]:
    """Divisibility-minimal points, by increasing a (so strictly decreasing b)."""
    kept: list[Point] = []
    for a, b in sorted(set(points)):
        if not kept or b < kept[-1][1]:
            kept.append((a, b))
    return kept


def staircase_length(points) -> int:
    """Boxes under the staircase, summed as one rectangle per generator step."""
    gens = minimal(points)
    if gens[0][0] != 0 or gens[-1][1] != 0:
        raise ValueError("the staircase is not finite")
    return sum((a2 - a1) * b1 for (a1, b1), (a2, _) in zip(gens, gens[1:]))


def column_heights(points) -> list[int]:
    """Height of each staircase column a = 0 .. a0 - 1 (small inputs only)."""
    gens = minimal(points)
    heights = []
    for (a1, b1), (a2, _) in zip(gens, gens[1:]):
        heights.extend([b1] * (a2 - a1))
    return heights


def product(p1, p2) -> list[Point]:
    """Minimal generators of the product of two monomial ideals."""
    return minimal((a1 + a2, b1 + b2) for a1, b1 in p1 for a2, b2 in p2)


def power(points, d: int) -> list[Point]:
    """Minimal generators of I^d by repeated multiplication."""
    result = [(0, 0)]
    for _ in range(d):
        result = product(result, points)
    return result


def lower_hull(points) -> list[Point]:
    """Vertices of the Newton polygon's bounded boundary, by increasing a."""
    chain: list[Point] = []
    for p in minimal(points):
        while len(chain) >= 2:
            (oa, ob), (pa, pb) = chain[-2], chain[-1]
            if (pa - oa) * (p[1] - ob) - (pb - ob) * (p[0] - oa) > 0:
                break
            chain.pop()
        chain.append(p)
    return chain


def pick_count(points) -> int:
    """Lattice points of the first quadrant strictly below the Newton polygon.

    Pick's theorem on the region cut off by the axes and the boundary chain:
    the count is (2 * area + a0 + b0 - boundary lattice steps) / 2.
    """
    hull = lower_hull(points)
    b0, a0 = hull[0][1], hull[-1][0]
    twice_area = sum(a1 * b2 - a2 * b1 for (a1, b1), (a2, b2) in zip(hull, hull[1:]))
    twice_area = -twice_area  # the chain runs clockwise around the region
    steps = sum(gcd(a2 - a1, b1 - b2) for (a1, b1), (a2, b2) in zip(hull, hull[1:]))
    return (twice_area + a0 + b0 - steps) // 2


def hull_edges(points) -> list[tuple[int, int, int]]:
    """(alpha, beta, lattice length) of each boundary edge, by increasing a:
    an edge steps alpha * length in a and -beta * length in b."""
    hull = lower_hull(points)
    edges = []
    for (a1, b1), (a2, b2) in zip(hull, hull[1:]):
        length = gcd(a2 - a1, b1 - b2)
        edges.append(((a2 - a1) // length, (b1 - b2) // length, length))
    return edges


def cone_index(u: Point, v: Point) -> int:
    return abs(u[0] * v[1] - u[1] * v[0])


def fan_rays(points) -> list[Point]:
    """Rays e1, (beta, alpha) per edge from the y-axis end, then e2."""
    return [(1, 0)] + [(beta, alpha) for alpha, beta, _ in hull_edges(points)] + [(0, 1)]


def roadmap_family(n: int) -> list[Point]:
    """(x^N, x^(N/2) y^(N/3), y^(N+1)), N a positive multiple of 6."""
    if n <= 0 or n % 6:
        raise ValueError("N must be a positive multiple of 6")
    return [(n, 0), (n // 2, n // 3), (0, n + 1)]


def roadmap_family_nu(n: int) -> int:
    """nu of the ROADMAP family with k = N/6.

    Edge (N,0)-(N/2,N/3) has ray (2,3), e = 2N and both ends on it at
    positions 0 and N/6, so it gives N^2/3 = 12k^2; edge (N/2,N/3)-(0,N+1)
    has lattice length g = gcd(3, k+1), e = (18k^2 + 3k)/g and d = g, so it
    gives 18k^2 + 3k.
    """
    k = n // 6
    return 30 * k * k + 3 * k


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def tower_points(branch: str, exponents) -> list[Point]:
    """Generators x^(s-k) y^(i_1+...+i_k) of the monomial model of a tower."""
    s = len(exponents)
    partial = [0, *accumulate(exponents)]
    points = [(s - k, partial[k]) for k in range(s + 1)]
    return points if branch == "x" else [(b, a) for a, b in points]


def tower_nu(exponents) -> int:
    """A tower's nu: the sum of min(i_k, i_l) over all ordered pairs."""
    return sum(min(i, j) for i in exponents for j in exponents)


def complete_tower_nu(h: int) -> int:
    return h * (h + 1) * (2 * h + 1) // 6


def two_tower_nu(h1: int, h2: int, d: int) -> int:
    """Two complete towers whose tangents agree to depth d (d = 1 across branches)."""
    nu1, nu2 = complete_tower_nu(h1), complete_tower_nu(h2)
    return nu1 + nu2 + (h1 + h2 - 2 * d) * d * (d + 1) // 2 + 2 * d * (h1 - d) * (h2 - d)


def forked_nu(exponent_sets) -> int:
    """Towers whose tangents pairwise differ in degree 1 (tree forks at level 2).

    The root carries every factor once; a node at level r >= 2 on tower i's
    chain gets min(r, k) from each of i's factors k and 1 from every other
    factor, and it survives iff r is one of i's exponents.  For complete
    towers of heights h_i this is F + sum_i [nu_i - h_i + (h_i - 1)(F - h_i)].
    """
    total = sum(len(s) for s in exponent_sets)
    nu = total if any(1 in s for s in exponent_sets) else 0
    for s in exponent_sets:
        for r in s:
            if r >= 2:
                nu += sum(min(r, k) for k in s) + total - len(s)
    return nu


def forked_complete_nu(heights) -> int:
    f = sum(heights)
    return f + sum(complete_tower_nu(h) - h + (h - 1) * (f - h) for h in heights)


def is_tree(node_count: int, edges) -> bool:
    """n - 1 edges that connect n nodes."""
    if len(edges) != node_count - 1:
        return False
    adjacent: dict[int, list[int]] = {i: [] for i in range(node_count)}
    for a, b in edges:
        if a not in adjacent or b not in adjacent:
            return False
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen, stack = {0}, [0]
    while stack:
        for nxt in adjacent[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == node_count
