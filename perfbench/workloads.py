"""The four workloads: their queries, built from a seed, and each query's check.

A query is one `behrend` command line.  `cli-session` runs it as a fresh
`python -m behrend` process; `monomial-scale` and `tower-scale` run it
in-process through `behrend.cli.main`; `verify-sweep` queries are seeds for
`behrend.verify.run_all`.

A check takes the query's standard output (and the SVG it wrote, if any) and
returns the problems it found; an empty list means the output is right.
Checks compare against `oracles`, which never imports the program.  Only the
monomial-product checks call the program's polygon engine, on an ideal the
benchmark expanded itself, as the independent route for the diagram engine.
"""

from __future__ import annotations

import json
import random
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles as O

QUERIES = 40  # per CLI workload; the tail percentile then is p75
VERIFY_SEEDS = 50  # about 18 s of run_all calls: one pass fits a run, two do not
TAIL_BEYOND = 10  # query_tail_ms: the per-query latency with exactly ten above it

Check = Callable[[str, "str | None"], list]


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    check: Check
    svg: bool = False  # the check also reads the SVG written by --svg


# -- expression text ----------------------------------------------------------


def monomial(a: int, b: int) -> str:
    parts = [v if e == 1 else f"{v}^{e}" for v, e in (("x", a), ("y", b)) if e]
    return " ".join(parts) or "1"


def gens_text(points) -> str:
    return "(" + ", ".join(monomial(a, b) for a, b in points) + ")"


def poly_text(coeffs, var: str) -> str:
    """Polynomial with coefficient coeffs[i] at degree i + 1."""
    terms = []
    for degree, c in enumerate(coeffs, start=1):
        if c == 0:
            continue
        body = var if degree == 1 else f"{var}^{degree}"
        if abs(c) != 1:
            body = f"{abs(c)}*{body}"
        terms.append(("- " if c < 0 else "+ ") + body)
    if not terms:
        return "0"
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else text


def tower_text(branch: str, coeffs, exponents) -> str:
    var = "y" if branch == "x" else "x"
    exps = ", ".join(str(e) for e in exponents)
    return f"tower({branch}; g = {poly_text(coeffs, var)}; exps = [{exps}])"


def product_text(towers) -> str:
    return " * ".join(tower_text(*t) for t in towers)


# -- reading outputs ------------------------------------------------------------


def _json(out: str):
    return json.loads(out) if out.lstrip().startswith("{") else None


def _text_int(out: str, key: str) -> int:
    match = re.search(rf"^{re.escape(key)} = (-?\d+)$", out, re.MULTILINE)
    if not match:
        raise ValueError(f"no '{key} = ' line")
    return int(match.group(1))


def _value(out: str, key: str):
    data = _json(out)
    return data[key] if data is not None else _text_int(out, key)


def _parse_gens(out: str) -> list:
    data = _json(out)
    if data is not None:
        return [tuple(g) for g in data["generators"]]
    points = []
    for term in out.strip().strip("()").split(","):
        a = b = 0
        for var, exp in re.findall(r"([xy])(?:\^(\d+))?", term):
            if var == "x":
                a = int(exp or 1)
            else:
                b = int(exp or 1)
        points.append((a, b))
    return points


def _parse_factors(out: str) -> list:
    data = _json(out)
    if data is not None:
        return [(f["alpha"], f["beta"], f["delta"]) for f in data["factors"]]
    return [
        (int(a), int(b), int(d or 1))
        for a, b, d in re.findall(r"n\((\d+),(\d+)\)(?:\^(\d+))?", out)
    ]


def _pairs(text: str) -> list:
    return [(int(a), int(b)) for a, b in re.findall(r"\((-?\d+), (-?\d+)\)", text)]


def _parse_fan(out: str):
    data = _json(out)
    if data is not None:
        rays = [tuple(r) for r in data["rays"]]
        return rays, [c["index"] for c in data["cones"]]
    lines = out.strip().splitlines()
    rays = _pairs(lines[0])
    indices = [int(m) for m in re.findall(r"index (\d+)", "\n".join(lines[1:]))]
    return rays, indices


def _parse_diagram(out: str):
    """(multiplicities, surviving flags, edges, nu or None) from JSON or DOT."""
    data = _json(out)
    if data is not None:
        nodes = data["nodes"]
        return (
            [n["multiplicity"] for n in nodes],
            [n["surviving"] for n in nodes],
            [tuple(e) for e in data["edges"]],
            data.get("nu"),
        )
    found = re.findall(r'^\s*n(\d+) \[label=".*mult (\d+), (kept|contracted)"', out, re.M)
    if [int(i) for i, _, _ in found] != list(range(len(found))):
        raise ValueError("DOT nodes are not numbered 0 .. n-1")
    edges = [(int(a), int(b)) for a, b in re.findall(r"^\s*n(\d+) -- n(\d+);$", out, re.M)]
    return [int(m) for _, m, _ in found], [f == "kept" for _, _, f in found], edges, None


def _svg_count(svg: str, tag: str) -> int:
    root = ET.fromstring(svg)
    if root.tag != "{http://www.w3.org/2000/svg}svg":
        raise ValueError(f"root element is {root.tag}")
    return sum(1 for el in root.iter(f"{{http://www.w3.org/2000/svg}}{tag}"))


def _expect(problems: list, what: str, want, got) -> None:
    if want != got:
        problems.append(f"{what}: expected {want!r}, got {got!r}")


def _guarded(check: Check) -> Check:
    """An output the check cannot even read is a problem, not a crash."""

    def run(out: str, svg):
        try:
            return check(out, svg)
        except (ValueError, KeyError, IndexError, TypeError, ET.ParseError) as error:
            return [f"unreadable output: {type(error).__name__}: {error}"]

    return run


# -- checks ---------------------------------------------------------------------


def check_length(expected: int) -> Check:
    def check(out, svg):
        problems = []
        _expect(problems, "length", expected, _value(out, "length"))
        return problems

    return check


def check_nu(expected: int) -> Check:
    def check(out, svg):
        problems = []
        _expect(problems, "nu", expected, _value(out, "nu"))
        data = _json(out)
        if data is not None and "components" in data:
            _expect(problems, "sum of edge contributions", data["nu"],
                    sum(c["contribution"] for c in data["components"]))
        if data is not None and "nodes" in data:
            problems += _diagram_problems(out, expected)
        return problems

    return check


def check_normal(expected: bool) -> Check:
    def check(out, svg):
        data = _json(out)
        got = data["normal"] if data is not None else out.strip() == "normal"
        return [] if got == expected else [f"normal?: expected {expected}, got {got}"]

    return check


def _above_polygon(points, of) -> bool:
    """Every point lies on or above the Newton polygon of `of`."""
    hull = O.lower_hull(of)
    for (a1, b1), (a2, b2) in zip(hull, hull[1:]):
        ray = (b1 - b2, a2 - a1)
        level = ray[0] * a1 + ray[1] * b1
        if any(ray[0] * a + ray[1] * b < level for a, b in points):
            return False
    return True


def check_normalize(points) -> Check:
    """The output is the closure: inside the input's polygon, with the Pick count as colength."""

    def check(out, svg):
        problems = []
        closure = _parse_gens(out)
        _expect(problems, "closure length vs Pick count", O.pick_count(points),
                O.staircase_length(closure))
        if not _above_polygon(closure, points):
            problems.append("a closure generator lies below the input's polygon")
        return problems

    return check


def check_factor(points) -> Check:
    a0, b0 = max(a for a, _ in points), max(b for _, b in points)

    def check(out, svg):
        problems = []
        factors = _parse_factors(out)
        _expect(problems, "factors", O.hull_edges(points), factors)
        _expect(problems, "sum of delta*alpha", a0, sum(a * d for a, _, d in factors))
        _expect(problems, "sum of delta*beta", b0, sum(b * d for _, b, d in factors))
        return problems

    return check


def check_fan(points) -> Check:
    rays = O.fan_rays(points)
    indices = [O.cone_index(u, v) for u, v in zip(rays, rays[1:])]

    def check(out, svg):
        problems = []
        got_rays, got_indices = _parse_fan(out)
        _expect(problems, "rays", rays, got_rays)
        _expect(problems, "cone indices", indices, got_indices)
        if svg is not None:
            _expect(problems, "SVG ray lines", len(rays), _svg_count(svg, "line"))
        return problems

    return check


def check_ferrers(points) -> Check:
    heights = O.column_heights(points)
    length = O.staircase_length(points)

    def check(out, svg):
        problems = []
        data = _json(out)
        if data is not None:
            _expect(problems, "column heights", heights, data["column_heights"])
        else:
            _expect(problems, "grid boxes", length, out.count("#"))
            _expect(problems, "grid rows", heights[0], len(out.rstrip("\n").splitlines()))
        if svg is not None:
            _expect(problems, "SVG boxes", length, _svg_count(svg, "rect"))
        return problems

    return check


def _diagram_problems(out: str, expected_nu: int) -> list:
    problems = []
    mults, surviving, edges, nu = _parse_diagram(out)
    if not O.is_tree(len(mults), edges):
        problems.append(f"diagram with {len(mults)} nodes and {len(edges)} edges is not a tree")
    kept = sum(m for m, s in zip(mults, surviving) if s)
    _expect(problems, "sum of surviving multiplicities", expected_nu, kept)
    if nu is not None:
        _expect(problems, "nu", expected_nu, nu)
    return problems


def check_dynkin(expected_nu) -> Check:
    """expected_nu is an int, or a function computing it outside the timed region."""

    def check(out, svg):
        nu = expected_nu() if callable(expected_nu) else expected_nu
        problems = _diagram_problems(out, nu)
        if svg is not None:
            mults, _, edges, _ = _parse_diagram(out)
            _expect(problems, "SVG nodes", len(mults), _svg_count(svg, "circle"))
            _expect(problems, "SVG edges", len(edges), _svg_count(svg, "line"))
        return problems

    return check


KNOWN_FAULT = ("closure/definitional", "(x^5, y^5)")


def check_verify_cli(out, svg) -> list:
    """No failures; the only non-pass may be the known (x^5, y^5) closure check."""
    data = _json(out)
    if data is not None:
        counts = data["counts"]
        others = [(r["name"], r["instance"]) for r in data["results"] if r["status"] != "pass"]
    else:
        match = re.search(r"^total: (\d+) pass, (\d+) fail, (\d+) inconclusive$", out, re.M)
        counts = {"pass": int(match[1]), "fail": int(match[2]), "inconclusive": int(match[3])}
        others = re.findall(r"^  (?:FAIL|INCONCLUSIVE) (\S+) \[(.*?)\]:", out, re.M)
    problems = []
    _expect(problems, "failed checks", 0, counts["fail"])
    if any(tuple(o) != KNOWN_FAULT for o in others):
        problems.append(f"unexpected non-pass checks: {others}")
    return problems


def _monomial_product_nu(points) -> Callable[[], int]:
    def nu():
        from behrend.ideals import MonomialIdeal
        from behrend.nu import nu_monomial

        return nu_monomial(MonomialIdeal(points)).nu

    return nu


# -- workload builders -------------------------------------------------------------


def _q(check: Check, *argv: str, svg: bool = False) -> Query:
    return Query(tuple(argv), _guarded(check), svg)


def _near(rng: random.Random, nominal: int, step: int = 1, spread: float = 0.02) -> int:
    """nominal within +-spread, a multiple of step: keeps cost steady across seeds."""
    value = nominal * (1 + rng.uniform(-spread, spread))
    return max(step, round(value / step) * step)


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def _forked_tangents(rng: random.Random, count: int, heights) -> list:
    """Tangents with pairwise distinct linear terms and a few higher ones."""
    linear: list[Fraction] = []
    while len(linear) < count:
        c = _coeff(rng)
        if c not in linear:
            linear.append(c)
    tangents = []
    for c, h in zip(linear, heights):
        extra = [_coeff(rng) if rng.random() < 0.5 else 0 for _ in range(min(3, h - 2))]
        tangents.append([c, *extra])
    return tangents


def _sparse(rng: random.Random, height: int, share: float) -> list:
    """A sparse exponent set ending at height."""
    count = max(1, round((height - 1) * share))
    return sorted(rng.sample(range(1, height), count)) + [height]


def _random_gens(rng: random.Random, box: int) -> list:
    a0, b0 = rng.randint(box // 2, box), rng.randint(box // 2, box)
    inner = [(rng.randint(1, a0 - 1), rng.randint(1, b0 - 1)) for _ in range(3)]
    return O.minimal([(a0, 0), (0, b0), *inner])


def cli_session(seed: int) -> list[Query]:
    """Small inputs for all nine commands, text and JSON, three with --svg."""
    rng = random.Random(seed)
    json_ = ("--format", "json")
    g1, g2 = _random_gens(rng, 9), _random_gens(rng, 7)
    k = rng.randint(3, 6)
    mk = O.power([(1, 0), (0, 1)], k)
    a, b = rng.randint(3, 12), rng.randint(3, 12)
    alpha, beta = rng.randint(2, 15), rng.randint(2, 15)
    d = rng.randint(2, 6)
    f6 = rng.randint(1, 3) * 6
    ty = sorted(rng.sample(range(1, 9), 3))
    tower_y = ("y", [], ty)
    ty_points = O.tower_points("y", ty)
    mk_tower = O.product(mk, ty_points)
    single_exps = _sparse(rng, rng.randint(5, 9), 0.5)
    single = ("x", [_coeff(rng)], single_exps)
    heights = [rng.randint(3, 6) for _ in range(3)]
    forked = [("x", t, range(1, h + 1))
              for t, h in zip(_forked_tangents(rng, 3, heights), heights)]
    forked_nu = O.forked_complete_nu(heights)
    hx, hy = rng.randint(2, 6), rng.randint(2, 6)
    cx, cy = _coeff(rng), _coeff(rng)
    while cx * cy == 1:
        cy = _coeff(rng)
    cross = [("x", [cx], range(1, hx + 1)), ("y", [cy], range(1, hy + 1))]
    cross_points = O.product(O.tower_points("x", range(1, hx + 1)),
                             O.tower_points("y", range(1, hy + 1)))
    vseed = str(rng.randrange(1000))
    e1, e2 = gens_text(g1), gens_text(g2)
    ci = f"(x^{a}, y^{b})"
    t_y, t_mk = tower_text(*tower_y), f"m^{k} * {tower_text(*tower_y)}"
    t_forked, t_cross = product_text(forked), product_text(cross)
    f6_text = gens_text(O.roadmap_family(f6))
    queries = [
        _q(check_length(O.staircase_length(g1)), "length", e1),
        _q(check_length(O.staircase_length(g2)), "length", e2, *json_),
        _q(check_length(O.staircase_length(mk)), "length", f"m^{k}"),
        _q(check_length(O.staircase_length(cross_points)), "length", t_cross, *json_),
        _q(check_length(O.staircase_length(O.tower_points("x", single_exps))),
           "length", tower_text(*single)),
        _q(check_nu(a * b), "nu", ci),
        _q(check_nu(a * b), "nu", ci, *json_),
        _q(check_nu(O.lcm(alpha, beta)), "nu", f"n({alpha},{beta})", *json_),
        _q(check_nu(d * a * b), "nu", f"{ci}^{d}"),
        _q(check_nu(O.roadmap_family_nu(f6)), "nu", f6_text, *json_),
        _q(check_nu(k), "nu", f"m^{k}"),
        _q(check_nu(O.tower_nu(single_exps)), "nu", tower_text(*single)),
        _q(check_nu(forked_nu), "nu", t_forked, *json_),
        _q(check_nu(O.two_tower_nu(hx, hy, 1)), "nu", t_cross),
        _q(check_normalize(g1), "normalize", e1),
        _q(check_normalize(g2), "normalize", e2, *json_),
        _q(check_normalize(O.roadmap_family(f6)), "normalize", f6_text),
        _q(check_normal(O.staircase_length(g1) == O.pick_count(g1)), "normal?", e1),
        _q(check_normal(O.staircase_length(g2) == O.pick_count(g2)), "normal", e2, *json_),
        _q(check_normal(True), "normal?", t_y),
        _q(check_normal(O.staircase_length(O.roadmap_family(f6))
                        == O.pick_count(O.roadmap_family(f6))), "normal?", f6_text, *json_),
        _q(check_factor(ty_points), "factor", t_y),
        _q(check_factor(ty_points), "factor", t_y, *json_),
        _q(check_factor(mk_tower), "factor", t_mk),
        _q(check_factor(mk_tower), "factor", t_mk, *json_),
        _q(check_fan(ty_points), "fan", t_y),
        _q(check_fan(mk_tower), "fan", t_mk, *json_),
        _q(check_fan(mk_tower), "fan", t_mk, svg=True),
        _q(check_ferrers(g1), "ferrers", e1),
        _q(check_ferrers(g2), "ferrers", e2, *json_),
        _q(check_ferrers(g1), "ferrers", e1, svg=True),
        _q(check_dynkin(forked_nu), "dynkin", t_forked),
        _q(check_dynkin(forked_nu), "dynkin", t_forked, *json_),
        _q(check_dynkin(forked_nu), "dynkin", t_forked, svg=True),
        _q(check_dynkin(O.two_tower_nu(hx, hy, 1)), "dynkin", t_cross),
        _q(check_dynkin(O.tower_nu(single_exps)), "dynkin", tower_text(*single), *json_),
        _q(check_length(O.staircase_length(O.power(O.roadmap_family(f6), d))),
           "length", f"{f6_text}^{d}", *json_),
        _q(check_nu(d * O.roadmap_family_nu(f6)), "nu", f"{f6_text}^{d}"),
        _q(check_verify_cli, "verify", "--bounds", "quick", "--seed", vseed),
        _q(check_verify_cli, "verify", "--bounds", "quick", "--seed", vseed, *json_),
    ]
    return queries


def monomial_scale(seed: int) -> list[Query]:
    """Few-generator monomial ideals with exponents from 10^3 to 5*10^4."""
    rng = random.Random(seed)
    json_ = ("--format", "json")
    queries = []
    for nominal in (1_000, 5_000, 20_000, 50_000):
        n = _near(rng, nominal, step=6)
        points = O.roadmap_family(n)
        text = gens_text(points)
        queries += [
            _q(check_length(O.staircase_length(points)), "length", text, *json_),
            _q(check_nu(O.roadmap_family_nu(n)), "nu", text, *json_),
            _q(check_normal(O.staircase_length(points) == O.pick_count(points)),
               "normal?", text, *json_),
            _q(check_normalize(points), "normalize", text, *json_),
        ]
    for nominal in (5_000, 50_000):
        a, b = _near(rng, nominal), _near(rng, nominal)
        text = f"(x^{a}, y^{b})"
        queries += [
            _q(check_length(a * b), "length", text, *json_),
            _q(check_nu(a * b), "nu", text, *json_),
            _q(check_normalize([(a, 0), (0, b)]), "normalize", text),
        ]
    for nominal in (20_000, 50_000):
        a, b = _near(rng, nominal), _near(rng, nominal)
        queries.append(_q(check_nu(O.lcm(a, b)), "nu", f"n({a},{b})", *json_))
    for nominal in (10_000, 50_000):
        # the x-power is the sum of the exponents, nominal exactly
        exps = sorted(rng.sample(range(nominal // 10, nominal // 4), 3))
        exps.append(nominal - sum(exps))
        points = O.tower_points("y", exps)
        text = tower_text("y", [], exps)
        queries += [
            _q(check_factor(points), "factor", text, *json_),
            _q(check_fan(points), "fan", text, *json_),
            _q(check_nu(O.tower_nu(exps)), "nu", text, *json_),
            _q(check_normal(True), "normal?", text, *json_),
        ]
    for n, nominal in ((18, 20), (12, 50), (6, 100)):
        d = _near(rng, nominal)
        base = O.roadmap_family(n)
        text = f"{gens_text(base)}^{d}"
        queries += [
            _q(check_nu(d * O.roadmap_family_nu(n)), "nu", text, *json_),
            _q(check_length(O.staircase_length(O.power(base, d))), "length", text, *json_),
        ]
    a, b, d = _near(rng, 30), _near(rng, 30), _near(rng, 100)
    text = f"(x^{a}, y^{b})^{d}"
    queries += [
        _q(check_nu(d * a * b), "nu", text, *json_),
        _q(check_length(O.staircase_length(O.power([(a, 0), (0, b)], d))),
           "length", text, *json_),
    ]
    return queries


def tower_scale(seed: int) -> list[Query]:
    """Tower products of heights about 20 to 120 under nu, dynkin and length."""
    rng = random.Random(seed)
    json_ = ("--format", "json")
    queries = []
    for count, nominal in ((3, 40), (3, 80), (2, 120), (4, 60), (3, 100)):
        heights = sorted((_near(rng, nominal) - 3 * i for i in range(count)), reverse=True)
        towers = [("x", t, range(1, h + 1))
                  for t, h in zip(_forked_tangents(rng, count, heights), heights)]
        text = product_text(towers)
        nu = O.forked_complete_nu(heights)
        queries += [_q(check_nu(nu), "nu", text, *json_), _q(check_dynkin(nu), "dynkin", text)]
    for nominal in (40, 80, 120):
        h1 = _near(rng, nominal)
        h2 = h1 - rng.randint(0, 3)
        depth = h1 // 2
        prefix = [_coeff(rng) if rng.random() < 0.5 else 0 for _ in range(depth - 1)]
        c1, c2 = rng.sample([_coeff(rng) for _ in range(8)], 2)
        while c1 == c2:
            c2 = _coeff(rng)
        towers = [("x", prefix + [c1], range(1, h1 + 1)), ("x", prefix + [c2], range(1, h2 + 1))]
        text = product_text(towers)
        nu = O.two_tower_nu(h1, h2, depth)
        queries += [_q(check_nu(nu), "nu", text, *json_), _q(check_dynkin(nu), "dynkin", text, *json_)]
    for nominal in (40, 80, 120):
        exps = _sparse(rng, _near(rng, nominal), 0.25)
        text = tower_text("x", [_coeff(rng), _coeff(rng)], exps)
        queries += [
            _q(check_nu(O.tower_nu(exps)), "nu", text),
            _q(check_length(O.staircase_length(O.tower_points("x", exps))), "length", text),
        ]
    for nominal in (30, 60, 90):
        heights = [_near(rng, nominal) - 2 * i for i in range(3)]
        sets = [_sparse(rng, h, 0.3) for h in heights]
        towers = [("x", t, s) for t, s in zip(_forked_tangents(rng, 3, heights), sets)]
        text = product_text(towers)
        nu = O.forked_nu(sets)
        queries += [_q(check_nu(nu), "nu", text, *json_), _q(check_dynkin(nu), "dynkin", text)]
    for nominal in (40, 80, 120):
        sx = _sparse(rng, _near(rng, nominal), 0.3)
        sy = _sparse(rng, _near(rng, nominal), 0.3)
        points = O.product(O.tower_points("x", sx), O.tower_points("y", sy))
        text = product_text([("x", [], sx), ("y", [], sy)])
        queries += [
            _q(check_dynkin(_monomial_product_nu(points)), "dynkin", text, *json_),
            _q(check_length(O.staircase_length(points)), "length", text),
        ]
    for nominal in (30, 60, 90):
        hx, hy = _near(rng, nominal), _near(rng, nominal // 2)
        cx, cy = _coeff(rng), _coeff(rng)
        while cx * cy == 1:
            cy = _coeff(rng)
        towers = [("x", [cx, _coeff(rng)], range(1, hx + 1)), ("y", [cy], range(1, hy + 1))]
        points = O.product(O.tower_points("x", range(1, hx + 1)),
                           O.tower_points("y", range(1, hy + 1)))
        text = product_text(towers)
        queries += [
            _q(check_length(O.staircase_length(points)), "length", text, *json_),
            _q(check_nu(O.two_tower_nu(hx, hy, 1)), "nu", text, *json_),
        ]
    return queries


def _recheck(name: str, instance: str):
    """The benchmark's own value for a verify result, where it has one."""
    numbers = [int(v) for v in re.findall(r"(?<![a-z])\d+", instance)]  # not h1, h2
    if name == "length/complete-tower":
        (s,) = numbers
        return s * (s + 1) * (s + 2) // 6
    if name == "length/cross-pair":
        hx, hy = numbers
        return O.staircase_length(O.product(O.tower_points("x", range(1, hx + 1)),
                                            O.tower_points("y", range(1, hy + 1))))
    if name == "nu/normalized-intersection":
        return O.lcm(*numbers)
    if name == "nu/pair-agreement":
        h1, h2, *depth = numbers
        return O.two_tower_nu(h1, h2, depth[0] if depth else 1)
    return None


def check_run_all(results) -> tuple[int, int, list]:
    """(operations, failed, unexpected problems) of one run_all call.

    An operation is one named family of checks, except that the (x^5, y^5)
    definitional closure results are an operation of their own: verify checks
    that seed ideal at p = 4, below the proven bound 5, so it is inconclusive
    on every seed (a random ideal may repeat the instance and pass).  A family
    fails when any of its results does not pass, reports a pass with
    differing values, or disagrees with the benchmark's own value for it.
    """
    families: dict[str, list] = {}
    for r in results:
        key = "known" if (r.name, r.instance) == KNOWN_FAULT else r.name
        families.setdefault(key, []).append(r)
    known = families.pop("known", [])
    problems = [] if known else ["the (x^5, y^5) closure check is missing"]
    problems += [f"{r.name} [{r.instance}] failed: {r.actual}" for r in known if r.status == "fail"]
    failed = 0 if known and all(r.status == "pass" for r in known) else 1
    for name, members in sorted(families.items()):
        bad = []
        for r in members:
            own = _recheck(name, r.instance)
            if r.status != "pass" or r.expected != r.actual or own not in (None, r.actual):
                bad.append(f"{r.status} [{r.instance}] expected {r.expected}, got {r.actual}"
                           + ("" if own in (None, r.actual) else f", benchmark says {own}"))
        if bad:
            failed += 1
            problems.append(f"{name}: {len(bad)} bad, first: {bad[0]}")
    return len(families) + 1, failed, problems


def verify_seeds(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(VERIFY_SEEDS)]


BUILDERS = {
    "cli-session": cli_session,
    "monomial-scale": monomial_scale,
    "tower-scale": tower_scale,
}
WORKLOADS = (*BUILDERS, "verify-sweep")
