"""Text, DOT and SVG renderings of diagrams: staircases, fans, curve trees."""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING

from .expr import tangent_text

if TYPE_CHECKING:  # so that fan and ferrers do not import towers
    from .ideals import FerrersDiagram
    from .normal_factor import Fan
    from .towers import DynkinDiagram, TowerProduct


def ferrers_text(diagram: FerrersDiagram) -> str:
    """Staircase as a grid of boxes, widest row at the bottom."""
    heights = diagram.column_heights
    if not heights:
        return "(empty diagram)"
    rows = []
    for b in range(heights[0] - 1, -1, -1):
        rows.append("".join("# " if h > b else "  " for h in heights).rstrip())
    return "\n".join(rows)


def fan_text(fan: Fan) -> str:
    lines = ["rays: " + ", ".join(f"({r[0]}, {r[1]})" for r in fan.rays)]
    for cone in fan.cones:
        (u, v) = cone.rays
        note = "" if cone.label.startswith("index") else f" ({cone.label})"
        lines.append(
            f"cone <({u[0]}, {u[1]}), ({v[0]}, {v[1]})>: index {cone.index}{note}"
        )
    return "\n".join(lines)


def _label_prefixes(product: TowerProduct) -> list[str]:
    """Each tower's factor label up to its exponent, "(x + g) + m^"."""
    prefixes = []
    for t in product.towers:
        g = tangent_text(t.tangent, "y" if t.branch == "x" else "x")
        prefixes.append(f"({t.branch}) + m^" if g == "0" else f"({t.branch} + {g}) + m^")
    return prefixes


def _node_label(level: int, factors, prefixes: list[str]) -> str:
    """The node's factors, or its level when none attaches to it."""
    if not factors:
        return f"level {level}"
    return ", ".join(["m" if k == 1 else f"{prefixes[t]}{k}" for t, k in factors])


def _drawn(diagram: DynkinDiagram):
    """Per node, read off the columns: index, level, factors,
    self-intersection, multiplicity and survival."""
    return zip(count(), diagram.levels, diagram.factors, diagram.self_intersection,
               diagram.multiplicity, diagram.surviving)


def dynkin_dot(diagram: DynkinDiagram, product: TowerProduct) -> str:
    """DOT graph; levels become ranks so renders match the leveled pictures."""
    lines = ["graph dynkin {", "  rankdir=BT;", "  node [shape=circle];"]
    by_level: dict[int, list[int]] = {}
    prefixes = _label_prefixes(product)
    for index, level, factors, self_intersection, multiplicity, surviving in _drawn(diagram):
        by_level.setdefault(level, []).append(index)
        flag = 'kept"' if surviving else 'contracted", style=dashed'
        lines.append(
            f'  n{index} [label="{_node_label(level, factors, prefixes)}\\nself-int '
            f'{self_intersection}, mult {multiplicity}, {flag}];'
        )
    for level in sorted(by_level):
        lines.append(f"  {{ rank=same; n{'; n'.join(map(str, by_level[level]))}; }}")
    lines += [f"  n{a} -- n{b};" for a, b in diagram.edges]
    lines.append("}")
    return "\n".join(lines)


# -- SVG ------------------------------------------------------------------------

_SVG_HEAD = '<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">'


def _svg(width: int, height: int, body: list[str]) -> str:
    return "\n".join([_SVG_HEAD.format(w=width, h=height), *body, "</svg>"])


def ferrers_svg(diagram: FerrersDiagram) -> str:
    heights = diagram.column_heights
    cell = 20
    width = max(len(heights), 1) * cell + 2
    top = heights[0] if heights else 1
    height = top * cell + 2
    body = []
    for a, h in enumerate(heights):
        for b in range(h):
            body.append(
                f'<rect x="{1 + a * cell}" y="{1 + (top - 1 - b) * cell}" '
                f'width="{cell}" height="{cell}" fill="#cfe2ff" stroke="black"/>'
            )
    return _svg(width, height, body)


def fan_svg(fan: Fan) -> str:
    size = 320
    origin = (20, size - 20)
    scale = size - 60
    body = []
    for ray in fan.rays:
        norm = max(ray)
        dx = ray[0] / norm
        dy = ray[1] / norm
        x = origin[0] + dx * scale
        y = origin[1] - dy * scale
        body.append(
            f'<line x1="{origin[0]}" y1="{origin[1]}" x2="{x:.1f}" y2="{y:.1f}" '
            'stroke="black"/>'
        )
        body.append(
            f'<text x="{x:.1f}" y="{y - 4:.1f}" font-size="12">({ray[0]}, {ray[1]})</text>'
        )
    for cone in fan.cones:
        (u, v) = cone.rays
        mx = origin[0] + (u[0] / max(u) + v[0] / max(v)) / 2 * scale * 0.45
        my = origin[1] - (u[1] / max(u) + v[1] / max(v)) / 2 * scale * 0.45
        body.append(f'<text x="{mx:.1f}" y="{my:.1f}" font-size="11">{cone.label}</text>')
    return _svg(size, size, body)


def dynkin_svg(diagram: DynkinDiagram, product: TowerProduct) -> str:
    levels: dict[int, list[int]] = {}
    for index, level in enumerate(diagram.levels):
        levels.setdefault(level, []).append(index)
    max_level = max(levels)
    max_row = max(len(v) for v in levels.values())
    step_x, step_y, r = 150, 80, 12
    width = max_row * step_x + step_x
    height = max_level * step_y + step_y
    position = {}
    for level, members in levels.items():
        for column, index in enumerate(sorted(members)):
            x = (column + 1) * step_x
            y = height - level * step_y
            position[index] = (x, y)
    prefixes = _label_prefixes(product)
    body = []
    for a, b in diagram.edges:
        (xa, ya), (xb, yb) = position[a], position[b]
        body.append(f'<line x1="{xa}" y1="{ya}" x2="{xb}" y2="{yb}" stroke="black"/>')
    for index, level, factors, self_intersection, multiplicity, surviving in _drawn(diagram):
        x, y = position[index]
        fill = "#cfe2ff" if surviving else "white"
        dash = "" if surviving else ' stroke-dasharray="4 2"'
        body.append(
            f'<circle cx="{x}" cy="{y}" r="{r}" fill="{fill}" stroke="black"{dash}/>'
        )
        label = _node_label(level, factors, prefixes)
        body.append(f'<text x="{x + r + 4}" y="{y - 4}" font-size="11">{label}</text>')
        body.append(
            f'<text x="{x + r + 4}" y="{y + 10}" font-size="11">'
            f"{self_intersection}, mult {multiplicity}</text>"
        )
    return _svg(width, height, body)
