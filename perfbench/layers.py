"""Per-layer timing from outside the program.

`Tracer` replaces public functions of `behrend`'s modules with wrappers that
add their wall time to a per-layer total, then puts the originals back.  Only
the outermost call into a layer is timed, so recursion and a layer's calls to
itself (I**d multiplying) count once.  Layers nest: nu_monomial's time
includes the polygon and colength time spent inside it.

Each layer metric is reported on its home workloads, where it should move
the end-to-end metrics named in README.md.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# metric -> (home workloads, [(module, attribute path), ...])
LAYERS = {
    "cli.main_ms": (("cli-session",), [("behrend.cli", "main")]),
    "cli.json_ms": (("cli-session",), [("behrend.cli", "_envelope")]),
    "expr.parse_ms": (("cli-session",), [("behrend.expr", "parse")]),
    "render.text_ms": (("cli-session",), [
        ("behrend.render", "fan_text"), ("behrend.render", "ferrers_text"),
        ("behrend.cli", "_report_text"), ("behrend.cli", "_summary_text"),
    ]),
    "render.dot_ms": (("cli-session",), [("behrend.render", "dynkin_dot")]),
    "render.svg_ms": (("cli-session",), [
        ("behrend.render", "fan_svg"), ("behrend.render", "ferrers_svg"),
        ("behrend.render", "dynkin_svg"),
    ]),
    "ideals.colength_ms": (("monomial-scale",), [("behrend.ideals", "MonomialIdeal.column_heights")]),
    "newton.polygon_ms": (("monomial-scale",), [("behrend.newton", "newton_polygon")]),
    "newton.closure_ms": (("monomial-scale",), [("behrend.newton", "closure_power")]),
    "newton.is_normal_ms": (("monomial-scale",), [("behrend.newton", "is_normal")]),
    "nu.nu_monomial_ms": (("monomial-scale",), [("behrend.nu", "nu_monomial")]),
    "normal_factor.factor_ms": (("monomial-scale",), [("behrend.normal_factor", "factor_normal")]),
    "normal_factor.fan_ms": (("monomial-scale",), [("behrend.normal_factor", "fan_of")]),
    "ideals.canon_ms": (("verify-sweep", "monomial-scale"), [("behrend.ideals", "minimal_generators")]),
    "ideals.product_ms": (("verify-sweep", "monomial-scale"), [
        ("behrend.ideals", "MonomialIdeal.__mul__"), ("behrend.ideals", "MonomialIdeal.__pow__"),
    ]),
    "towers.from_factors_ms": (("tower-scale",), [("behrend.towers", "TowerProduct.from_factors")]),
    "towers.build_dynkin_ms": (("tower-scale",), [("behrend.towers", "build_dynkin")]),
    "towers.expand_ms": (("tower-scale",), [("behrend.towers", "TowerProduct.expand")]),
    "verify.length_forms_ms": (("verify-sweep",), [("behrend.verify", "check_length_forms")]),
    "verify.nu_cross_ms": (("verify-sweep",), [("behrend.verify", "check_nu_cross")]),
    "verify.closure_ms": (("verify-sweep",), [("behrend.verify", "check_closure")]),
}

# count metric -> (home workloads, timed metric whose calls it sizes, size of one result)
COUNTS = {
    "ideals.generators": (("verify-sweep", "monomial-scale"), "ideals.canon_ms", len),
    "towers.nodes": (("tower-scale",), "towers.build_dynkin_ms", lambda d: len(d.nodes)),
    "verify.checks": (("verify-sweep",), "verify.run_all", len),
}
EXTRA_WRAPS = {"verify.run_all": [("behrend.verify", "run_all")]}


class Tracer:
    """Context manager: while active, wrapped layers accumulate ms and counts."""

    def __init__(self):
        self.ms: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list = []

    def __enter__(self):
        sizers = {timed: (name, size) for name, (_, timed, size) in COUNTS.items()}
        targets = {m: paths for m, (_, paths) in LAYERS.items()} | EXTRA_WRAPS
        for metric, paths in targets.items():
            for module, path in paths:
                self._wrap(metric, module, path, sizers.get(metric))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _wrap(self, metric, module_name, path, sizer):
        owner = sys.modules.get(module_name)
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        raw = getattr(owner, "__dict__", {}).get(name)
        if raw is None:
            self.missing.append(f"{module_name}.{path}")
            return
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        wrapper = self._timed(metric, function, sizer)
        if outer:  # a class attribute
            self._set(owner, name, classmethod(wrapper) if is_classmethod else wrapper)
            return
        # a module function: replace every `from ... import` copy of it too
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "behrend":
                for attr, value in list(vars(mod).items()):
                    if value is function:
                        self._set(mod, attr, wrapper)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _timed(self, metric, function, sizer):
        depth, totals, counts = self._depth, self.ms, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            depth[metric] += 1
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                depth[metric] -= 1
                if depth[metric] == 0:
                    totals[metric] += (clock() - start) * 1e3
            if sizer is not None:
                counts[sizer[0]] += sizer[1](result)
            return result

        wrapper.__wrapped__ = function
        return wrapper
