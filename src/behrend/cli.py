"""Command-line interface: behrend <command> <expression> [options].

Exit codes: 0 success, 1 syntax error (with caret diagnostics), 2 domain
error (not finite colength, unit ideal, non-normal input to a normal-only
command, failed verification) or an --svg path that cannot be written,
3 unsupported combination (no engine covers the request) or a request
above a cap (an integer literal of more than expr.DIGIT_CAP digits, a
product with a non-normal base whose expansion could exceed
expr.EXPANSION_CAP generators, a tower product with a power of more
factors than towers.DIAGRAM_CAP or a diagram of more nodes, a closure of
more than NORMALIZE_CAP generators, a staircase of more than FERRERS_CAP columns in
JSON or grid cells in text and SVG), 141 standard output closed by its
reader before all output was written (128 + SIGPIPE, what a shell reports
for a writer the signal stops; no traceback is printed).

The parsed expression (expr.Elaborated) picks the route that answers each
query; this module applies the output caps, formats and prints.
"""

from __future__ import annotations

import os
import re
import sys
from collections import Counter
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import DomainError, ParseError, UnsupportedError, number_text
from .expr import UnlimitedIntDigits, factors_text, ideal_text, parse
from .newton import closure_size, polygon_closure
from .normal_factor import factors_fan
from .nu import BehrendReport

if TYPE_CHECKING:
    from .ideals import MonomialIdeal
    from .normal_factor import Fan
    from .towers import TowerNuSummary

# A process imports only what its command and input use: verify, render,
# towers and json are imported in the branches that need them.

SCHEMA_VERSION = 1
EXIT_BROKEN_PIPE = 141
# Output caps: normalize prints at most this many generators, ferrers at
# most this many columns in JSON and grid cells in text and SVG.
NORMALIZE_CAP = 1_000_000
FERRERS_CAP = 1_000_000


def _envelope(kind: str, payload: dict) -> str:
    import json

    # every payload is a fresh tree, so the encoder need not look for cycles
    return json.dumps({"schema_version": SCHEMA_VERSION, "kind": kind, **payload},
                      check_circular=False)


def ideal_json(ideal: MonomialIdeal) -> dict:
    return {"generators": ideal.generators, "text": ideal_text(ideal)}


def report_json(report: BehrendReport) -> dict:
    vertices = [report.components[0].edge.start] if report.components else []
    vertices += [c.edge.end for c in report.components]
    return {
        "nu": report.nu,
        "length": report.length,
        "normal": report.normal,
        "polygon": {"vertices": vertices},
        "components": [
            {
                "ray": c.edge.inward_ray,
                "step": c.edge.primitive_step,
                "lattice_length": c.edge.lattice_length,
                "e": c.e,
                "d": c.d,
                "contribution": c.d * c.e,
            }
            for c in report.components
        ],
    }


def fan_json(fan: Fan) -> dict:
    cones = [{"rays": c.rays, "index": c.index, "label": c.label} for c in fan.cones]
    return {"rays": fan.rays, "cones": cones}


def dynkin_json(summary: TowerNuSummary) -> dict:
    diagram = summary.diagram
    return {
        "nu": summary.nu,
        "length": summary.length,
        "nodes": [
            {"level": level, "members": members, "factors": factors,
             "self_intersection": self_intersection, "multiplicity": multiplicity,
             "surviving": surviving}
            for level, members, factors, self_intersection, multiplicity, surviving
            in zip(diagram.levels, diagram.members, diagram.factors,
                   diagram.self_intersection, diagram.multiplicity, diagram.surviving)
        ],
        "edges": diagram.edges,
    }


def _report_text(report: BehrendReport) -> str:
    lines = [
        f"nu = {report.nu}",
        f"length = {report.length}",
        f"normal = {'true' if report.normal else 'false'}",
        "components (ray, e, d, d*e):",
    ]
    for c in report.components:
        beta, alpha = c.edge.inward_ray
        lines.append(f"  ({beta}, {alpha})  e={c.e}  d={c.d}  {c.d * c.e}")
    if not report.normal:
        lines.append("note: component count is an upper bound for non-normal ideals")
    return "\n".join(lines)


def _summary_text(summary: TowerNuSummary) -> str:
    lines = [f"nu = {summary.nu}", f"length = {summary.length}"]
    lines.append("nodes (level, multiplicity, surviving):")
    diagram = summary.diagram
    for level, multiplicity, surviving in zip(diagram.levels, diagram.multiplicity,
                                              diagram.surviving):
        flag = "kept" if surviving else "contracted"
        lines.append(f"  level {level}  mult {multiplicity}  [{flag}]")
    return "\n".join(lines)


def _write_svg(path: str, content: str) -> None:
    """Write before anything is printed, so a failed write leaves stdout empty."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
    except OSError as error:
        raise DomainError(f"cannot write SVG to {path}: {error.strerror}") from None


def _run_command(args) -> int:
    as_json = args.format == "json"
    if args.command == "verify":
        return _run_verify(args)

    elaborated = parse(args.expr)

    if args.command == "dynkin":
        from . import render
        from .towers import noncomplete_product_nu

        product = elaborated.require_towers()
        summary = noncomplete_product_nu(product)
        if args.svg:
            _write_svg(args.svg, render.dynkin_svg(summary.diagram, product))
        if as_json:
            print(_envelope("dynkin", dynkin_json(summary)))
        else:
            print(render.dynkin_dot(summary.diagram, product))
        return 0

    if args.command == "normalize":
        polygon = elaborated.polygon()
        _check_output(closure_size(polygon), NORMALIZE_CAP, "the closure", "generators")
        closure = polygon_closure(polygon)
        print(_envelope("ideal", ideal_json(closure)) if as_json else ideal_text(closure))
        return 0

    if args.command == "length":
        value = elaborated.length()
        print(_envelope("length", {"length": value}) if as_json else f"length = {value}")
        return 0

    if args.command == "nu":
        report = elaborated.nu()
        if isinstance(report, BehrendReport):
            print(_envelope("nu", report_json(report)) if as_json else _report_text(report))
        else:
            print(_envelope("nu", dynkin_json(report)) if as_json else _summary_text(report))
        return 0

    if args.command == "normal?":
        normal = elaborated.normal()
        if as_json:
            print(_envelope("normal", {"normal": normal}))
        else:
            print("normal" if normal else "not normal")
        return 0

    if args.command == "factor":
        factors = elaborated.factors()
        if as_json:
            atoms = [{"alpha": f.alpha, "beta": f.beta, "delta": f.delta} for f in factors]
            print(_envelope("factorization", {"factors": atoms}))
        else:
            print(factors_text(factors))
        return 0

    if args.command == "fan":
        from . import render

        fan = factors_fan(elaborated.factors())
        if args.svg:
            _write_svg(args.svg, render.fan_svg(fan))
        print(_envelope("fan", fan_json(fan)) if as_json else render.fan_text(fan))
        return 0

    if args.command == "ferrers":
        from . import render

        def check(a0: int, b0: int) -> None:
            if as_json and not args.svg:
                _check_output(a0, FERRERS_CAP, "the staircase", "columns")
            else:
                _check_output(a0 * b0, FERRERS_CAP, "the staircase grid", "cells")

        diagram = elaborated.staircase(check).ferrers()
        if args.svg:
            _write_svg(args.svg, render.ferrers_svg(diagram))
        if as_json:
            print(_envelope("ferrers", {"column_heights": diagram.column_heights}))
        else:
            print(render.ferrers_text(diagram))
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def _check_output(size: int, cap: int, what: str, unit: str) -> None:
    if size > cap:
        raise UnsupportedError(
            f"{what} has {number_text(size)} {unit}, above the output cap of {cap}")


def _run_verify(args) -> int:
    from .verify import PRESETS, run_all, summarize

    bounds = PRESETS[args.bounds]
    results = run_all(seed=args.seed, bounds=bounds)
    counts = summarize(results)
    if args.format == "json":
        payload = {
            "seed": args.seed,
            "bounds": bounds.name,
            "counts": counts,
            "results": [
                {
                    "name": r.name,
                    "instance": r.instance,
                    "expected": str(r.expected),
                    "actual": str(r.actual),
                    "status": r.status,
                }
                for r in results
            ],
        }
        print(_envelope("verify", payload))
    else:
        print(f"seed = {args.seed}, bounds = {bounds.name}")
        total = Counter(r.name for r in results)
        passed = Counter(r.name for r in results if r.status == "pass")
        for name in sorted(total):
            print(f"  {name}: {passed[name]}/{total[name]} pass")
        for r in results:
            if r.status != "pass":
                print(f"  {r.status.upper()} {r.name} [{r.instance}]: "
                      f"expected {r.expected}, got {r.actual}")
        print(
            f"total: {counts['pass']} pass, {counts['fail']} fail, "
            f"{counts['inconclusive']} inconclusive"
        )
    return 0 if counts["fail"] == 0 else 2


# command: (help line, takes an expression, options besides --format)
COMMANDS = {
    "length": ("colength of the fat point", True, ()),
    "nu": ("Behrend number with per-component breakdown", True, ()),
    "normalize": ("integral closure of the ideal", True, ()),
    "normal?": ("test whether the ideal is normal (alias: normal)", True, ()),
    "factor": ("factor a normal ideal into n(a,b) atoms", True, ()),
    "fan": ("toric fan of the blowup of a normal ideal", True, ("--svg",)),
    "ferrers": ("staircase diagram of the ideal", True, ("--svg",)),
    "dynkin": ("exceptional-curve diagram of a tower product (DOT)", True, ("--svg",)),
    "verify": ("run the brute-force verification suite", False, ("--seed", "--bounds")),
}
# --bounds lists the keys of verify.PRESETS, so that reading argv skips verify
CHOICES = {"--format": ("text", "json"), "--bounds": ("default", "quick")}
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # a positional, as argparse reads it


def _usage(command: str | None) -> str:
    _, expr, extra = COMMANDS.get(command, ("", True, ()))
    shown = [f"[{n} {{{','.join(CHOICES[n])}}}]" if n in CHOICES else
             f"[{n} {'SEED' if n == '--seed' else 'PATH'}]" for n in ("--format", *extra)]
    return " ".join(["usage: behrend", command or "<command>", "[-h]", *shown] + ["expr"] * expr)


def _refuse(command: str | None, message: str):
    print(f"{_usage(command)}\nbehrend: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _option(token: str, names: tuple[str, ...]):
    """None for a positional, else (the option that the token or its unique
    prefix names, or None, and the value after '=' or None)."""
    if token[:1] != "-" or token == "-":
        return None
    if token[:2] == "-h" and len(token) > 2:  # -h with a value joined on
        return "-h", token[2:]
    head, eq, value = token.partition("=")
    found = [name for name in names if name.startswith(head)]
    if len(found) > 1 and head[:2] == "--":
        _refuse(None, f"ambiguous option: {token} could match {', '.join(found)}")
    if len(found) == 1:
        return found[0], value if eq else None
    return None if _NEGATIVE.match(token) or " " in token else (None, None)


def read_args(argv):
    """The six fields _run_command reads, as argparse read them: options go
    anywhere after the command, as --name value, --name=value or a unique
    prefix of the name, and every token after "--" is a positional."""
    args = SimpleNamespace(command=None, expr=None, format=None, svg=None, seed=0,
                           bounds="default")
    names, plain, extra, tokens = ("-h", "--help"), [], [], iter(argv)
    for token in tokens:
        option = None if token == "--" else _option(token, names)
        if option is None and args.command is None:
            args.command = "normal?" if token == "normal" else token
            if args.command not in COMMANDS:
                _refuse(None, f"invalid command {token!r} (choose from {', '.join(COMMANDS)})")
            names += ("--format", *COMMANDS[args.command][2])
        elif token == "--":
            plain += tokens
        elif option is None or option[0] is None:
            (extra if option else plain).append(token)
        elif option[0] in ("-h", "--help"):
            if option[1] is not None:
                _refuse(args.command, f"{option[0]} takes no value")
            rows = [args.command] if args.command else COMMANDS
            print(_usage(args.command), *(f"  {c:<10} {COMMANDS[c][0]}" for c in rows),
                  "--format defaults to BEHREND_FORMAT, else text", sep="\n")
            raise SystemExit(0)
        else:
            name, value = option
            if value is None and ((value := next(tokens, "--")) == "--" or _option(value, names)):
                _refuse(args.command, f"{name} expects a value")
            if name == "--seed":
                try:
                    value = int(value)
                except ValueError:
                    _refuse(args.command, f"--seed takes an integer, not {value!r}")
            elif value not in CHOICES.get(name, (value,)):
                _refuse(args.command, f"{name} takes {' or '.join(CHOICES[name])}, not {value!r}")
            setattr(args, name[2:], value)
    if args.command is None or COMMANDS[args.command][1] and not plain:
        _refuse(args.command, "an expression is required" if args.command else "no command")
    args.expr = plain.pop(0) if COMMANDS[args.command][1] else None
    if extra or plain:
        _refuse(args.command, "unrecognized arguments: " + " ".join(extra + plain))
    return args


def main(argv=None) -> int:
    args = read_args(sys.argv[1:] if argv is None else argv)
    if args.format is None:
        env_format = os.environ.get("BEHREND_FORMAT", "text")
        args.format = env_format if env_format in ("text", "json") else "text"
    # a length is quadratic in the exponents, so answers may outgrow the literals
    with UnlimitedIntDigits():
        try:
            code = _run_command(args)
            sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
            return code
        except BrokenPipeError:
            # The reader went away (`behrend nu ... | head -1`).  Point stdout at
            # devnull so that the interpreter's last flush has nowhere to fail.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return EXIT_BROKEN_PIPE
        except ParseError as error:
            print(f"syntax error: {error.diagnostic()}", file=sys.stderr)
            return 1
        except DomainError as error:
            print(f"domain error: {error}", file=sys.stderr)
            return 2
        except UnsupportedError as error:
            print(f"unsupported: {error}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
