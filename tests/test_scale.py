"""Queries whose cost must not depend on the size of the exponents, nor grow
faster than the diagram the tower engine writes.

Each case runs `python -m behrend` in a child process with a 20 s timeout,
so a return of a per-column loop over range(a0), or of a per-level pass
over every tangent prefix, fails cleanly instead of hanging the suite.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from test_cli import FUZZ_COMMANDS, mutated, valid_text

SRC = Path(__file__).resolve().parents[1] / "src"
WIDE = "(x^100000000, y^3)"
N = 600_000_000
FAMILY = f"(x^{N}, x^{N // 2} y^{N // 3}, y^{N + 1})"
SPARSE = "tower(x; g=y; exps=[1, 10000])"  # a 10000-level chain, nu = H + 3
TALL = "tower(x; g=y; exps=[1, 100000000])"  # its diagram would have 10^8 nodes
# a pair's length is read off its diagram, which would have 10^11 nodes
TALL_PAIR = "tower(x; g=y; exps=[1, 100000000000]) * tower(x; g=2*y; exps=[1, 2])"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("BEHREND_FORMAT", None)
    return env


def python(code: str) -> str:
    """Standard output of `python -c code` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=20
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def child(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "behrend", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=20,
    )


def behrend(*argv: str) -> str:
    done = child(*argv)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize(
    "expr,nu,length",
    [(WIDE, 300_000_000, 300_000_000), (FAMILY, 300000000300000000, 240000000300000000)],
)
def test_nu_length_and_normality(expr, nu, length):
    out = behrend("nu", expr).splitlines()
    assert out[:3] == [f"nu = {nu}", f"length = {length}", "normal = false"]
    assert behrend("length", expr).strip() == f"length = {length}"
    assert behrend("normal?", expr).strip() == "not normal"


def test_normalize_wide_ideal():
    assert behrend("normalize", WIDE).strip() == (
        "(x^100000000, x^66666667 y, x^33333334 y^2, y^3)"
    )


def test_first_power_costs_no_squaring():
    # I**1 is I itself; squaring the 50,010 generators would take 2.5 * 10^9 products
    assert behrend("nu", "n(50816,50009)^1").startswith("nu = 2541257344\n")


def convex_family(n: int) -> list[tuple[int, int]]:
    """The generators x^i y^((n-i)^2): each one is a vertex, so n edges."""
    return [(i, (n - i) ** 2) for i in range(n + 1)]


def convex_family_nu(n: int) -> int:
    # the edge from (n-k, k^2) to (n-k-1, (k+1)^2) has d = 1 and e = (2k+1)(n-k) + k^2
    return n * n * (n - 1) - (n - 1) * n * (2 * n - 1) // 6 + n * n - n * (n - 1) // 2


def test_each_edge_reads_only_its_generators():
    # a scan of all n + 1 generators per edge took 1.5 s at n = 4000
    from behrend import MonomialIdeal, nu_monomial

    n = 30_000
    ideal = MonomialIdeal(convex_family(n))
    start = time.perf_counter()
    report = nu_monomial(ideal)
    assert time.perf_counter() - start < 0.5
    assert (report.nu, len(report.components)) == (convex_family_nu(n), n)


def test_nu_of_five_thousand_edges():
    text = "(" + ", ".join(f"x^{a} y^{b}" for a, b in convex_family(5000)) + ")"
    start = time.perf_counter()
    out = behrend("nu", text)
    assert time.perf_counter() - start < 0.5
    assert out.startswith(f"nu = {convex_family_nu(5000)}\n")


def test_power_refused_by_dynkin_is_not_expanded():
    done = child("dynkin", "n(99,99)^99")
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        "unsupported: this expression is not a product of towers (raw generator "
        "lists and n(a,b) atoms have no tower form)\n"
    )


def test_dynkin_of_monomial_tower_pair_skips_the_ideal():
    # dynkin never reads the product ideal, so it must not multiply it out
    h = 3000
    exps = ", ".join(map(str, range(1, h + 1)))
    text = f"tower(x; g=0; exps=[{exps}]) * tower(y; g=0; exps=[{exps}])"
    payload = json.loads(behrend("dynkin", text, "--format", "json"))
    assert len(payload["nodes"]) == 2 * h - 1
    # the root carries all 2h factors; the level-r node of each chain carries
    # min(k, r) from each factor of its own tower and 1 from each of the other's
    chain = sum(r * (r + 1) // 2 + r * (h - r) + h for r in range(2, h + 1))
    assert payload["nu"] == 2 * h + 2 * chain


@pytest.mark.parametrize(
    "argv,first",
    [
        (("nu", "m^1000000"), "nu = 1000000"),
        (("length", "m^1000000"), "length = 500000500000"),
        (("nu", "n(99,99)^99"), "nu = 9801"),
        # the EXPANSION_CAP comment's slowest product; its base is normal
        (("length", "(x^3, x y, y^3)^499"), "length = 748001"),
    ],
)
def test_powers_of_normal_atoms_read_the_polygon(argv, first):
    assert behrend(*argv).splitlines()[0] == first


def test_power_of_a_non_normal_base_is_multiplied_out():
    out = behrend("nu", "(x^6, x^3 y^2, y^7)^100").splitlines()
    assert out[:3] == ["nu = 3300", "length = 166050", "normal = false"]


def refusing(methods: str, argv) -> str:
    """Code for a child that runs main(argv) with the named MonomialIdeal
    methods raising, and prints its exit code last."""
    return (
        "from behrend.ideals import MonomialIdeal\n"
        "def refuse(*args): raise AssertionError('refused call')\n"
        f"for name in {methods.split()!r}: setattr(MonomialIdeal, name, refuse)\n"
        "from behrend.cli import main\n"
        f"print(main({list(argv)!r}))\n"
    )


def test_monomial_tower_products_are_not_multiplied_out():
    from behrend.verify import make_tower, two_tower_length, two_tower_nu

    h = 2000
    exps = ", ".join(map(str, range(1, h + 1)))
    text = f"tower(x; g=0; exps=[{exps}]) * tower(y; g=0; exps=[{exps}])"
    kx, ky = make_tower("x", (), range(1, h + 1)), make_tower("y", (), range(1, h + 1))
    for command, value in (("length", two_tower_length(kx, ky)), ("nu", two_tower_nu(kx, ky))):
        out = python(refusing("__mul__ __pow__", [command, text]))
        assert out.splitlines()[0] == f"{command} = {value}"
        assert out.splitlines()[-1] == "0"


def test_dynkin_refuses_n_ab_without_its_closure():
    # every closure walk, the one n_ab takes included, ends in _canonical
    out = python(refusing("_canonical", ["dynkin", "n(50816,50009)"]))
    assert out.splitlines()[-1] == "3"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("nu", "(x^2, y^2)^1000000"), "the expansion cap of 1000 generators"),
        # the expansion cap before the output cap, and the output cap before any closure
        (("ferrers", "(x^2, y^2)^1000000"), "the expansion cap of 1000 generators"),
        (("ferrers", "m^1000000"), "the output cap of 1000000"),
        (("ferrers", "(x^100000000, y)"), "the output cap of 1000000"),
        (("ferrers", "(x^100000000, y)", "--format", "json"), "the output cap of 1000000"),
        (("normalize", "m^100000000"), "the output cap of 1000000"),
        (("nu", "tower(x; g=y; exps=[1, 3000000])"), "the diagram cap of 150000"),
        (("nu", "tower(x; g=y^5000000; exps=[5000001])"), "the diagram cap of 150000"),
        (("length", TALL_PAIR), "the diagram cap of 150000"),
    ],
)
def test_caps_refuse_with_exit_3(argv, message):
    done = child(*argv)
    assert (done.returncode, done.stdout) == (3, "")
    assert message in done.stderr


def test_answer_of_six_thousand_digits():
    # length of m^d is d(d+1)/2; CPython converts at most 4,300 digits by default
    out = behrend("length", "m^" + "9" * 3000)
    assert out == f"length = {'4' + '9' * 2999 + '5' + '0' * 2999}\n"


def test_sparse_tower_chain():
    assert behrend("nu", SPARSE).startswith("nu = 10003\n")


def test_tall_single_tower_length():
    # a single tower's length is its closed form, O(#exponents)
    assert behrend("length", TALL) == "length = 100000002\n"


def test_factor_cap_spares_a_product_without_powers():
    # one factor over the cap: only the diagram's node cap refuses nu, and
    # length is tower_length's closed form, sum over k of 1 + ... + k
    n = 150_001
    out = python(
        "from behrend.expr import Elaborated\n"
        "from behrend.errors import UnsupportedError\n"
        "from behrend.towers import make_tower\n"
        f"product = Elaborated(((make_tower('x', (1,), range(1, {n + 1})), 1),))\n"
        "print(product.length())\n"
        "try:\n"
        "    product.nu()\n"
        "except UnsupportedError as error:\n"
        "    print(error)\n"
    )
    assert out.splitlines() == [
        str(n * (n + 1) * (n + 2) // 6),
        f"the diagram has {n} nodes, above the diagram cap of 150000",
    ]


def test_four_forked_towers():
    # distinct linear terms fork the tree at level 2; F is the factor count
    heights = [3000, 2999, 2997, 2994]
    linear = [Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5, 2)]
    text = " * ".join(
        f"tower(x; g = {c}*y - y^2 + 3*y^4; exps = [{', '.join(map(str, range(1, h + 1)))}])"
        for c, h in zip(linear, heights)
    )
    f = sum(heights)
    expected = f + sum(
        h * (h + 1) * (2 * h + 1) // 6 - h + (h - 1) * (f - h) for h in heights
    )
    payload = json.loads(behrend("nu", text, "--format", "json"))
    assert payload["nu"] == expected
    assert len(payload["nodes"]) == 1 + sum(h - 1 for h in heights)
    # the towers' lengths plus one shared point for every pair of factors
    # from two towers
    lengths = sum(h * (h + 1) * (h + 2) // 6 for h in heights)
    assert payload["length"] == lengths + (f * f - sum(h * h for h in heights)) // 2


def test_closed_stdout_exits_quietly():
    # the chain's text output (about 370 kB) overfills the pipe, so the child
    # is still writing when the reader closes it
    child = subprocess.Popen(
        [sys.executable, "-m", "behrend", "nu", SPARSE],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    try:
        first = child.stdout.readline()
        child.stdout.close()
        _, err = child.communicate(timeout=20)
    finally:
        child.kill()
    assert first == "nu = 10003\n"
    assert err == ""
    assert child.returncode == 141


def test_cli_import_skips_dataclasses_and_inspect():
    # a behrend process pays for every module it imports; records are
    # NamedTuples so that neither of these heavy modules comes in
    code = "import sys, behrend.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert python(code).strip() == "[]"


# modules a command must not import unless its command or input uses them
WATCHED = ("behrend.verify", "behrend.render", "behrend.towers", "json", "argparse", "fractions")


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (("nu", "(x^2,y^3)"), []),
        (("length", "m^4"), []),
        (("nu", "tower(x; g=y; exps=[1, 3])"), ["behrend.towers", "fractions"]),
        (("fan", "(x^2, x y^2, y^3)"), ["behrend.render"]),
        (("length", "(x^2,y^3)", "--format", "json"), ["json"]),
    ],
)
def test_cold_start_imports_only_what_the_command_uses(argv, loaded):
    # modules already loaded at start-up (a site hook may load json) are not counted
    code = (
        "import sys; before = set(sys.modules); from behrend.cli import main; "
        f"code = main({list(argv)!r}); "
        f"print(code, sorted((set(sys.modules) - before) & set({WATCHED!r})))"
    )
    assert python(code).splitlines()[-1] == f"0 {loaded}"


def test_public_names_resolve_to_their_home_modules():
    import behrend

    assert len(behrend.__all__) == len(set(behrend.__all__)) == 52
    for name in behrend.__all__:
        value = getattr(behrend, name)
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_and_dir_list_every_public_name():
    code = (
        "import behrend; listed = set(dir(behrend)); names = {}; "
        "exec('from behrend import *', names); public = set(behrend.__all__); "
        "print(len(public), set(names) - {'__builtins__'} == public, public <= listed)"
    )
    assert python(code).strip() == "52 True True"


@pytest.mark.parametrize("seed", range(10))
def test_generated_text_in_a_process_exits_with_a_code(seed):
    # test_cli.py's fuzz texts through a real interpreter and its argv:
    # valid texts at odd seeds, mutated ones at even seeds
    rng = random.Random(seed)
    command = rng.choice(FUZZ_COMMANDS)
    text = valid_text(rng) if seed % 2 else mutated(rng, valid_text(rng))
    done = child(command, "--", text)
    assert done.returncode in (0, 1, 2, 3) and "Traceback" not in done.stderr, text
