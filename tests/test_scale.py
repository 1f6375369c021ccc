"""Queries whose cost must not depend on the size of the exponents.

Each case runs `python -m behrend` in a child process with a 20 s timeout,
so a return of a per-column loop over range(a0) fails cleanly instead of
hanging the suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
WIDE = "(x^100000000, y^3)"
N = 600_000_000
FAMILY = f"(x^{N}, x^{N // 2} y^{N // 3}, y^{N + 1})"


def behrend(*argv: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("BEHREND_FORMAT", None)
    done = subprocess.run(
        [sys.executable, "-m", "behrend", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=20,
    )
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
