"""Parsing and printing of ideal and tower expressions.

Grammar (whitespace-insensitive, left-associative `*`, postfix `^`):

    expr     := factor ("*" factor)*
    factor   := atom ("^" INT)?
    atom     := "(" monomial ("," monomial)* ")"
              | "m"
              | "n" "(" INT "," INT ")"
              | "tower" "(" branch ";" "g" "=" poly ";" "exps" "=" "[" INT ("," INT)* "]" ")"
    monomial := "1" | var ("^" INT)? (var ("^" INT)?)*

Variables are fixed to x and y; a z anywhere is rejected as out of scope
(fat points in three or more variables).  parse validates every atom but
multiplies nothing and builds no closure: it returns the expression as a
product of powers of its atoms, m read as the generator list (x, y) and
n(a,b) kept as the pair it names, and Elaborated picks the route that
answers each query.

The parser holds one token of lookahead and scans the next token at its
position with one compiled regular expression.  A search for a character
outside the grammar runs first, so that such a character is reported before
any other error, then one for a digit run longer than DIGIT_CAP.  A tower
literal's tangent is read with one match per term, whose groups also locate
what a malformed term lacks, and its exponent list with one match.
"""

from __future__ import annotations

import re
import sys
from math import comb
from typing import TYPE_CHECKING, NamedTuple

from .errors import ParseError, UnsupportedError, number_text
from .ideals import MAXIMAL_IDEAL, UNIT_IDEAL, MonomialIdeal
from .newton import (
    NewtonPolygon, is_normal, newton_polygon, polygon_closure, polygon_colength, polygon_sum,
)
from .normal_factor import NabFactor, factor_normal, nab_atom, polygon_factors
from .nu import BehrendReport, nu_monomial, nu_normal

if TYPE_CHECKING:  # towers and fractions are imported only where a tower form is built
    from fractions import Fraction

    from .towers import Tower, TowerNuSummary, TowerProduct

# One alternative per token kind after optional whitespace, in ASCII only; the
# empty `end` matches only at the end of the text, since _BAD is searched first.
_TOKEN = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z_]+)|(?P<symbol>[-+^*(),;=\[\]/])|(?P<end>))"
)
_BAD = re.compile(r"[^0-9A-Za-z_\s\-+^*(),;=\[\]/]")  # digits and letters outside ASCII too
# One term of a tower's tangent, every part optional: sign, numerator, "/",
# denominator, "*", name, "^" and exponent.  Each term is its own match with
# one parse, so a malformed literal costs linear time.  Compiled on first use,
# through re's cache, as is the exponent list.
_TERM = (
    r"\s*([-+]?)\s*(?:([0-9]+)\s*(?:(/)\s*([0-9]+)?\s*)?\*?\s*)?"
    r"(?:([A-Za-z_]+)\s*(?:(\^)\s*([0-9]+)?)?)?"
)
_INT_LIST = r"[0-9]+(?:\s*,\s*[0-9]+)*(\s*,)?"


class Token(NamedTuple):
    kind: str  # "int", "name", "end", or the symbol itself
    value: str
    pos: int


# The most digits of an integer literal: int() takes time quadratic in them,
# and CPython (3.10.7 on) refuses more than 4,300 by default.
DIGIT_CAP = 4300
_LONG = re.compile(f"(?<![0-9])[0-9]{{{DIGIT_CAP + 1}}}")  # tries each run once


class UnlimitedIntDigits:
    """Lifts CPython's int-to-str limit (3.10.7 on) inside a with block and
    restores it after: every literal is within DIGIT_CAP, but answers, labels
    and messages may have more digits than the limit allows.  A class, not a
    generator, since each query enters it twice."""

    def __enter__(self):
        self.limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if self.limit:
            sys.set_int_max_str_digits(0)

    def __exit__(self, *exc):
        if self.limit:
            sys.set_int_max_str_digits(self.limit)


# Most generators require_ideal multiplies out.  The cost grows as the square
# of the count: at 1,000 the slowest product tried, (x^3, x y, y^3)^499, takes
# about 0.06 s on a 2-core host, and at 2,000 (x^3, x y, y^3)^999 0.3 s.
EXPANSION_CAP = 1000


class Elaborated(NamedTuple):
    """An expression as a product of powers, answered by one route per query.

    terms holds one (atom, d) pair per factor, in the order written: atom is
    the MonomialIdeal of a generator list (m is the list (x, y)), the
    NabFactor of an n(a,b) or the Tower of a tower literal, and d its
    exponent.

    length, nu, normal, factors and staircase take the first route that fits:
      - for length and nu of non-monomial towers, the diagram engine on the
        product of their factors (require_towers), or tower_length's closed
        form for the length of a single tower, O(#exponents) however tall;
      - for a product of normal atoms (n(a,b), m, monomial towers, normal
        generator lists), which is normal (Zariski), the sum of their Newton
        polygons (polygon), at a cost set by the edges, not the exponents;
      - a lone generator list, read directly;
      - the product multiplied out (require_ideal), refused above
        EXPANSION_CAP.
    A product mixing a non-monomial tower with a generator list or an n(a,b)
    has none of these forms and is refused.
    """

    terms: tuple[tuple[MonomialIdeal | NabFactor | Tower, int], ...]

    @property
    def is_monomial(self) -> bool:
        """Whether require_ideal answers: no atom is a non-monomial tower."""
        return all(
            isinstance(atom, (MonomialIdeal, NabFactor)) or atom.is_monomial
            for atom, _ in self.terms
        )

    def _route(self, from_polygon, from_ideal, from_towers=None):
        """The answer of the first route that applies; from_towers takes the
        towers module and the grouped product."""
        if from_towers and not self.is_monomial:
            from . import towers

            return from_towers(towers, self.require_towers())
        (first, d), *rest = self.terms
        if (rest or d != 1 or not isinstance(first, MonomialIdeal)) and self.is_monomial and all(
            atom.is_finite_colength and is_normal(atom)
            for atom, _ in self.terms if isinstance(atom, MonomialIdeal)
        ):
            return from_polygon(self.polygon())
        return from_ideal(self.require_ideal().require_fat_point())

    def length(self) -> int:
        return self._route(polygon_colength, MonomialIdeal.colength, lambda towers, product: (
            towers.tower_length(product.towers[0]) if len(product.towers) == 1
            else towers.build_dynkin(product).length()
        ))

    def nu(self) -> BehrendReport | TowerNuSummary:
        """The per-edge report of a monomial product, else the diagram summary."""
        return self._route(nu_normal, nu_monomial, lambda towers, product: (
            towers.noncomplete_product_nu(product)
        ))

    def normal(self) -> bool:
        return self._route(lambda polygon: True, is_normal)

    def factors(self) -> tuple[NabFactor, ...]:
        """The n(a,b) factorization; DomainError unless the product is normal."""
        return self._route(polygon_factors, factor_normal)

    def staircase(self, check=lambda a0, b0: None) -> MonomialIdeal:
        """The ideal that `ferrers` draws: the closure of the summed polygon,
        the lone list or the expansion.  check is called with its corners
        (a0, b0) before the closure is built, and may refuse it."""
        return self._route(
            lambda polygon: check(polygon.vertices[0][0], polygon.vertices[-1][1])
            or polygon_closure(polygon),
            lambda ideal: check(ideal.x_power, ideal.y_power) or ideal,
        )

    def polygon(self) -> NewtonPolygon:
        """Newton polygon of the product, normal bases or not: the sum of its
        atoms' polygons or, when an atom has none (a non-monomial tower or a
        generator list without finite colength), the polygon of the product
        multiplied out.  Raises DomainError when the product is no fat point."""
        terms = []
        for atom, d in self.terms:
            if isinstance(atom, NabFactor):
                polygon = atom.polygon
            elif isinstance(atom, MonomialIdeal) and atom.is_finite_colength:
                polygon = newton_polygon(atom)
            elif not isinstance(atom, MonomialIdeal) and atom.is_monomial:
                polygon = newton_polygon(atom.ideal())
            else:
                return newton_polygon(self.require_ideal().require_fat_point())
            terms.append((polygon, d))
        polygon = polygon_sum(terms)
        if not polygon.edges:
            UNIT_IDEAL.require_fat_point()  # raises: the unit ideal is no fat point
        return polygon

    def require_ideal(self) -> MonomialIdeal:
        """The product multiplied out, refused when a bound on its generator
        count exceeds EXPANSION_CAP.  A lone list is returned as written; a
        product with a factor (d >= 1) lacking finite colength lacks it too,
        and is refused first, naming that factor alone."""
        if not self.is_monomial:
            raise UnsupportedError(
                "this expression contains a non-monomial tower and does not "
                "expand to a monomial ideal"
            )
        bases = [(atom if isinstance(atom, (MonomialIdeal, NabFactor)) else atom.ideal(), d)
                 for atom, d in self.terms]
        if sum(d for _, d in bases) > 1:
            for atom, d in self.terms:
                if d and isinstance(atom, MonomialIdeal) and not atom.is_finite_colength:
                    atom.require_fat_point()
            if _generator_bound(bases) > EXPANSION_CAP:
                raise UnsupportedError(
                    f"multiplying this product out could exceed the expansion cap of "
                    f"{EXPANSION_CAP} generators; only products of normal atoms are "
                    "answered without it"
                )
        ideal = None
        for base, d in bases:
            if isinstance(base, NabFactor):
                base = polygon_closure(base.polygon)
            ideal = base**d if ideal is None else ideal * base**d
        return ideal

    def require_towers(self) -> TowerProduct:
        """The towers of d copies of each term's factors.  The list (x, y),
        however written, is m: an exponent-1 factor, which from_factors floats.

        A product with a power is refused above DIAGRAM_CAP factors, before
        any copy is built; one without has no more factors than its text.
        """
        from .towers import DIAGRAM_CAP, TowerProduct, make_tower

        atoms = [(make_tower("x", (), (1,)) if atom == MAXIMAL_IDEAL else atom, d)
                 for atom, d in self.terms]
        if any(isinstance(atom, (MonomialIdeal, NabFactor)) for atom, _ in atoms):
            raise UnsupportedError(
                "this expression is not a product of towers (raw generator "
                "lists and n(a,b) atoms have no tower form)"
            )
        count = sum(d * len(atom.exponents) for atom, d in atoms)
        if count > DIAGRAM_CAP and any(d > 1 for _, d in atoms):
            raise UnsupportedError(f"the product has {number_text(count)} tower factors, "
                                   f"above the diagram cap of {DIAGRAM_CAP}")
        return TowerProduct.from_factors(item for atom, d in atoms for item in (atom,) * d)


def _generator_bound(bases) -> int:
    """A bound on the minimal generators of the product of the B_k^d_k.

    An ideal of order o (the least a + b of a generator) has at most o + 1,
    one per exponent on either side of a generator of degree o, and orders
    add up in products.  A product also has at most as many as there are
    choices of d_k of the n_k generators of each B_k, C(n_k + d_k - 1, d_k),
    which is at least n_k + d_k - 1 when n_k > 1.
    """
    order, picks = 1, 1
    for base, d in bases:
        if isinstance(base, NabFactor):  # n(a,b), unbuilt, has order min(a, b)
            o = base.delta * min(base.alpha, base.beta)
            n = o + 1
        else:
            n = len(base.generators)
            o = min(a + b for a, b in base.generators)
        order += d * o
        if n > 1 and d:
            picks *= comb(n + d - 1, d) if n + d - 1 <= EXPANSION_CAP else EXPANSION_CAP + 1
    return min(order, picks)


class _Parser:
    def __init__(self, text: str):
        bad = _BAD.search(text)
        if bad:
            raise ParseError(f"unexpected character {bad.group()!r}", text, bad.start())
        if _LONG.search(text):
            raise UnsupportedError(f"an integer literal is above the digit cap of {DIGIT_CAP}")
        self.text, self.pos, self.token = text, 0, None
        self.advance()

    def resume(self, pos: int) -> None:
        """Scan the lookahead token at pos, past text read by a match."""
        self.pos = pos
        self.advance()

    def advance(self) -> Token:
        """Consume the lookahead token and scan the next one at self.pos."""
        token = self.token
        match = _TOKEN.match(self.text, self.pos)
        kind = match.lastgroup
        value = match.group(kind)
        self.token = Token(value if kind == "symbol" else kind, value, match.start(kind))
        self.pos = match.end()
        return token

    def fail(self, message: str, pos: int | None = None):
        """Raise at the lookahead token, or at the first token at or after pos."""
        if pos is not None:
            self.resume(pos)
        raise ParseError(message, self.text, self.token.pos)

    def expect(self, kind: str, what: str) -> Token:
        if self.token.kind != kind:
            self.fail(f"expected {what}")
        return self.advance()

    def expect_int(self, what: str) -> int:
        return int(self.expect("int", what).value)

    def int_list(self, what: str) -> list[int]:
        """INT ("," INT)* in one match, whose digit runs are found again:
        int() refuses the \\x1c-\\x1f that \\s matches."""
        match = re.compile(_INT_LIST).match(self.text, self.token.pos)
        if not match or match[1]:  # no INT, or a "," followed by none
            self.fail(f"expected {what}", match and match.end())
        self.resume(match.end())
        return [int(digits) for digits in re.findall("[0-9]+", match[0])]

    # -- grammar -------------------------------------------------------------

    def parse(self) -> Elaborated:
        value = self.expr()
        if self.token.kind != "end":
            self.fail("unexpected trailing input")
        return value

    def expr(self) -> Elaborated:
        terms = [self.factor()]
        while self.token.kind == "*":
            self.advance()
            terms.append(self.factor())
        return Elaborated(tuple(terms))

    def factor(self) -> tuple[MonomialIdeal | NabFactor | Tower, int]:
        atom = self.atom()
        if self.token.kind != "^":
            return atom, 1
        self.advance()
        return atom, self.expect_int("an integer exponent")

    def atom(self) -> MonomialIdeal | NabFactor | Tower:
        token = self.token
        if token.kind == "(":
            return self.generator_list()
        if token.kind == "name" and token.value == "m":
            self.advance()
            return MAXIMAL_IDEAL
        if token.kind == "name" and token.value == "n":
            self.advance()
            self.expect("(", "'(' after n")
            a = self.expect_int("alpha")
            self.expect(",", "','")
            b = self.expect_int("beta")
            self.expect(")", "')'")
            return nab_atom(a, b)
        if token.kind == "name" and token.value == "tower":
            return self.tower_literal()
        self.fail("expected '(', 'm', 'n(a,b)' or 'tower(...)'")

    def generator_list(self) -> MonomialIdeal:
        self.expect("(", "'('")
        gens = [self.monomial()]
        while self.token.kind == ",":
            self.advance()
            gens.append(self.monomial())
        self.expect(")", "')' closing the generator list")
        return MonomialIdeal(gens)

    def monomial(self) -> tuple[int, int]:
        token = self.token
        if token.kind == "int":
            if token.value != "1":
                self.fail("the only constant monomial is 1")
            self.advance()
            return (0, 0)
        exponents = {"x": None, "y": None}
        saw_variable = False
        while self.token.kind == "name":
            name = self.advance()
            for offset, letter in enumerate(name.value):
                if letter == "z":
                    raise UnsupportedError(
                        "three-variable input: only fat points in the plane "
                        "(variables x and y) are supported"
                    )
                if letter not in exponents:
                    raise ParseError(
                        f"unknown variable {letter!r}", self.text, name.pos + offset
                    )
                if exponents[letter] is not None:
                    raise ParseError(
                        f"variable {letter!r} repeated in a monomial",
                        self.text,
                        name.pos + offset,
                    )
                exponents[letter] = 1
                saw_variable = True
                last = letter
            if self.token.kind == "^":
                self.advance()
                exponents[last] = self.expect_int("an integer exponent")
        if not saw_variable:
            self.fail("expected a monomial")
        return (exponents["x"] or 0, exponents["y"] or 0)

    def tower_literal(self) -> Tower:
        from .towers import make_tower

        self.expect("name", "'tower'")
        self.expect("(", "'(' after tower")
        branch_token = self.expect("name", "a branch ('x' or 'y')")
        if branch_token.value not in ("x", "y"):
            self.fail("tower branch must be 'x' or 'y'", branch_token.pos)
        branch = branch_token.value
        self.expect(";", "';'")
        key = self.expect("name", "'g'")
        if key.value != "g":
            self.fail("expected 'g'", key.pos)
        self.expect("=", "'='")
        tangent = self.tangent_poly("y" if branch == "x" else "x")
        self.expect(";", "';'")
        key = self.expect("name", "'exps'")
        if key.value != "exps":
            self.fail("expected 'exps'", key.pos)
        self.expect("=", "'='")
        self.expect("[", "'['")
        exps = self.int_list("an exponent")
        self.expect("]", "']'")
        self.expect(")", "')' closing the tower")
        return make_tower(branch, tangent, exps)

    def tangent_poly(self, variable: str) -> list[Fraction]:
        """Polynomial in the branch-opposite variable with rational coefficients
        and zero constant term, one match per term."""
        from fractions import Fraction

        term_at, terms, pos = re.compile(_TERM).match, [], self.token.pos
        while (term := term_at(self.text, pos))[1] or not terms:  # a sign between terms
            sign, numerator, slash, denominator, name, caret, degree = term.groups()
            if slash and denominator is None:
                self.fail("expected a denominator", term.end(3))
            if denominator and not int(denominator):
                self.fail("zero denominator", term.end(4))
            if name not in (None, variable):
                self.fail(f"the tangent must be a polynomial in {variable!r}", term.start(5))
            if caret and degree is None:
                self.fail("expected an integer exponent", term.end(6))
            if numerator is None and name is None:
                self.fail("expected a tangent term", term.end(1))
            coefficient = Fraction(int(sign + (numerator or "1")), int(denominator or 1))
            terms.append((int(degree or 1) if name else 0, coefficient))
            pos = term.end()
        self.resume(pos)
        return self.coefficients(terms)

    def coefficients(self, terms) -> list[Fraction]:
        """Dense coefficients of degree 1, 2, ... of the summed (degree,
        coefficient) terms, refused before they are built when the degree
        exceeds the diagram cap."""
        coefficients: dict[int, Fraction] = {}
        for degree, term in terms:
            coefficients[degree] = coefficients[degree] + term if degree in coefficients else term
        if coefficients.get(0):
            self.fail("the tangent polynomial must vanish at 0")
        top = max((d for d, c in coefficients.items() if c), default=0)
        from fractions import Fraction

        from .towers import DIAGRAM_CAP

        if top > DIAGRAM_CAP:
            raise UnsupportedError(
                f"the tangent has degree {number_text(top)}, above the diagram cap of {DIAGRAM_CAP}"
            )
        zero = Fraction(0)
        return [coefficients.get(d, zero) for d in range(1, top + 1)]


def parse(text: str) -> Elaborated:
    """Parse an ideal/tower expression; errors carry caret positions.

    Every digit run is within DIGIT_CAP, so each is converted whatever
    int-to-str limit the process has set.
    """
    with UnlimitedIntDigits():
        return _Parser(text).parse()


# -- printers -----------------------------------------------------------------


def ideal_text(ideal: MonomialIdeal) -> str:
    """Canonical text form, generators by descending x-exponent, in one
    pass: closures can print tens of thousands of generators."""
    parts = []
    for a, b in reversed(ideal.generators):
        if a > 1 and b > 1:  # the bulk of a large ideal, in one format
            parts.append(f"x^{a} y^{b}")
        else:
            x = "" if a == 0 else "x" if a == 1 else f"x^{a}"
            y = "" if b == 0 else "y" if b == 1 else f"y^{b}"
            parts.append(f"{x} {y}" if x and y else x or y or "1")
    return "(" + ", ".join(parts) + ")"


def factors_text(factors) -> str:
    """Canonical text of an n_ab factorization, e.g. n(1,2) * n(1,1) * n(2,1)^2."""

    def one(f: NabFactor) -> str:
        base = f"n({f.alpha},{f.beta})"
        return base if f.delta == 1 else f"{base}^{f.delta}"

    return " * ".join(one(f) for f in factors)


def tangent_text(tangent, variable: str) -> str:
    if not tangent:
        return "0"
    parts = []
    for i, c in enumerate(tangent):
        if c == 0:
            continue
        degree = i + 1
        var = variable if degree == 1 else f"{variable}^{degree}"
        magnitude = abs(c)
        body = var if magnitude == 1 else f"{magnitude}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def tower_text(tower: Tower) -> str:
    variable = "y" if tower.branch == "x" else "x"
    exps = ", ".join(map(str, tower.exponents))
    return f"tower({tower.branch}; g = {tangent_text(tower.tangent, variable)}; exps = [{exps}])"


def product_text(product: TowerProduct) -> str:
    return " * ".join(tower_text(t) for t in product.towers)
