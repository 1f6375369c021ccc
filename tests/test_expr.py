import random
import re
import sys
import time
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from behrend import (
    MAXIMAL_IDEAL,
    DomainError,
    Factor,
    MonomialIdeal,
    NabFactor,
    ParseError,
    TowerProduct,
    UnsupportedError,
    factor_normal,
    factors_text,
    ideal_text,
    make_tower,
    n_ab,
    parse,
    product_text,
    tower_text,
)
from behrend.expr import tangent_text


class TestParsing:
    def test_maximal_power(self):
        assert parse("m^3").require_ideal() == MAXIMAL_IDEAL**3

    def test_generator_list(self):
        assert parse("(x^7, x^3 y, x^2 y^3, x y^4, y^6)").require_ideal() == MonomialIdeal(
            [(7, 0), (3, 1), (2, 3), (1, 4), (0, 6)]
        )

    def test_whitespace_insensitive(self):
        assert parse("( x^7,x^3 y, x^2y^3, xy^4, y^6 )").require_ideal() == parse(
            "(x^7, x^3 y, x^2 y^3, x y^4, y^6)"
        ).require_ideal()

    def test_exponent_one_optional(self):
        assert parse("(x^1 y^1)").require_ideal() == parse("(x y)").require_ideal()

    def test_m_is_the_list_of_x_and_y(self):
        assert parse("m") == parse("(x, y)") == parse("(y, x, x y)")
        assert parse("m^2 * n(1,2)") == parse("(x, y)^2 * n(1,2)")

    def test_unit_ideal(self):
        assert parse("(1)").require_ideal() == MonomialIdeal([(0, 0)])

    def test_list_with_alias_product(self):
        value = parse("(x^2, x y^2, y^3) * n(1,1)")
        assert value.require_ideal() == n_ab(2, 3) * MAXIMAL_IDEAL

    def test_tower_pair(self):
        value = parse("tower(x; g=0; exps=[2]) * tower(y; g=0; exps=[3])")
        assert value.require_ideal() == MonomialIdeal([(1, 1), (4, 0), (0, 3)])
        product = value.require_towers()
        assert len(product.towers) == 2

    def test_tangent_coefficients(self):
        value = parse("tower(x; g = 1/2*y^2 - y^3; exps = [4, 5])")
        (tower,) = value.require_towers().towers
        assert tower.tangent == (Fraction(0), Fraction(1, 2), Fraction(-1))

    def test_non_monomial_tower_has_no_ideal(self):
        value = parse("tower(x; g = y; exps = [2])")
        assert not value.is_monomial
        with pytest.raises(UnsupportedError):
            value.require_ideal()

    def test_mixed_product_rejected_both_ways(self):
        value = parse("(x^2, y^2) * tower(x; g = y; exps = [2])")
        with pytest.raises(UnsupportedError):
            value.require_ideal()
        with pytest.raises(UnsupportedError):
            value.require_towers()

    def test_power_kept_unexpanded(self):
        # n(a,b) stays the atom n(a/g, b/g)^g, g = gcd(a, b), its generators unbuilt
        (term,) = parse("n(99,99)^99").terms
        assert term == (NabFactor(1, 1, 99), 99)
        assert parse("n(4,6)^3").require_ideal() == n_ab(12, 18)

    def test_parse_multiplies_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("parse multiplied")

        for name in ("__mul__", "__pow__"):
            monkeypatch.setattr(MonomialIdeal, name, refuse)
        monkeypatch.setattr(TowerProduct, "from_factors", refuse)
        value = parse("n(2,3)^4 * (x^2, y) * m^3 * tower(x; g = 0; exps = [1, 2])^2")
        assert [d for _, d in value.terms] == [4, 1, 3, 2]
        assert value.is_monomial

    def test_three_variables_rejected(self):
        with pytest.raises(UnsupportedError):
            parse("(x, y, z)")

    def test_unknown_variable_is_syntax_error(self):
        with pytest.raises(ParseError):
            parse("(x, w)")

    def test_caret_position(self):
        with pytest.raises(ParseError) as info:
            parse("(x^2, )")
        assert info.value.position == 6
        assert "^" in info.value.diagnostic()

    def test_parse_error_survives_copy_and_pickle(self):
        import copy
        import pickle

        with pytest.raises(ParseError) as info:
            parse("(x^2, )")
        for clone in (copy.copy(info.value), pickle.loads(pickle.dumps(info.value))):
            assert clone.diagnostic() == info.value.diagnostic()

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("m^2 extra")

    def test_exponent_list_separators_are_whitespace(self):
        # \s matches \x1c-\x1f, which int() does not strip
        (atom, _), = parse("tower(x; g=y; exps=[1,\x1c2 ,\x1f3])").terms
        assert atom.exponents == (1, 2, 3)

    def test_tower_validation_propagates(self):
        with pytest.raises(DomainError):
            parse("tower(x; g = y^3; exps = [2])")  # deg g >= height

    def test_constant_tangent_rejected(self):
        with pytest.raises(ParseError):
            parse("tower(x; g = 1; exps = [2])")

    def test_tangent_in_wrong_variable(self):
        with pytest.raises(ParseError):
            parse("tower(x; g = x^2; exps = [3])")

    def test_repeated_variable_rejected(self):
        with pytest.raises(ParseError):
            parse("(x x)")


# Malformed tower literals: the message and the caret position of each
MALFORMED_TOWERS = [
    ("tower(x; g=y; exps=[])", "expected an exponent", 20),
    ("tower(x; g=y; exps=[1,,2])", "expected an exponent", 22),
    ("tower(x; g=y; exps=[1, 2,])", "expected an exponent", 25),
    ("tower(x; g=y; exps=[1 2])", "expected ']'", 22),
    ("tower(x; g=y; exps=[1, x])", "expected an exponent", 23),
    ("tower(x; g=y; exps=[1, 2", "expected ']'", 24),
    ("tower(x; g=1/0*y; exps=[2])", "zero denominator", 14),
    ("tower(x; g=x^2; exps=[3])", "the tangent must be a polynomial in 'y'", 11),
    ("tower(y; g=x + y; exps=[3])", "the tangent must be a polynomial in 'x'", 15),
    ("tower(x; g=y + 1; exps=[2])", "the tangent polynomial must vanish at 0", 16),
    ("tower(x; g=+; exps=[2])", "expected a tangent term", 12),
    ("tower(x; g=y^; exps=[2])", "expected an integer exponent", 13),
    ("tower(x; g=--y; exps=[2])", "expected a tangent term", 12),
    ("tower(x; g=y*2; exps=[2])", "expected ';'", 12),
    ("tower(x; g=2*; exps=[2])", "the tangent polynomial must vanish at 0", 13),
    ("tower(x; g=3/0*y; exps=[2])", "zero denominator", 14),
    ("tower(x; g=y; exps=[1, \u0662])", "unexpected character '\u0662'", 23),
    ("tower(x; g=y; exps=[1, 2\u00e9])", "unexpected character '\u00e9'", 24),
    ("tower(x; g=1/ y; exps=[2])", "expected a denominator", 14),
    ("tower(x; g=yy; exps=[2])", "the tangent must be a polynomial in 'y'", 11),
    ("tower(x; g=2 2 y; exps=[2])", "the tangent polynomial must vanish at 0", 13),
    ("tower(x; g=y ^ ; exps=[2])", "expected an integer exponent", 15),
    ("tower(x; g=1/0 y; exps=[2])", "zero denominator", 15),
    ("tower(x; g=y exps=[2])", "expected ';'", 13),
]


@pytest.mark.parametrize("text,message,position", MALFORMED_TOWERS)
def test_malformed_tower_diagnostics(text, message, position):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (str(info.value), info.value.position) == (message, position)


# A malformed end after many implicit-product terms ("1 y^j"): each term has
# one parse, so the reader gives up in linear time.  A pattern that let the
# space of "1 y" split two ways took over 2 s at 20 terms, doubling per term.
MANY_TERMS = " + ".join(f"1 y^{j}" for j in range(1, 25))


@pytest.mark.parametrize(
    "tail,message,position",
    [
        ("exps=[1,,30])", "expected an exponent", 225),
        ("exps=[1, 30,])", "expected an exponent", 229),
        ("exps=[1, 30]", "expected ')' closing the tower", 229),
        ("exsp=[1, 30])", "expected 'exps'", 217),
    ],
)
def test_malformed_tail_after_many_terms_fails_fast(tail, message, position):
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse(f"tower(x; g={MANY_TERMS}; {tail}")
    assert time.perf_counter() - start < 0.5
    assert (str(info.value), info.value.position) == (message, position)


# Tangents the per-term reader accepts, and the tower each one parses to
ACCEPTED_TANGENTS = [
    ("2/3 y", (Fraction(2, 3),)),
    ("+y", (1,)),
    ("y + y", (2,)),
    ("y - y", ()),
    ("0*y^5", ()),
    ("1 / 2 * y ^ 2", (0, Fraction(1, 2))),
]


@pytest.mark.parametrize("tangent,coefficients", ACCEPTED_TANGENTS)
def test_accepted_tangent_forms(tangent, coefficients):
    (atom, _), = parse(f"tower(x; g={tangent}; exps=[1, 6])").terms
    assert atom == make_tower("x", coefficients, (1, 6))


def test_tower_patterns_compile_on_first_use(monkeypatch):
    from behrend import expr

    compiled = []
    compile_ = re.compile
    monkeypatch.setattr(re, "compile", lambda *args: compiled.append(args[0]) or compile_(*args))
    parse("n(2,3)^4 * (x^2, y) * m^3")
    assert compiled == []
    parse("tower(x; g=y - 2/3 y^2; exps=[3, 4])")
    assert compiled == [expr._TERM, expr._INT_LIST]


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit before 3.10.7"
)
def test_literals_above_a_lowered_int_to_str_limit():
    # parse converts each digit run whatever limit the process has set, and
    # restores that limit, also when it refuses the text
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        d = 10**2000 - 1
        assert parse("m^" + "9" * 2000).length() == d * (d + 1) // 2
        tower = parse(f"tower(x; g={'9' * 2000}/7*y; exps=[1, {'9' * 2000}])").require_towers()
        assert tower.towers[0].tangent == (Fraction(d, 7),)
        assert tower.towers[0].exponents == (1, d)
        assert sys.get_int_max_str_digits() == 1000
        with pytest.raises(ParseError):
            parse("m^" + "9" * 2000 + " +")
        assert sys.get_int_max_str_digits() == 1000
    finally:
        sys.set_int_max_str_digits(before)


def test_sparse_tangent_text_round_trip():
    rng = random.Random(71)
    for _ in range(60):
        branch, degree = rng.choice("xy"), rng.randint(1, 150)
        tangent = [
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
            if rng.random() < 0.1 or d == degree else Fraction(0)
            for d in range(1, degree + 1)
        ]
        text = tangent_text(tangent, "y" if branch == "x" else "x")
        (atom, _), = parse(f"tower({branch}; g = {text}; exps = [{degree + 1}])").terms
        assert atom.tangent == tuple(tangent)


class TestPrinting:
    def test_ideal_text_descending(self):
        I = MonomialIdeal([(0, 6), (1, 4), (2, 3), (3, 1), (7, 0)])
        assert ideal_text(I) == "(x^7, x^3 y, x^2 y^3, x y^4, y^6)"

    def test_unit_text(self):
        assert ideal_text(MonomialIdeal([(0, 0)])) == "(1)"

    @pytest.mark.parametrize(
        "exponent, text",
        [
            ((0, 0), "1"),
            ((1, 0), "x"),
            ((0, 1), "y"),
            ((1, 1), "x y"),
            ((5, 0), "x^5"),
            ((0, 12), "y^12"),
            ((1, 3), "x y^3"),
            ((4, 1), "x^4 y"),
            ((2, 9), "x^2 y^9"),
        ],
    )
    def test_every_monomial_shape(self, exponent, text):
        assert ideal_text(MonomialIdeal([exponent])) == f"({text})"

    def test_factors_text(self):
        villa = MonomialIdeal([(6, 0), (4, 1), (2, 2), (1, 3), (0, 5)])
        assert factors_text(factor_normal(villa)) == "n(1,2) * n(1,1) * n(2,1)^2"

    def test_tower_text(self):
        t = make_tower("x", (0, Fraction(1, 2), -1), (4, 5))
        assert tower_text(t) == "tower(x; g = 1/2*y^2 - y^3; exps = [4, 5])"

    def test_monomial_tower_text(self):
        t = make_tower("y", (), (1, 2, 3))
        assert tower_text(t) == "tower(y; g = 0; exps = [1, 2, 3])"

    @pytest.mark.parametrize("n,text", [
        (10**30 - 1, "9" * 30),
        (-(10**30) + 1, "-" + "9" * 30),
        (10**30, "<31 digits>"),
        (-(10**40), "<41 digits>"),
        (10**4300 - 1, "<4300 digits>"),
        (2**100000, "<30103 digits>"),
    ], ids=["30 nines", "minus 30 nines", "10^30", "-10^40", "4300 nines", "2^100000"])
    def test_messages_name_a_long_number_by_its_digit_count(self, n, text):
        from behrend.errors import number_text

        assert number_text(n) == text


class TestRoundTrips:
    def test_ideal_roundtrip(self):
        for I in (
            MAXIMAL_IDEAL**4,
            n_ab(5, 7),
            MonomialIdeal([(7, 0), (3, 1), (2, 3), (1, 4), (0, 6)]),
            MonomialIdeal([(0, 0)]),
        ):
            assert parse(ideal_text(I)).require_ideal() == I

    def test_factorization_roundtrip(self):
        villa = MonomialIdeal([(6, 0), (4, 1), (2, 2), (1, 3), (0, 5)])
        assert parse(factors_text(factor_normal(villa))).require_ideal() == villa

    def test_tower_roundtrip(self):
        towers = [
            make_tower("x", (), (1, 2, 3)),
            make_tower("y", (Fraction(2, 3),), (2, 5)),
            make_tower("x", (0, Fraction(1, 2), -1), (4, 7)),
        ]
        for t in towers:
            (back,) = parse(tower_text(t)).require_towers().towers
            assert back == t

    def test_product_roundtrip(self):
        from behrend import TowerProduct

        product = TowerProduct(
            [make_tower("x", (), (1, 2)), make_tower("y", (1,), (2, 3))]
        )
        assert parse(product_text(product)).require_towers().towers == product.towers


@st.composite
def tower_products(draw):
    """Products built the way the parser builds them, through from_factors,
    with exponent lists of up to 4 entries from 1..9, repeats allowed, or up
    to 200 entries."""
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        branch = draw(st.sampled_from(("x", "y")))
        if draw(st.booleans()):
            exps = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
        else:
            size = draw(st.integers(1, 200))
            gaps = draw(st.lists(st.integers(1, 3), min_size=size, max_size=size))
            exps = list(accumulate(gaps))
        coefficient = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
        tangent = draw(st.lists(coefficient, max_size=min(max(exps) - 1, 8)))
        factors += [Factor(branch, tuple(tangent), e) for e in exps]
    try:
        return TowerProduct.from_factors(factors)
    except (DomainError, UnsupportedError):
        assume(False)


SPACES = st.sampled_from(("", " ", "  ", "\t", "\n", " \n "))


class TestPrintParseRoundTrips:
    @given(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), min_size=1, max_size=6))
    def test_ideal_text(self, gens):
        I = MonomialIdeal(gens)
        assert parse(ideal_text(I)).require_ideal() == I

    @given(tower_products(), st.data())
    def test_product_text(self, product, data):
        # commas and brackets appear only in the exponent lists
        text = re.sub(
            r"\s*([,\[\]])\s*",
            lambda match: data.draw(SPACES) + match.group(1) + data.draw(SPACES),
            product_text(product),
        )
        assert parse(text).require_towers().towers == product.towers


class TestParserFuzz:
    def test_never_crashes_with_foreign_exceptions(self):
        # any input must either parse or raise one of the package's errors
        import random

        from behrend import BehrendError

        alphabet = "xy zmn towerg=exps[]()^*,;+-/123 "
        rng = random.Random(47)
        for _ in range(3000):
            text = "".join(
                rng.choice(alphabet) for _ in range(rng.randint(1, 40))
            )
            try:
                parse(text)
            except BehrendError:
                pass

    def test_valid_prefixes_with_junk_suffix_fail_cleanly(self):
        for text in ("m^", "(x", "(x,", "n(1", "tower(x; g = y; exps = [2", "m *"):
            with pytest.raises(ParseError):
                parse(text)
