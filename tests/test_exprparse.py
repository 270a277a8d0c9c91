"""Expression grammar: precedence, typed combination and error positions."""

import functools
import operator
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jqsphere import scalars as sc
from jqsphere.errors import CatalogParseError
from jqsphere.exprparse import gen_map, max_digits, parse_scalar, parse_value, tokenize
from jqsphere.ncalg import Algebra, FreePoly

A = Algebra("demo", ("x", "y"))
B = Algebra("other", ("u",))
GENS = gen_map(A)
X, Y = GENS["x"], GENS["y"]
U = FreePoly.gen(B, "u")
PARAMS = {"h": sc.h}


def parse(text, **kw):
    kw.setdefault("params", PARAMS)
    kw.setdefault("gens", GENS)
    return parse_value(text, **kw)


def err(text, **kw):
    with pytest.raises(CatalogParseError) as info:
        parse(text, **kw)
    return info.value


def repeated_product(p, n):
    """p^n as a repeated product, independent of the parser's squaring."""
    one = sc.ONE if isinstance(p, sc.Scalar) else FreePoly.scalar(p.slots)
    return functools.reduce(operator.mul, [p] * n, one)


# -- scalars and literals ---------------------------------------------


def test_integer_and_fraction_literals():
    assert parse("3") == sc.ensure_scalar(3)
    assert parse("3/4") == sc.ensure_scalar(Fraction(3, 4))
    assert parse("2^3") == sc.ensure_scalar(8)
    assert parse("-(1/2)") == sc.ensure_scalar(Fraction(-1, 2))
    assert parse("1/2/2") == sc.ensure_scalar(Fraction(1, 4))


def test_parameter_arithmetic():
    assert parse("h^2 - h*h") == sc.ZERO
    assert parse("(1+h)*(1-h)") == sc.ONE - sc.h**2
    assert parse("h/2 + h/2") == sc.h


def test_parse_scalar_defaults_to_global_parameters():
    v = parse_scalar("rho^2 + 2*k^2")
    assert v == sc.rho**2 + 2 * sc.k**2
    with pytest.raises(CatalogParseError, match="unknown name 'q'"):
        parse_scalar("q + 1")


def test_zero_to_the_zero_is_one():
    assert parse_scalar("0^0") == sc.ONE
    assert parse_scalar("h^0") == sc.ONE
    assert sc.substitute(parse_scalar("h^0"), {"h": sc.ZERO}) == sc.ONE
    assert sc.ZERO**0 == sc.ONE and (sc.k / sc.rho) ** 0 == sc.ONE


# -- polynomial structure ---------------------------------------------


def test_words_keep_written_order():
    assert parse("x*y") == X * Y
    assert parse("y*x") == Y * X
    assert parse("x*y") != parse("y*x")


def test_precedence():
    assert parse("x + y*x") == X + Y * X
    assert parse("x*y^2") == X * Y * Y
    assert parse("(x + y)^2") == X * X + X * Y + Y * X + Y * Y
    assert parse("-x^2") == (X * X).scale(sc.ensure_scalar(-1))
    assert parse("2*x - x - x").is_zero()


def test_scalar_promotion_in_sums():
    p = parse("1 + x")
    assert p == X + FreePoly.unit(A)
    assert parse("x - h") == X - FreePoly.unit(A, sc.h)
    assert parse("h*(x + 1) - h*x - h").is_zero()


def test_division_by_scalars_only():
    assert parse("x/2") == X.scale(sc.ensure_scalar(Fraction(1, 2)))
    assert parse("x/h") == X.scale(sc.ONE / sc.h)
    assert parse("x/(y - y + 2)") == X.scale(sc.ensure_scalar(Fraction(1, 2)))
    e = err("x/y")
    assert "can only divide by scalars" in e.message
    e = err("x/0")
    assert "division by zero" in e.message


# -- tensors -----------------------------------------------------------


def test_tensor_construction():
    t = parse("x@y + 1@x", tensor_slots=(A, A))
    want = FreePoly.of(X, Y) + FreePoly.of(FreePoly.unit(A), X)
    assert t == want
    assert parse("2@x", tensor_slots=(A, A)) == FreePoly.of(
        FreePoly.unit(A, sc.ensure_scalar(2)), X
    )


def test_tensor_slot_checking():
    gens = {"x": X, "u": U}
    t = parse("x@u", params=PARAMS, gens=gens, tensor_slots=(A, B))
    assert t == FreePoly.of(X, U)
    e = err("u@x", params=PARAMS, gens=gens, tensor_slots=(A, B))
    assert "left tensor factor" in e.message
    e = err("x@y@x", tensor_slots=(A, A))
    assert "more than two factors" in e.message
    # without declared slots plain tensors still form, scalar factors do not
    assert parse("x@y") == FreePoly.of(X, Y)
    e = err("2@x")
    assert "needs a declared tensor target" in e.message


def test_tensor_times_polynomial_is_rejected():
    e = err("(x@y)*x", tensor_slots=(A, A))
    assert "cannot multiply a tensor" in e.message


# -- error positions ---------------------------------------------------


def test_unexpected_character_position():
    e = err("x $ y")
    assert (e.line, e.column) == (1, 3)


def test_trailing_garbage_position():
    e = err("x y")
    assert "after expression" in e.message
    assert e.column == 3


def test_unknown_name_position():
    e = err("x + zz")
    assert "unknown name 'zz'" in e.message
    assert e.column == 5


def test_exponent_must_be_integer():
    e = err("x^h")
    assert "exponent" in e.message
    e = err("x^(2)")
    assert "exponent" in e.message


def test_unbalanced_parens():
    e = err("(x + y")
    assert "expected ')'" in e.message
    e = err("x + ")
    assert "expected a value" in e.message


def test_line_and_column_offsets_carry_through():
    e = err("x + zz", path="deep.cat", line=7, col_offset=12)
    assert e.path == "deep.cat"
    assert e.line == 7
    assert e.column == 12 + 5
    toks = tokenize("a b", "p", 3, 10)
    assert [t.col for t in toks] == [11, 13, 14]


def test_numerals_must_print():
    limit = max_digits()
    assert parse("9" * limit) == sc.ensure_scalar(int("9" * limit))
    e = err("x + " + "1" * (limit + 1))
    assert f"numeral of {limit + 1} digits" in e.message
    assert e.column == 5


def test_huge_constant_powers_are_sized_before_they_are_computed():
    # each of these would take minutes or gigabytes to evaluate
    limit = max_digits()
    for text, column, what in (
        ("2^99999999", 1, "digits"),
        ("h + (1/2)^99999999", 5, "digits"),
        ("x*(-3)^99999999", 3, "digits"),
        ("(3*h + 1)^99999999", 1, "term pairs"),
        ("(h/(2*h + 1))^99999999", 1, "term pairs"),
    ):
        e = err(text)
        assert f"more than {limit} {what}" in e.message, text
        assert e.column == column, text
    assert parse("1^99999999") == sc.ONE
    assert parse("(-1)^99999999") == -sc.ONE
    assert parse("0^99999999") == sc.ZERO
    assert parse("(h + 1)^0") == sc.ONE


def test_values_must_print():
    limit = max_digits()
    big = f"10^{limit - 1}"  # limit digits: the largest power of ten that prints
    assert parse(big) == sc.ensure_scalar(10 ** (limit - 1))
    # only the value must print, not each step on the way to it
    assert parse(f"{big}*10/100") == sc.ensure_scalar(10 ** (limit - 2))
    for text in (
        f"{big}*10",
        f"1 + {big}*10",
        f"h*{big}*10",
        f"9*{big} + 9*{big}",
        f"(x - 1)*{big}*10",
        f"(x - 1) * (h/{big}/10)",
        f"(x@x)*{big}*10",
        f"(h*{big})^2",
        "3^9100",
    ):
        e = err(text, tensor_slots=(A, A))
        assert f"more than {limit} digits" in e.message, text
        assert e.column == 1, text


def test_large_powers_are_sized_before_they_are_computed():
    # term pairs, digits and letters each bound every squaring step;
    # every one of these would run for minutes or without end if it
    # were computed
    limit = max_digits()
    funh = Algebra("funh", ("c", "a", "d", "b"))
    gens = dict(GENS, **gen_map(funh))
    for text, column, what in (
        ("x^99999999", 1, "letters"),
        ("y + x^4301", 5, "letters"),
        ("(x@x)^99999999", 1, "letters"),
        ("(2*x)^99999999", 1, "letters"),
        ("(x - x + 2)^99999999", 1, "digits"),
        ("(h + 10^4000)^1000", 1, "digits"),
        ("(h + 10^4000*x)^1000", 1, "digits"),
        ("(h + 1)^99999", 1, "term pairs"),
        ("x*(h + 1)^4300", 3, "term pairs"),
        ("x*(h + 1)^4299", 3, "term pairs"),
        ("(h + 1)^500", 1, "term pairs"),
        ("(x + y)^13", 1, "term pairs"),
        ("(a + b + c + d)^40", 1, "term pairs"),
    ):
        e = err(text, gens=gens, tensor_slots=(A, A))
        assert f"more than {limit} {what}" in e.message, text
        assert e.column == column, text
    for text in (
        "(h + k + 1)^50",
        "(h + k + 1)^99999999",
        "((h + k)/(2 + rho))^99999999",
    ):
        started = time.perf_counter()
        e = err(text, params=sc.PARAMS)
        assert time.perf_counter() - started < 1, text
        assert e.message == f"product of more than {limit} term pairs" and e.column == 1
    # the guard is loose enough to keep these
    assert parse("x^2000") == FreePoly.from_word(A, (0,) * 2000)
    assert parse("(x - x + 1)^99999999") == FreePoly.unit(A)
    assert len(parse("(x + 1)^100").terms) == 101
    assert len(parse("(x + y)^10").terms) == 2**10
    assert len(parse("(x + y)^12").terms) == 2**12
    assert sc.term_count(parse("(h + k + 1)^16", params=sc.PARAMS)) == 153


def test_products_are_guarded_before_they_run():
    # the first two ran for seconds before they were accepted, the
    # others multiply, or divide, values the guard allows, into
    # millions of terms or keys
    limit = max_digits()
    for text, column in (
        ("((h+k)*x + rho + s)^32", 1),
        ("(h+k+rho+s)^20*(kprime+rhoprime+beta+betaprime)^20", 1),
        ("(h+k+rho+s)^8*(kprime+rhoprime+beta+betaprime)^8", 14),
        ("(x+y)^12 @ (x+y)^12", 10),
        ("(x+y)^8 @ (x+y)^8", 9),
        ("(x+y)^12/((h+k+1)^8/(rho+s+1)^8)", 9),
    ):
        started = time.perf_counter()
        e = err(text, params=sc.PARAMS, tensor_slots=(A, A))
        assert time.perf_counter() - started < 1, text
        assert e.message == f"product of more than {limit} term pairs", text
        assert e.column == column, text
    # the guard bounds the operands, not the product's size
    e = err("x^3000 @ y^2000", tensor_slots=(A, A))
    assert e.message == f"product of words of more than {limit} letters" and e.column == 8
    assert parse("(x+y)^6 @ (x+y)^6", tensor_slots=(A, A)) == FreePoly.of(
        repeated_product(X + Y, 6), repeated_product(X + Y, 6)
    )


def test_large_middle_coefficients_are_sized_before_they_are_computed():
    # the end coefficients are 1, so only the middle one bounds the power
    limit = max_digits()
    assert parse_scalar("(h^2 + 10^4000*h + 1)^1") == sc.h**2 + 10**4000 * sc.h + 1
    started = time.perf_counter()
    with pytest.raises(CatalogParseError) as info:
        parse_scalar("(h^2 + 10^4000*h + 1)^40", path="<--set>")
    assert time.perf_counter() - started < 0.1
    assert str(info.value) == f"<--set>:1:1: number of more than {limit} digits"


def test_large_middle_coefficients_of_one_generator_bases_are_sized_first():
    # a power of a base over one generator is a commutative polynomial,
    # so the largest-coefficient bound refuses it before it is computed
    limit = max_digits()
    for text in ("(x^2 + 10^4000*x + 1)^40", "(x^2 + (10^4000 + h)*x + 1)^40"):
        started = time.perf_counter()
        e = err(text)
        assert time.perf_counter() - started < 1
        assert e.message == f"number of more than {limit} digits" and e.column == 1
    # the bound leaves powers with small coefficients alone
    one = FreePoly.unit(A)
    assert parse("x^2000") == FreePoly.from_word(A, (0,) * 2000)
    assert parse("(x + y)^10") == repeated_product(X + Y, 10)
    assert parse("(x + 1)^50") == repeated_product(X + one, 50)
    assert parse("(x + 10^40)^50") == repeated_product(X + 10**40 * one, 50)
    assert parse("(h*x + 1/h)^5") == repeated_product(sc.h * X + one.scale(1 / sc.h), 5)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([-1, 1]),
    st.lists(st.integers(min_value=-(10**300), max_value=10**300), min_size=1, max_size=2),
    st.sampled_from([-1, 1]),
    st.integers(min_value=2, max_value=40),
    st.sampled_from(["h", "x"]),
)
def test_power_bounds_refuse_only_powers_past_the_limit(low, middle, high, n, var):
    # a power refused for its digits really has a coefficient that does
    # not print; the end coefficients are 1 in magnitude, so only the
    # middle ones can bound it, for a scalar base or one over a generator
    coeffs = [low, *middle, high]
    text = " + ".join(f"({c})*{var}^{i}" for i, c in enumerate(coeffs))
    g = sc.h if var == "h" else X
    base = sum((c * repeated_product(g, i) for i, c in enumerate(coeffs)), 0 * g)
    try:
        value = parse(f"({text})^{n}")
    except CatalogParseError as e:
        if "digits" in e.message:
            power = repeated_product(base, n)
            heights = [sc.height(power)] if var == "h" else map(sc.height, power.terms.values())
            assert max(heights) >= 10 ** max_digits()
    else:
        assert value == repeated_product(base, n)


# -- randomized agreement with direct arithmetic -----------------------

WORDS = st.lists(st.sampled_from("xy"), min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(WORDS)
def test_word_strings_parse_to_products(letters):
    text = "*".join(letters)
    want = FreePoly.from_word(A, tuple(A.index(c) for c in letters))
    assert parse(text) == want


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=-9, max_value=9),
)
def test_scalar_expressions_match_field_arithmetic(num, den, shift):
    text = f"({num})/{den} + {shift}*h"
    assert parse(text) == sc.ensure_scalar(Fraction(num, den)) + shift * sc.h
