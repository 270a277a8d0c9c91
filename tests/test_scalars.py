"""Field arithmetic, canonicalization and substitution for exact scalars."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jqsphere import scalars as sc
from jqsphere.errors import DenominatorVanishes, DivisionByZero


def test_construction_and_equality():
    assert sc.rational(1, 2) + sc.rational(1, 2) == sc.ONE
    assert sc.ensure_scalar(3) == sc.rational(6, 2)
    assert sc.ensure_scalar(Fraction(-2, 4)) == sc.rational(-1, 2)
    assert sc.h != sc.k
    assert sc.is_zero(sc.h - sc.h)
    assert not sc.is_zero(sc.h)


def test_cancellation_is_automatic():
    x = (sc.h**2 - sc.k**2) / (sc.h - sc.k)
    assert x == sc.h + sc.k
    assert (sc.h - sc.k) / (sc.k - sc.h) == sc.ensure_scalar(-1)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        sc.rational(1, 0)


def test_substitute_basic():
    x = sc.beta - sc.rho**2 - 2 * sc.k**2
    assert sc.is_zero(sc.substitute(x, {"beta": sc.rho**2 + 2 * sc.k**2}))
    y = sc.h**2 * sc.k + sc.k
    assert sc.substitute(y, {"h": 0}) == sc.k
    assert sc.substitute(y, {"h": 0, "k": 7}) == sc.ensure_scalar(7)
    assert sc.substitute(y, {"k": Fraction(1, 3)}) == (sc.h**2 + 1) / 3


def test_substitute_scaling():
    x = sc.k**2 * sc.h
    assert sc.substitute(x, {"k": sc.s * sc.k}) == sc.s**2 * sc.k**2 * sc.h


def test_substitute_denominator_vanishes():
    x = sc.k / sc.h
    with pytest.raises(DenominatorVanishes):
        sc.substitute(x, {"h": 0})
    # fine when the numerator dies first in a reduced fraction
    assert sc.substitute(sc.k / (sc.h + 1), {"h": 0}) == sc.k


def test_substitute_unknown_parameter():
    with pytest.raises(ValueError):
        sc.substitute(sc.h, {"q": 1})


def test_render_polynomial():
    assert sc.render(sc.ZERO) == "0"
    assert sc.render(sc.ONE) == "1"
    assert sc.render(-sc.ONE) == "-1"
    assert sc.render(sc.h) == "h"
    assert sc.render(2 * sc.h * sc.k - sc.rational(1, 2)) == "2*h*k - 1/2"
    assert sc.render(sc.h**2 - sc.k) == "h^2 - k"
    assert sc.render(-sc.h**3) == "-h^3"


def test_render_orders_terms_graded_lex():
    x = sc.k + sc.h + sc.h**2
    assert sc.render(x) == "h^2 + h + k"
    y = sc.s + sc.beta  # beta precedes s in the parameter order
    assert sc.render(y) == "beta + s"


def test_render_fraction_monic_denominator():
    x = (sc.h + sc.k) / (2 * sc.h)
    assert sc.render(x) == "(1/2*h + 1/2*k)/(h)"
    assert sc.render(sc.k / sc.rho) == "(k)/(rho)"


scalar_pool = [
    sc.ZERO,
    sc.ONE,
    sc.rational(-3, 7),
    sc.h,
    sc.k - sc.h,
    sc.rho**2 + 2 * sc.k**2,
    sc.h * sc.k / (sc.h + 1),
    (sc.h - sc.k) / (sc.h + sc.k),
    sc.beta - 1,
    2 * sc.h**3 - sc.rational(1, 2) * sc.s,
]

elems = st.sampled_from(scalar_pool)


@settings(max_examples=60, deadline=None)
@given(elems, elems, elems)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + sc.ZERO == a
    assert a * sc.ONE == a
    assert a - a == sc.ZERO


@settings(max_examples=40, deadline=None)
@given(elems, elems)
def test_render_is_injective_on_distinct_values(a, b):
    if a != b:
        assert sc.render(a) != sc.render(b)
    else:
        assert sc.render(a) == sc.render(b)


@settings(max_examples=40, deadline=None)
@given(elems)
def test_substitution_commutes_with_arithmetic(a):
    binding = {"h": sc.rational(1, 3), "k": 2}
    try:
        lhs = sc.substitute(a * a + a, binding)
    except DenominatorVanishes:
        return
    sa = sc.substitute(a, binding)
    assert lhs == sa * sa + sa
