"""Randomized algebraic properties of the whole stack.

Every test here is derandomized so runs are reproducible, and the
example budgets add up to well over five hundred cases.  The properties
are the load-bearing ones: field axioms for the scalars, linearity and
idempotence of normal forms, purity of the memo caches, and
(anti)multiplicativity of the structure maps.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jqsphere import scalars as sc
from jqsphere.hopf import tensor_normalizer
from jqsphere.jordanian import ENV, FUN, build_catalog
from jqsphere.ncalg import FreePoly
from jqsphere.pairing import DualPairing
from jqsphere.rewrite import RewriteSystem

BUDGETS = {
    "scalar_additive_group": 120,
    "scalar_multiplicative_field": 120,
    "scalar_substitution_is_a_homomorphism": 80,
    "normal_form_is_idempotent": 80,
    "normal_form_is_linear": 80,
    "normal_form_respects_products": 40,
    "caches_are_pure": 20,
    "coproduct_is_multiplicative": 25,
    "antipode_is_antimultiplicative": 25,
    "pairing_split_directions_agree": 40,
}


def test_example_budget_is_large_enough():
    assert sum(BUDGETS.values()) >= 500


def opts(name):
    return settings(max_examples=BUDGETS[name], derandomize=True, deadline=None)


CAT = build_catalog()
FUNALG = CAT.algebra(FUN)
ENVALG = CAT.algebra(ENV)
FULL = CAT.system(FUN)
TNORM = tensor_normalizer(FULL, FULL)

# -- strategies -----------------------------------------------------------

ints = st.integers(min_value=-6, max_value=6)
atoms = st.one_of(
    ints.map(sc.ensure_scalar),
    st.sampled_from([sc.h, sc.k, sc.rho, sc.beta, sc.s]),
)


def combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: ab[0] + ab[1]),
        st.tuples(children, children).map(lambda ab: ab[0] - ab[1]),
        st.tuples(children, children).map(lambda ab: ab[0] * ab[1]),
    )


scalars = st.recursive(atoms, combine, max_leaves=6)

fun_words = st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=2).map(
    tuple
)
env_words = fun_words


def poly_from(alg):
    word_term = st.tuples(fun_words, ints.filter(bool))
    return st.lists(word_term, min_size=0, max_size=3).map(
        lambda terms: sum(
            (FreePoly.from_word(alg, w).scale(c) for w, c in terms),
            FreePoly.zero(alg),
        )
    )


fun_polys = poly_from(FUNALG)
env_polys = poly_from(ENVALG)


# -- exact scalars ----------------------------------------------------------


@opts("scalar_additive_group")
@given(scalars, scalars, scalars)
def test_scalar_additive_group(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x + sc.ZERO == x
    assert not (x + (-x))


@opts("scalar_multiplicative_field")
@given(scalars, scalars, scalars)
def test_scalar_multiplicative_field(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * sc.ONE == x
    assert x * (y + z) == x * y + x * z
    assume(bool(x))
    assert x * (sc.ONE / x) == sc.ONE
    assert (y / x) * x == y


@opts("scalar_substitution_is_a_homomorphism")
@given(scalars, scalars, ints)
def test_scalar_substitution_is_a_homomorphism(x, y, hval):
    binding = {"h": hval}
    sx, sy = sc.substitute(x, binding), sc.substitute(y, binding)
    assert sc.substitute(x + y, binding) == sx + sy
    assert sc.substitute(x * y, binding) == sx * sy


# -- normal forms -------------------------------------------------------------


@opts("normal_form_is_idempotent")
@given(fun_polys)
def test_normal_form_is_idempotent(p):
    n = FULL.normal_form(p)
    assert FULL.normal_form(n) == n
    assert all(FULL.is_normal(w) for (w,) in n.terms)


@opts("normal_form_is_linear")
@given(fun_polys, fun_polys, scalars)
def test_normal_form_is_linear(p, q, c):
    assert FULL.normal_form(p + q) == FULL.normal_form(p) + FULL.normal_form(q)
    assert FULL.normal_form(p.scale(c)) == FULL.normal_form(p).scale(c)


@opts("normal_form_respects_products")
@given(fun_polys, fun_polys)
def test_normal_form_respects_products(p, q):
    direct = FULL.normal_form(p * q)
    staged = FULL.normal_form(FULL.normal_form(p) * FULL.normal_form(q))
    assert direct == staged


@opts("caches_are_pure")
@given(fun_polys)
def test_caches_are_pure(p):
    # a memo lives as long as its owner, so a new owner starts it empty
    before = FULL.normal_form(p)
    fresh = RewriteSystem(FUNALG, FULL.rules, completed_through=FULL.completed_through)
    assert fresh.normal_form(p) == before
    dp = CAT.pairing()
    u = FreePoly.gen(ENVALG, "H") * FreePoly.gen(ENVALG, "Y")
    v = dp.pair(u, p)
    assert DualPairing(CAT.hopf(ENV), CAT.hopf(FUN), dp.base).pair(u, p) == v


# -- structure maps ------------------------------------------------------------


@opts("coproduct_is_multiplicative")
@given(fun_polys, fun_polys)
def test_coproduct_is_multiplicative(p, q):
    cop = CAT.morphism(f"{FUN}_coproduct")
    diff = cop(p * q) - cop(p) * cop(q)
    assert TNORM(diff).is_zero()


@opts("antipode_is_antimultiplicative")
@given(fun_polys, fun_polys)
def test_antipode_is_antimultiplicative(p, q):
    anti = CAT.morphism(f"{FUN}_antipode")
    nf = FULL.normal_form
    assert nf(anti(p * q)) == nf(anti(q) * anti(p))


@opts("pairing_split_directions_agree")
@given(env_words, fun_words)
def test_pairing_split_directions_agree(uw, aw):
    dp = CAT.pairing()
    u = FreePoly.from_word(ENVALG, uw)
    a = FreePoly.from_word(FUNALG, aw)
    assert dp.pair(u, a) == dp.T.pair(a, u)
