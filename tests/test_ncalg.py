"""Sparse elements over slot tuples: free polynomials, tensors, the slot
map, rendering and ring laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jqsphere import scalars as sc
from jqsphere.errors import AlgebraMismatch
from jqsphere.ncalg import Algebra, FreePoly, all_words

A = Algebra("A", ("c", "a", "d", "b"))
B = Algebra("B", ("x", "y"))


def gp(name):
    return FreePoly.gen(A, name)


def word(alg, *names):
    return tuple(map(alg.index, names))


def test_algebra_basics():
    assert A.index("c") == 0 and A.index("b") == 3
    assert A.render_word(()) == "1"
    assert A.render_word((1, 1, 3)) == "a^2*b"
    with pytest.raises(ValueError):
        Algebra("bad", ("x", "x"))


def test_arithmetic_and_noncommutativity():
    a, b = gp("a"), gp("b")
    ab, ba = a * b, b * a
    assert ab != ba
    assert ab.terms == {(word(A, "a", "b"),): sc.ONE}
    assert (ab - ab).is_zero()
    p = 2 * a - b * 3 + 1
    assert p.constant() == sc.ONE
    assert p.degree() == 1
    assert (a + b) * (a - b) == a * a - a * b + b * a - b * b


def test_scalar_coefficients():
    a = gp("a")
    p = sc.h * a - a.scale(sc.h)
    assert p.is_zero()
    q = (sc.h / (sc.h + 1)) * a
    assert (q * (sc.h + 1) - sc.h * a).is_zero()
    assert (a / 2 + a / 2) == a


def test_power_and_unit():
    a, one = gp("a"), FreePoly.unit(A)
    assert one * a == a == a * one
    assert a * a * a == FreePoly.from_word(A, word(A, "a", "a", "a"))
    assert FreePoly.unit(A, 5) == FreePoly.from_word(A, ()).scale(5)


def test_mismatch_raises():
    with pytest.raises(AlgebraMismatch):
        gp("a") + FreePoly.gen(B, "x")
    with pytest.raises(AlgebraMismatch):
        gp("a") * FreePoly.gen(B, "y")


def test_render_free_poly():
    a, b, c = gp("a"), gp("b"), gp("c")
    assert FreePoly.zero(A).render() == "0"
    assert (a * b).render() == "a*b"
    assert (-a).render() == "-a"
    assert (2 * a * a - b + 1).render() == "2*a^2 - b + 1"
    assert ((sc.h + 1) * c).render() == "(h + 1)*c"
    assert (sc.h * a - sc.h**2 * b * c).render() == "-h^2*b*c + h*a"


def test_sorted_terms_deglex():
    a, b, c = gp("a"), gp("b"), gp("c")
    p = a + b * c + 1 + c * b
    words = [w for (w,), _ in p.sorted_terms()]
    assert words == [word(A, "b", "c"), word(A, "c", "b"), word(A, "a"), ()]


def test_all_words():
    ws = list(all_words(B, 2))
    assert ws == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]


def test_tensor_componentwise_product():
    a, b = gp("a"), gp("b")
    x, y = FreePoly.gen(B, "x"), FreePoly.gen(B, "y")
    t1 = FreePoly.of(a, x)
    t2 = FreePoly.of(b, y)
    prod = t1 * t2
    assert prod.terms == {(word(A, "a", "b"), word(B, "x", "y")): sc.ONE}
    # no braiding: (a(x)x)(b(x)y) keeps factors in slot order
    assert (t2 * t1).terms == {(word(A, "b", "a"), word(B, "y", "x")): sc.ONE}


def test_tensor_bilinearity_and_render():
    a, b = gp("a"), gp("b")
    x = FreePoly.gen(B, "x")
    t = FreePoly.of(a + 2 * b, x)
    assert t == FreePoly.of(a, x) + 2 * FreePoly.of(b, x)
    assert t.render() == "2*b@x + a@x"
    assert FreePoly.of(a - a, x).is_zero()


def test_tensor_mismatch():
    a = gp("a")
    x = FreePoly.gen(B, "x")
    with pytest.raises(AlgebraMismatch):
        FreePoly.of(a, x) + FreePoly.of(x, a)


def test_tensor3_accumulate():
    a, b, x = gp("a"), gp("b"), FreePoly.gen(B, "x")
    t = FreePoly.zero(A, A, B) + FreePoly.of(a, b, x)
    assert t.terms == {(word(A, "a"), word(A, "b"), word(B, "x")): sc.ONE}
    t = t - FreePoly.of(a, b, x)
    assert t.is_zero() and t.slots == (A, A, B)
    t = t + FreePoly.scalar((A, A, B), sc.h)
    assert t.render() == "h*1@1@1"


def test_scalar_slots():
    s = FreePoly.scalar((), sc.h) + 1
    assert s.slots == () and s.terms == {(): sc.h + 1}
    assert s.scalar_value() == sc.h + 1
    assert s.render() == "(h + 1)"
    with pytest.raises(ValueError):
        gp("a").scalar_value()


def test_map_slot_splices_image_slots():
    a, b, x, y = gp("a"), gp("b"), FreePoly.gen(B, "x"), FreePoly.gen(B, "y")
    t = FreePoly.of(a, x) + FreePoly.of(b, y).scale(sc.h)
    # a word of B goes to word (x) word: one slot becomes two
    double = t.map_slot(1, lambda w: FreePoly.of(*(FreePoly.from_word(B, w),) * 2), (B, B))
    assert double == FreePoly.of(a, x, x) + FreePoly.of(b, y, y).scale(sc.h)
    # x counts 2 and y counts 3: the slot goes away
    count = {word(B, "x"): 2, word(B, "y"): 3}
    contracted = t.map_slot(1, lambda w: FreePoly.scalar((), count[w]), ())
    assert contracted == 2 * a + (3 * sc.h) * b


def test_combine_matches_the_sum_and_drops_cancelled_keys():
    a, b = gp("a"), gp("b")
    parts = [(a + b).scale(sc.h), b * a, b.scale(-sc.h), a.scale(sc.ZERO)]
    total = FreePoly.combine((A,), parts)
    assert total == sum(parts, FreePoly.zero(A))
    assert total.terms == {(word(A, "a"),): sc.h, (word(A, "b", "a"),): sc.ONE}
    assert FreePoly.combine((A, B), []) == FreePoly.zero(A, B)


words_st = st.lists(st.integers(0, 3), max_size=3).map(tuple)
coeffs = st.sampled_from([sc.ONE, -sc.ONE, sc.h, sc.k - 1, sc.ensure_scalar(Fraction(3, 2))])
polys = st.dictionaries(words_st, coeffs, max_size=4).map(
    lambda d: FreePoly((A,), {(w,): c for w, c in d.items()})
)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r
    assert p - p == FreePoly.zero(A)
    assert FreePoly.unit(A) * p == p


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_tensor_of_is_bilinear(p, q):
    u = FreePoly.unit(A)
    assert FreePoly.of(p + u, q) == FreePoly.of(p, q) + FreePoly.of(u, q)
    assert FreePoly.of(p, q).scale(2) == FreePoly.of(2 * p, q)
