"""Orientation, completion, confluence certificates and the reduction
engine, cross-checked against a brute-force rewriter that tries every
rule at every position."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jqsphere import rewrite
from jqsphere import scalars as sc
from jqsphere.errors import (
    DegreeCapExceeded,
    NonTerminating,
    NotOrientable,
)
from jqsphere.ncalg import Algebra, FreePoly
from jqsphere.rewrite import (
    RewriteSystem,
    complete,
    enumerate_ambiguities,
    interreduce,
    orient,
)

# -- fixtures ---------------------------------------------------------

W = Algebra("weyl", ("x", "y"))  # yx = xy + h
WX, WY = FreePoly.gen(W, "x"), FreePoly.gen(W, "y")
WEYL_REL = WY * WX - WX * WY - sc.h

SL2 = Algebra("sl2", ("E", "F", "H"))
E, F, H = (FreePoly.gen(SL2, n) for n in "EFH")
SL2_RELS = [H * E - E * H - 2 * E, H * F - F * H + 2 * F, E * F - F * E - H]


def weyl_system(cap=6):
    return complete(W, [WEYL_REL], max_degree=cap)


def sl2_system(cap=6):
    return complete(SL2, SL2_RELS, max_degree=cap)


def word(alg, *names):
    return tuple(map(alg.index, names))


def freeze(p):
    return tuple(sorted((w, sc.render(c)) for (w,), c in p.terms.items()))


def brute_normal_forms(system, p, max_states=4000):
    """Closure of one-step rewriting with every rule at every position."""
    seen = set()
    frontier = [p]
    normals = set()
    while frontier:
        cur = frontier.pop()
        f = freeze(cur)
        if f in seen:
            continue
        seen.add(f)
        assert len(seen) < max_states, "state explosion in oracle"
        moves = []
        for (w,), c in cur.terms.items():
            for pos in range(len(w)):
                for rule in system.rules:
                    L = len(rule.lhs)
                    if w[pos : pos + L] == rule.lhs:
                        head = FreePoly.from_word(system.alg, w[:pos])
                        tail = FreePoly.from_word(system.alg, w[pos + L :])
                        nxt = (
                            cur
                            - FreePoly.from_word(system.alg, w).scale(c)
                            + (head * rule.rhs * tail).scale(c)
                        )
                        moves.append(nxt)
        if moves:
            frontier.extend(moves)
        else:
            normals.add(f)
    return normals


# -- orientation ------------------------------------------------------

def test_orient_picks_leading_word():
    rule = orient(WEYL_REL)
    assert rule.lhs == word(W, "y", "x")
    assert rule.rhs == WX * WY + sc.h


def test_orient_monic():
    rule = orient(3 * WY * WX - WX)
    assert rule.rhs == WX / 3


def test_orient_constant_relation():
    with pytest.raises(NotOrientable):
        orient(FreePoly.unit(W, 5))
    with pytest.raises(ValueError):
        orient(FreePoly.zero(W))


# -- reduction --------------------------------------------------------

def test_weyl_normal_forms():
    sys = weyl_system()
    nf = sys.normal_form(WY * WX * WX)
    assert nf == WX * WX * WY + 2 * sc.h * WX
    assert sys.normal_form(WY * WX - WX * WY) == FreePoly.unit(W, sc.h)
    assert sys.reduces_to_zero(WEYL_REL)
    assert sys.reduces_to_zero(WEYL_REL * WX - WX * WEYL_REL)


def test_sl2_casimir_is_central():
    sys = sl2_system()
    casimir = E * F + F * E + (H * H) / 2
    for g in (E, F, H):
        assert sys.reduces_to_zero(casimir * g - g * casimir)


def test_memo_transparency():
    sys = weyl_system()
    p = (WY + WX) * (WY + WX) * (WY + WX)
    first = sys.normal_form(p)
    assert sys._memo
    # the memo lives as long as its system: a new one starts empty
    fresh = RewriteSystem(W, sys.rules, completed_through=sys.completed_through)
    assert not fresh._memo
    assert fresh.normal_form(p) == first


def test_normal_words_dimension_sl2():
    # confluent quadratic PBW system: degree-n component has C(n+2,2) words
    sys = sl2_system()
    for n in range(5):
        count = sum(1 for w in sys.normal_words(n) if len(w) == n)
        assert count == math.comb(n + 2, 2)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.lists(st.integers(0, 2), max_size=3), st.integers(-3, 3)),
        min_size=1,
        max_size=3,
    )
)
def test_brute_force_oracle_sl2(spec):
    sys = sl2_system()
    p = FreePoly((SL2,), {(tuple(w),): sc.ensure_scalar(c) for w, c in spec})
    expected = {freeze(sys.normal_form(p))}
    assert brute_normal_forms(sys, p) == expected


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=5))
def test_brute_force_oracle_weyl_words(word):
    sys = weyl_system()
    p = FreePoly.from_word(W, tuple(word))
    assert brute_normal_forms(sys, p) == {freeze(sys.normal_form(p))}


# -- completion -------------------------------------------------------

def test_sl2_completion_adds_nothing():
    sys = sl2_system()
    assert len(sys.rules) == 3
    assert sys.closed
    assert sys.completed_through == 6
    assert sys.verify_certificate()


def test_certificate_covers_all_overlaps():
    sys = sl2_system()
    # HF over FE is the only critical overlap of the three left sides
    words = {a.overlap_word for a in sys.certificate}
    assert words == {word(SL2, "H", "F", "E")}
    assert sys.verify_certificate()


def test_tampered_certificate_fails_verification():
    sys = sl2_system()
    sys.certificate = sys.certificate[:-1]
    assert not sys.verify_certificate()


def test_certificate_of_changed_rules_fails_verification():
    # the same left sides keep the certificate's ambiguities, but with
    # H*E -> E*H + 3*E the overlap H*F*E no longer resolves
    sys = sl2_system()
    he = word(SL2, "H", "E")
    rules = [r for r in sys.rules if r.lhs != he] + [orient(H * E - E * H - 3 * E)]
    changed = RewriteSystem(SL2, rules, completed_through=sys.completed_through)
    changed.certificate = sys.certificate
    assert not changed.verify_certificate()


def test_completion_generates_rules_until_cap():
    # xx -> yx keeps spawning x y^n x -> y^(n+1) x; the cap cuts it off
    A = Algebra("grow", ("y", "x"))
    x, y = FreePoly.gen(A, "x"), FreePoly.gen(A, "y")
    sys = complete(A, [x * x - y * x], max_degree=6)
    lhss = {A.render_word(r.lhs) for r in sys.rules}
    assert "x^2" in lhss and "x*y*x" in lhss and "x*y^2*x" in lhss
    assert not sys.closed  # degree-7 ambiguities were skipped
    assert sys.verify_certificate()
    with pytest.raises(DegreeCapExceeded):
        sys.normal_form(FreePoly.from_word(A, tuple([1, 0, 0, 0, 0, 0, 1])))


def test_nonterminating_budget(monkeypatch):
    A = Algebra("grow", ("y", "x"))
    x, y = FreePoly.gen(A, "x"), FreePoly.gen(A, "y")
    monkeypatch.setattr(rewrite, "MAX_RULES", 10)
    with pytest.raises(NonTerminating, match="exceeded 10 rules"):
        complete(A, [x * x - y * x], max_degree=40)


def test_inconsistent_presentation():
    with pytest.raises(NotOrientable):
        complete(W, [WX - 1, WX])


def test_interreduce_drops_redundant():
    rules = interreduce(SL2, SL2_RELS + [2 * (H * E - E * H - 2 * E)])
    assert len(rules) == 3


# yx enters after x*y*x is adopted, so x*y*x goes back on the queue and
# comes back as x^2; the right side of y^2 -> x^2 is only reduced at the end
Q = Algebra("queue", ("x", "y"))
QX, QY = FreePoly.gen(Q, "x"), FreePoly.gen(Q, "y")
REQUEUED = [QY * QY - QX * QX, QX * QY * QX - QY, 3 * QY * QX - QX]


def test_interreduce_requeues_rules_containing_a_new_left_side():
    rules = interreduce(Q, REQUEUED)
    got = {Q.render_word(r.lhs): r.rhs for r in rules}
    assert got == {"x^2": 3 * QY, "y*x": QX.scale(sc.ONE / 3), "y^2": 3 * QY}
    system = RewriteSystem(Q, rules)
    for r in rules:
        assert r.poly().terms[(r.lhs,)] == sc.ONE
        assert system.normal_form(r.rhs) == r.rhs
        others = RewriteSystem(Q, [o for o in rules if o is not r])
        assert others.is_normal(r.lhs)


def test_interreduce_budget(monkeypatch):
    # four reductions: three relations and one requeue
    monkeypatch.setattr(rewrite, "MAX_REDUCTIONS", 3)
    with pytest.raises(NonTerminating, match="interreduction did not stabilize over queue"):
        interreduce(Q, REQUEUED)


def test_enumerate_ambiguities_inclusion():
    A = Algebra("inc", ("x", "y"))
    r1 = orient(FreePoly.from_word(A, word(A, "x", "y", "x")))
    r2 = orient(FreePoly.from_word(A, word(A, "y")) - FreePoly.unit(A))
    xyx = word(A, "x", "y", "x")
    found = {
        (a.left_lhs, a.right_lhs, a.overlap_word, a.offset)
        for a in enumerate_ambiguities([r1, r2])
    }
    # y sits strictly inside x*y*x, so the overlap word is x*y*x itself
    assert (xyx, word(A, "y"), xyx, 1) in found


def test_equal_iff_same_normal_form():
    sys = weyl_system()
    p = WX * WY + sc.h
    q = WY * WX
    assert sys.normal_form(p) == sys.normal_form(q)
    assert sys.normal_form(p + 1) != sys.normal_form(q)
