"""Dual pairing recursion, module actions and the pairing checkers.

Word-level values are frozen from hand computations: pairing a length-n
word means splitting n-1 coproducts, and for short words every summand
can be written out on paper.
"""

import re
import shutil
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jqsphere import scalars as sc
from jqsphere.catalog import default_catalog_dir
from jqsphere.checks import run_check
from jqsphere.cli import main
from jqsphere.hopf import GenMorphism, HopfStructure
from jqsphere.jordanian import SIDES, build_catalog
from jqsphere.ncalg import FreePoly
from jqsphere.pairing import (
    DualPairing,
    check_invariance,
    check_pairing_annihilates,
    check_pairing_axioms,
    check_twisted_primitive,
)

CAT = build_catalog()
DP = CAT.pairing()
FUN = CAT.algebra("funh")
ENV = CAT.algebra("uh")

A, B, C, D = (FreePoly.gen(FUN, n) for n in "abcd")
T, TI, Y, H = (FreePoly.gen(ENV, n) for n in ("T", "Tinv", "Y", "H"))


# The pairing peels function-side letters first; its transpose DP.T reads
# the same pairing as <a, u> and so peels enveloping-side letters first.
DIRECTIONS = {
    "split-fun": lambda u, a: DP.pair(u, a),
    "split-env": lambda u, a: DP.T.pair(a, u),
}


def val(u, a, direction="split-fun"):
    return DIRECTIONS[direction](u, a)


# -- base table and frozen word values ----------------------------------


def test_generator_table():
    spec = CAT.data.pairings["jordanian_duality"]
    for (ug, ag), want in spec.table.items():
        got = val(FreePoly.gen(ENV, ug), FreePoly.gen(FUN, ag))
        assert got == want
    # spot values straight from the table
    assert val(T, B) == sc.h
    assert val(TI, B) == -sc.h
    assert val(Y, C) == sc.ONE
    assert val(H, A) == sc.ONE
    assert val(H, D) == -sc.ONE


@pytest.mark.parametrize("direction", sorted(DIRECTIONS))
def test_frozen_length_two_values(direction):
    # split through the coproducts by hand:
    #   <H, ab> = <H,a><T,b> + <Tinv,a><H,b> = h
    #   <H, ba> = <H,b><T,a> + <Tinv,b><H,a> = -h
    #   <H, a^2> = 2, <Y, ca> = 1, <T, ab> = <T,a><T,b> = h
    assert val(H, A * B, direction) == sc.h
    assert val(H, B * A, direction) == -sc.h
    assert val(H, A * A, direction) == 2 * sc.ONE
    assert val(Y, C * A, direction) == sc.ONE
    assert val(T, A * B, direction) == sc.h


def test_grouplike_pairs_multiplicatively():
    # T is group-like, so the value on a word is the product over letters
    for letters in (("a", "b"), ("b", "d"), ("a", "a", "d"), ("c", "b", "a")):
        w = FreePoly.unit(FUN)
        prod = sc.ONE
        for name in letters:
            w = w * FreePoly.gen(FUN, name)
            prod = prod * val(T, FreePoly.gen(FUN, name))
        assert val(T, w) == prod


def test_unit_rows_reduce_to_counits():
    eps_fun = CAT.hopf("funh").counit
    eps_env = CAT.hopf("uh").counit
    for a in (A, B, C * D, A * B - B):
        assert val(FreePoly.unit(ENV), a) == eps_fun.scalar(a)
    for u in (T, Y, H * Y, T * T - H):
        assert val(u, FreePoly.unit(FUN)) == eps_env.scalar(u)


def test_bilinearity():
    lhs = val(H + Y.scale(sc.h), A * B)
    assert lhs == val(H, A * B) + sc.h * val(Y, A * B)
    rhs = val(H, A * B - (B * A).scale(sc.ensure_scalar(Fraction(1, 2))))
    assert rhs == val(H, A * B) - sc.ensure_scalar(Fraction(1, 2)) * val(H, B * A)


def test_pairing_normalizes_before_splitting():
    # d*a and its normal form c*b - h*c*a + 1 must pair identically
    for u in (T, Y, H, Y * H):
        assert val(u, D * A) == val(u, C * B - (C * A).scale(sc.h) + 1)


def test_transpose_is_built_once():
    assert isinstance(DP.T, DualPairing)
    assert DP.T.T is DP
    assert (DP.T.env, DP.T.fun) == (DP.fun, DP.env)
    assert DP.T._memo is not DP._memo


# -- agreement of the two directions and cache behaviour ----------------

ENV_WORDS = st.lists(st.sampled_from(["T", "Tinv", "Y", "H"]), min_size=0, max_size=3)
FUN_WORDS = st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=0, max_size=3)


@settings(max_examples=120, deadline=None)
@given(ENV_WORDS, FUN_WORDS)
def test_split_directions_agree(uls, als):
    u = FreePoly.from_word(ENV, tuple(ENV.index(n) for n in uls))
    a = FreePoly.from_word(FUN, tuple(FUN.index(n) for n in als))
    assert DP.pair(u, a) == DP.T.pair(a, u)


def test_cache_is_transparent():
    u, a = Y * H, A * B * C
    first = DP.pair(u, a)
    DP.T.pair(a, u)
    assert DP._memo and DP.T._memo
    assert DP._contracted and DP.T._contracted
    # the memos live as long as the pairing: a new one starts them empty
    fresh = DualPairing(CAT.hopf("uh"), CAT.hopf("funh"), DP.base)
    assert not fresh._memo
    assert not fresh.T._memo
    assert not fresh._contracted
    assert not fresh.T._contracted
    assert fresh.pair(u, a) == first


def reference_pairing(dp):
    """pair(side, uw, aw) for side dp or dp.T, by the whole-coproduct
    recursion with memos of its own: <u, g . rest> = sum c <u1, g> <u2, rest>
    over every term of the coproduct of u, and a word pair goes to the
    transpose when only the enveloping word can be split."""
    memos = {dp: {}, dp.T: {}}

    def pair(side, uw, aw):
        memo = memos[side]
        if (uw, aw) not in memo:
            memo[uw, aw] = split(side, uw, aw)
        return memo[uw, aw]

    def split(side, uw, aw):
        if not uw:
            return side.fun.counit.word_image(aw).scalar_value()
        if not aw or (len(aw) == 1 and len(uw) > 1):
            return pair(side.T, aw, uw)
        if len(aw) == 1:
            return side.base[(uw[0], aw[0])]
        total = sc.ZERO
        for (u1, u2), c in side.env.coproduct.word_image(uw).terms.items():
            total = total + c * pair(side, u1, aw[:1]) * pair(side, u2, aw[1:])
        return total

    return pair


@pytest.mark.parametrize("bindings", [{}, {"h": 0}], ids=["packaged", "h=0"])
def test_contracted_recursion_matches_the_whole_coproduct_recursion(bindings):
    cat = build_catalog(bindings=bindings)
    dp = cat.pairing()
    ref = reference_pairing(dp)
    env_words = list(cat.system("uh").normal_words(3))
    fun_words = list(cat.system("funh").normal_words(3))
    for uw in env_words:
        for aw in fun_words:
            assert dp.pair_words(uw, aw) == ref(dp, uw, aw), (uw, aw)
            assert dp.T.pair_words(aw, uw) == ref(dp.T, aw, uw), (uw, aw)


# -- module actions ------------------------------------------------------


def test_action_values_on_generators():
    assert DP.left_action(H, A) == A
    assert DP.left_action(H, B) == -B
    assert DP.left_action(Y, A) == B
    assert DP.left_action(Y, B).is_zero()
    assert DP.right_action(A, H) == A
    assert DP.right_action(C, Y) == A
    assert DP.right_action(B, Y).is_zero()


def test_left_action_is_a_module_action():
    for u, v in ((H, Y), (Y, T), (H, H)):
        for a in (A, B, C * D):
            assert DP.left_action(u * v, a) == DP.left_action(u, DP.left_action(v, a))


def test_right_action_is_a_right_module_action():
    for u, v in ((H, Y), (Y, T)):
        for a in (A, B * C):
            assert DP.right_action(a, u * v) == DP.right_action(
                DP.right_action(a, u), v
            )


def test_actions_respect_relations():
    # acting on a defining relation gives zero, the action lives on the quotient
    rels = CAT.relations("funh")
    for _, rel in rels:
        assert DP.left_action(H, rel).is_zero()
        assert DP.right_action(rel, Y).is_zero()


# -- checker entry points ------------------------------------------------


def short_words(system, deg):
    return list(system.normal_words(deg))


def test_pairing_axioms_pass_on_short_words():
    ew = short_words(CAT.system("uh"), 1)
    fw = short_words(CAT.system("funh"), 1)
    assert check_pairing_axioms(DP, ew, fw) == []


def test_pairing_annihilates_relations():
    ew = short_words(CAT.system("uh"), 2)
    fw = short_words(CAT.system("funh"), 2)
    assert check_pairing_annihilates(DP, CAT.relations("funh"), ew) == []
    assert check_pairing_annihilates(DP.T, CAT.relations("uh"), fw) == []


def test_pairing_annihilates_sees_a_broken_relation():
    # a*c - c*a + h*c^2 pairs to zero term by term; doubling its last term
    # leaves h*<Y^2, c^2> = 2h against Y^2
    ew = short_words(CAT.system("uh"), 2)
    broken = A * C - C * A + (C * C).scale(2 * sc.h)
    assert check_pairing_annihilates(DP, [("ac", broken)], ew) == [("ac;Y^2", "2*h")]


def test_twisted_primitive_checker():
    elt = CAT.element("PL_cleared")
    assert check_twisted_primitive(DP, elt, T) == []
    # a group-like element fails all three twisted-primitivity conditions
    out = check_twisted_primitive(DP, T, T)
    assert [label for label, _ in out] == ["coproduct", "counit", "antipode"]


def test_invariance_checker_reports_failures():
    out = check_invariance(DP, H, [("b", B)], DP.left_action)
    assert ("gen:b", "-b") in out
    # the action is linear: k/rho * H sends b to -(k/rho) b
    out = check_invariance(DP, H.scale(sc.k / sc.rho), [("b", B)], DP.left_action)
    assert ("gen:b", B.scale(-sc.k / sc.rho).render()) in out


@pytest.mark.parametrize("check_id", ["invariance-PL", "invariance-PR", "invariance-products"])
def test_passing_invariance_does_no_fraction_arithmetic(check_id, monkeypatch):
    # every division and every operation with a polynomial denominator
    # ends in scalars._fraction; operations on polynomials and over an
    # integer denominator do not.  The elements carry k/rho and
    # kprime/rhoprime, and clearing them takes one fraction
    # multiplication per fractional coefficient.
    calls = []
    fraction = sc._fraction
    monkeypatch.setattr(sc, "_fraction", lambda num, den: calls.append(den) or fraction(num, den))
    report = run_check(CAT, check_id)
    assert report.status == "pass"
    assert len(calls) <= 50


# -- the word-level shortcuts agree with the tensor route -----------------


def reference_action(u, a, keep):
    """u acting on a by the tensor route: the coproduct of a's normal
    form, its other leg paired term by term, then a normal form."""
    un = CAT.system("uh").normal_form(u)
    nf = CAT.system("funh").normal_form
    t = CAT.hopf("funh").coproduct(nf(a))

    def paired(aw):
        total = sc.ZERO
        for (uw,), c in un.terms.items():
            total = total + c * DP.pair_words(uw, aw)
        return FreePoly.scalar((), total)

    return nf(t.map_slot(1 - keep, paired, ()))


def embedded_generators(side):
    emb = CAT.morphism(side.embed)
    sphere = CAT.algebra(side.sphere)
    return [(g, emb(FreePoly.gen(sphere, g))) for _, g in side.axes]


@pytest.mark.parametrize("side", SIDES, ids=lambda side: side.name)
def test_actions_match_the_tensor_route(side):
    gens = [x for _, x in embedded_generators(side)]
    act = side.action(DP)
    for u in (CAT.element(f"{side.element}_cleared"), H, Y):
        for a in gens + [x * y for x in gens for y in gens]:
            assert act(u, a) == reference_action(u, a, side.fun_slot)


def test_invariance_products_act_on_each_product_as_a_whole():
    # H is not invariant: each product residual is H acting on the whole
    # product, and the crossed side still agrees with the direct one
    gens = embedded_generators(SIDES[0])
    out = dict(check_invariance(DP, H, gens, DP.left_action))
    for la, a in gens:
        for lb, b in gens:
            want = reference_action(H, a * b, 0)
            assert out.get(f"product:{la}*{lb}", "0") == want.render()
    assert not [label for label in out if label.startswith("product-split:")]


def test_duality_axioms_apply_each_morphism_once_per_word(monkeypatch):
    # each coproduct, antipode and counit is applied once per word, not
    # once per loop iteration or recursion step (8,126 times in all)
    cat = build_catalog()
    dp = cat.pairing()
    calls = []
    apply = GenMorphism.__call__
    monkeypatch.setattr(GenMorphism, "__call__", lambda m, p: calls.append(m) or apply(m, p))
    assert run_check(cat, "duality-axioms").status == "pass"
    assert len(calls) <= 300
    # hoisting changes how often a value is asked for, not which values
    assert (len(dp._memo), len(dp.T._memo)) == (1600, 1025)


@pytest.mark.parametrize(
    "bindings, bound", [({}, 28_000), ({"h": 0}, 7_000)], ids=["generic", "h=0"]
)
def test_duality_axioms_multiply_only_terms_that_can_be_nonzero(bindings, bound, monkeypatch):
    # the recursion contracts each coproduct once per letter and the
    # product rows skip zero pairing values: about 20,000 and 4,900
    # scalar products; summing every term of every sum takes 81,077 and
    # 38,451, so the bounds leave about 40 % headroom and still catch that
    cat = build_catalog(bindings=bindings)
    assert run_check(cat, "duality-axioms").status == "pass"
    # count from empty pairing memos over the catalog's warm morphisms
    fresh = DualPairing(cat.hopf("uh"), cat.hopf("funh"), cat.pairing().base)
    monkeypatch.setattr(cat, "pairing", lambda: fresh)
    calls = []
    mul = sc.Scalar.__mul__
    monkeypatch.setattr(sc.Scalar, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    assert run_check(cat, "duality-axioms").status == "pass"
    assert len(calls) <= bound


# -- construction validation ---------------------------------------------


def test_unlisted_generator_pairs_are_zero(tmp_path, capsys):
    # the catalog format says pairs not listed are 0: the packaged table
    # without its seven zero lines gives the same reports, timing aside
    data = tmp_path / "data"
    shutil.copytree(default_catalog_dir(), data)
    maps = data / "maps.cat"
    text, count = re.subn(r"^pair \S+ \S+ -> 0\n", "", maps.read_text(), flags=re.M)
    assert count == 7
    maps.write_text(text)

    def reports(*argv):
        assert main(["--format", "json", *argv]) == 0
        return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', capsys.readouterr().out)

    assert reports("--catalog", str(data)) == reports()


def test_letterwise_coproducts_required():
    env = CAT.hopf("uh")
    fun = CAT.hopf("funh")
    fat = HopfStructure(
        env.system,
        # a coproduct with a length-2 tensor factor cannot drive the recursion
        _fat_coproduct(env),
        env.counit,
        env.antipode,
    )
    with pytest.raises(ValueError, match="length > 1"):
        DualPairing(fat, fun, CAT.data.pairings["jordanian_duality"].table)


def _fat_coproduct(env):
    from jqsphere.hopf import GenMorphism

    alg = env.alg
    images = {}
    for i, name in enumerate(alg.gens):
        p = FreePoly.from_word(alg, (i,))
        images[name] = FreePoly.of(p * p, FreePoly.unit(alg))
    return GenMorphism("fat", alg, (alg, alg), images)
