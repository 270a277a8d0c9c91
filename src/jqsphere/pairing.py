"""Dual pairing between an enveloping-type algebra and a function-type
algebra, from a base table on generators.

The value on longer words is forced by the bialgebra laws: pairing
against a product on one side splits through the coproduct on the other.
The recursion is written once and peels function-side letters.
DualPairing.T is the same pairing read the other way round, <a, u>, so
the same code run on T peels enveloping-side letters; a word pair goes
to T when only the enveloping word can be split.  The duality check
compares both directions on every word pair instead of assuming they
agree.

Each word-level value is computed once.  Evaluation is memoized on word
pairs, one memo per direction; these are the only memos that outlive a
call, they are pure, and clear_cache empties them without changing
results.  The recursion splits a word through the coproduct's cached
word image.  Everything else is reused only within one call: an action
pairs each word of its paired tensor leg once, the axiom check
computes each coproduct, antipode and product once in the loop where it
is invariant, and the invariance check expands a product into its
normal words by linearity and acts on each distinct word, and with each
leg of the element's coproduct on each generator, once.

pair_words takes words; pair takes polynomials and reduces them to
normal form first.  The invariance check takes the action as a function
act(u, a), bound to left_action or, with its arguments swapped, to
right_action.  Checks gather their residuals through ncalg.collect.

The invariance elements carry k/rho and kprime/rhoprime, and every
scalar operation on a fraction cancels a gcd.  The action is linear in
its element, so check_invariance clears the element's denominator D
once (ncalg.clear_denominators), acts with D * element in the
polynomial ring, and divides a residual by D only when it is nonzero
(ncalg.collect_cleared): a passing check does no fraction arithmetic,
and a failing one reports the same residual as the element itself.
"""

from __future__ import annotations

import functools

from . import scalars as sc
from .ncalg import FreePoly, clear_denominators, collect, collect_cleared
from .hopf import HopfStructure


class DualPairing:
    """<u, a> for u over the enveloping side, a over the function side.

    T is the transpose <a, u>: a DualPairing with env and fun swapped,
    built once with the pairing, with T.T the pairing itself."""

    def __init__(self, env: HopfStructure, fun: HopfStructure, base: dict):
        self.env = env
        self.fun = fun
        self.base = {}
        for (ug, ag), value in base.items():
            ui = ug if isinstance(ug, int) else env.alg.index(ug)
            ai = ag if isinstance(ag, int) else fun.alg.index(ag)
            self.base[(ui, ai)] = value
        for ui in range(len(env.alg.gens)):
            for ai in range(len(fun.alg.gens)):
                if (ui, ai) not in self.base:
                    raise ValueError(
                        f"base table misses <{env.alg.gens[ui]}, {fun.alg.gens[ai]}>"
                    )
        for side, hopf in (("env", env), ("fun", fun)):
            for i in range(len(hopf.alg.gens)):
                img = hopf.coproduct(FreePoly.from_word(hopf.alg, (i,)))
                for wl, wr in img.terms:
                    if len(wl) > 1 or len(wr) > 1:
                        raise ValueError(
                            f"{side} coproduct of {hopf.alg.gens[i]} has a factor "
                            "of length > 1; recursive pairing needs letters"
                        )
        self._memo = {}
        # the checks above read the same with env and fun swapped
        self.T = transpose = object.__new__(DualPairing)
        transpose.env, transpose.fun, transpose.T = fun, env, self
        transpose.base = {(ai, ui): value for (ui, ai), value in self.base.items()}
        transpose._memo = {}

    def clear_cache(self):
        self._memo = {}
        self.T._memo = {}

    # -- word-level recursion -----------------------------------------

    def pair_words(self, uw, aw):
        value = self._memo.get((uw, aw))
        if value is None:
            value = self._memo[(uw, aw)] = self._pair_words(uw, aw)
        return value

    def _pair_words(self, uw, aw):
        if not uw:
            return self.fun.counit.word_image(aw).scalar_value()
        if not aw or (len(aw) == 1 and len(uw) > 1):
            return self.T.pair_words(aw, uw)
        if len(aw) == 1:
            return self.base[(uw[0], aw[0])]
        # <u, g . rest> = sum <u(1), g> <u(2), rest>
        g, rest = aw[:1], aw[1:]
        total = sc.ZERO
        for (u1, u2), c in self.env.coproduct.word_image(uw).terms.items():
            left = self.pair_words(u1, g)
            if not left:
                continue
            total = total + c * left * self.pair_words(u2, rest)
        return total

    # -- polynomial level ----------------------------------------------

    def pair(self, u: FreePoly, a: FreePoly):
        return self._pair_normal(self.env.system.normal_form(u), self.fun.system.normal_form(a))

    def _pair_normal(self, u: FreePoly, a: FreePoly):
        """<u, a> for u and a already in normal form."""
        total = sc.ZERO
        for (uw,), cu in u.terms.items():
            for (aw,), ca in a.terms.items():
                val = self.pair_words(uw, aw)
                if val:
                    total = total + cu * ca * val
        return total

    # -- module structure on the function side --------------------------

    def _paired(self, u: FreePoly):
        """The linear form <u, -> on normal function-side words, valued in scalars."""
        terms = self.env.system.normal_form(u).terms.items()

        @functools.cache
        def form(aw):
            total = sc.ZERO
            for (uw,), cu in terms:
                val = self.pair_words(uw, aw)
                if val:
                    total = total + cu * val
            return FreePoly.scalar((), total)

        return form

    def left_action(self, u: FreePoly, a: FreePoly) -> FreePoly:
        """u acting from the left: keep a's first tensor leg, pair the second."""
        t = self.fun.coproduct(self.fun.system.normal_form(a))
        return self.fun.system.normal_form(t.map_slot(1, self._paired(u), ()))

    def right_action(self, a: FreePoly, u: FreePoly) -> FreePoly:
        """u acting from the right: pair a's first tensor leg, keep the second."""
        t = self.fun.coproduct(self.fun.system.normal_form(a))
        return self.fun.system.normal_form(t.map_slot(0, self._paired(u), ()))


# -- higher-level checks ------------------------------------------------

def check_pairing_axioms(dp: DualPairing, env_words, fun_words, product_depth=2) -> list:
    """Bialgebra compatibility of the pairing on the given normal words:
    products on one side split through coproducts on the other, units
    pair by counits, antipodes transpose.  Returns (label, value) pairs
    for every identity that failed, with the nonzero difference rendered.

    The words are normal, so the unit rows and the split legs pair them
    as words; products and antipodes are polynomials and go through pair."""
    bad = []
    env, fun = dp.env, dp.fun
    env_polys = {w: FreePoly.from_word(env.alg, w) for w in env_words}
    fun_polys = {w: FreePoly.from_word(fun.alg, w) for w in fun_words}
    # labels are rendered once per word, not once per identity checked
    ew = {w: env.alg.render_word(w) for w in env_polys}
    fw = {w: fun.alg.render_word(w) for w in fun_polys}
    short_env = [w for w in env_polys if len(w) <= product_depth]
    short_fun = [w for w in fun_polys if len(w) <= product_depth]
    for uw, u in env_polys.items():
        collect(bad, f"unit-fun:{ew[uw]}", dp.pair_words(uw, ()), env.counit.scalar(u))
    for aw, a in fun_polys.items():
        collect(bad, f"unit-env:{fw[aw]}", dp.pair_words((), aw), fun.counit.scalar(a))
    # coproducts, antipodes and products are computed once, in the loop
    # they are invariant in, and paired in normal form
    fun_splits = {aw: fun.coproduct(a).terms.items() for aw, a in fun_polys.items()}
    for uw in short_env:
        for vw in short_env:
            uv = env.system.normal_form(env_polys[uw] * env_polys[vw])
            for aw, a in fun_polys.items():
                split = sc.ZERO
                for (a1, a2), c in fun_splits[aw]:
                    split = split + c * dp.pair_words(uw, a1) * dp.pair_words(vw, a2)
                label = f"product-env:{ew[uw]};{ew[vw]};{fw[aw]}"
                collect(bad, label, dp._pair_normal(uv, a), split)
    env_splits = {uw: env.coproduct(u).terms.items() for uw, u in env_polys.items()}
    for aw in short_fun:
        for bw in short_fun:
            ab = fun.system.normal_form(fun_polys[aw] * fun_polys[bw])
            for uw, u in env_polys.items():
                split = sc.ZERO
                for (u1, u2), c in env_splits[uw]:
                    split = split + c * dp.pair_words(u1, aw) * dp.pair_words(u2, bw)
                label = f"product-fun:{ew[uw]};{fw[aw]};{fw[bw]}"
                collect(bad, label, dp._pair_normal(u, ab), split)
    fun_antipodes = {aw: fun.system.normal_form(fun.antipode(a)) for aw, a in fun_polys.items()}
    for uw, u in env_polys.items():
        su = env.system.normal_form(env.antipode(u))
        for aw, a in fun_polys.items():
            got = dp._pair_normal(su, a)
            collect(bad, f"antipode:{ew[uw]};{fw[aw]}", got, dp._pair_normal(u, fun_antipodes[aw]))
    return bad


def check_pairing_annihilates(dp: DualPairing, relations, words) -> list:
    """Well-definedness: each defining relation of dp's function side,
    paired term by term as it is written, vanishes against every given
    word of the enveloping side.  dp.T checks the enveloping side's
    relations."""
    bad = []
    labels = {w: dp.env.alg.render_word(w) for w in words}
    for label, rel in relations:
        for w in words:
            val = sc.ZERO
            for (rw,), c in rel.terms.items():
                val = val + c * dp.pair_words(w, rw)
            collect(bad, f"{label};{labels[w]}", val)
    return bad


def check_twisted_primitive(dp: DualPairing, element: FreePoly, grouplike: FreePoly) -> list:
    """element is twisted primitive for the group-like g: its coproduct
    is element (x) g + g^inv (x) element, its counit vanishes and its
    antipode is -g element g^inv."""
    env = dp.env
    nf = env.system.normal_form
    e = nf(element)
    g = nf(grouplike)
    ginv = nf(env.antipode(g))
    bad = []
    expected = FreePoly.of(e, g) + FreePoly.of(ginv, e)
    collect(bad, "coproduct", env.coproduct(e), expected)
    collect(bad, "counit", env.counit.scalar(e))
    collect(bad, "antipode", nf(env.antipode(e) + g * e * ginv))
    return bad


def check_invariance(dp: DualPairing, element: FreePoly, generators, act) -> list:
    """element annihilates each given function-algebra polynomial and all
    their pairwise products under the action act(u, a); products are
    checked twice, directly and by splitting element's coproduct across
    the two factors.

    The action is linear in element, so everything runs on D * element,
    whose coefficients are polynomials (D clears the denominators of
    k/rho and kprime/rhoprime): no action, product or split meets a
    fraction.  A residual is divided by D only once it is known to be
    nonzero, and product-split compares the two D-fold values before
    dividing their difference, so a failure reports the same value as
    for element itself."""
    element, den = clear_denominators(element)
    bad = []
    gens = list(generators)
    for label, a in gens:
        collect_cleared(bad, f"gen:{label}", den, act(element, a))
    fun = dp.fun
    # the direct side acts on each normal word of a product once
    on_word = functools.cache(lambda w: act(element, FreePoly.from_word(fun.alg, w)))
    # the crossed side acts with each leg of the split on each generator once
    split = dp.env.coproduct(dp.env.system.normal_form(element))
    legs = {u for key in split.terms for u in key}
    on_gen = {
        (u, la): act(FreePoly.from_word(dp.env.alg, u), a) for u in legs for la, a in gens
    }
    for la, a in gens:
        for lb, b in gens:
            words = fun.system.normal_form(a * b).terms.items()
            direct = FreePoly.combine((fun.alg,), (on_word(w).scale(c) for (w,), c in words))
            collect_cleared(bad, f"product:{la}*{lb}", den, direct)
            parts = (
                (on_gen[u1, la] * on_gen[u2, lb]).scale(c)
                for (u1, u2), c in split.terms.items()
            )
            crossed = fun.system.normal_form(FreePoly.combine((fun.alg,), parts))
            collect_cleared(bad, f"product-split:{la}*{lb}", den, crossed, direct)
    return bad
