"""Dual pairing between an enveloping-type algebra and a function-type
algebra, from a base table on generators.

The value on longer words is forced by the bialgebra laws: pairing
against a product on one side splits through the coproduct on the other.
Both split directions are implemented as separate strategies so their
agreement can be tested instead of assumed.  Evaluation is memoized on
word pairs; the cache is pure and can be cleared at any time without
changing results.

The invariance check takes the action as a function act(u, a), bound to
left_action or, with its arguments swapped, to right_action.  Checks
gather their residuals through ncalg.collect.
"""

from __future__ import annotations

import functools

from . import scalars as sc
from .ncalg import FreePoly, collect
from .hopf import HopfStructure

SPLIT_FUN = "split-fun"  # peel generators off the function-algebra word
SPLIT_ENV = "split-env"  # peel generators off the enveloping-algebra word

STRATEGIES = (SPLIT_FUN, SPLIT_ENV)


class DualPairing:
    """<u, a> for u over the enveloping side, a over the function side."""

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

    def clear_cache(self):
        self._memo = {}

    # -- word-level recursion -----------------------------------------

    def pair_words(self, uw, aw, strategy=SPLIT_FUN):
        key = (strategy, uw, aw)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        value = self._pair_words(uw, aw, strategy)
        self._memo[key] = value
        return value

    def _pair_words(self, uw, aw, strategy):
        if not uw:
            return self.fun.counit.scalar(FreePoly.from_word(self.fun.alg, aw))
        if not aw:
            return self.env.counit.scalar(FreePoly.from_word(self.env.alg, uw))
        if len(uw) == 1 and len(aw) == 1:
            return self.base[(uw[0], aw[0])]
        if len(aw) > 1 and (strategy == SPLIT_FUN or len(uw) == 1):
            # <u, g . rest> = sum <u(1), g> <u(2), rest>
            g, rest = aw[:1], aw[1:]
            split = self.env.coproduct(FreePoly.from_word(self.env.alg, uw))
            total = sc.ZERO
            for (u1, u2), c in split.terms.items():
                left = self.pair_words(u1, g, strategy)
                if not left:
                    continue
                total = total + c * left * self.pair_words(u2, rest, strategy)
            return total
        # <f . rest, a> = sum <f, a(1)> <rest, a(2)>
        f, rest = uw[:1], uw[1:]
        split = self.fun.coproduct(FreePoly.from_word(self.fun.alg, aw))
        total = sc.ZERO
        for (a1, a2), c in split.terms.items():
            left = self.pair_words(f, a1, strategy)
            if not left:
                continue
            total = total + c * left * self.pair_words(rest, a2, strategy)
        return total

    # -- polynomial level ----------------------------------------------

    def pair(self, u: FreePoly, a: FreePoly, strategy=SPLIT_FUN):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        un = self.env.system.normal_form(u)
        an = self.fun.system.normal_form(a)
        total = sc.ZERO
        for (uw,), cu in un.terms.items():
            for (aw,), ca in an.terms.items():
                val = self.pair_words(uw, aw, strategy)
                if val:
                    total = total + cu * ca * val
        return total

    # -- module structure on the function side --------------------------

    def _paired(self, u: FreePoly):
        """The linear form <u, -> on function-side words, valued in scalars."""
        fun = self.fun.alg
        return lambda w: FreePoly.scalar((), self.pair(u, FreePoly.from_word(fun, w)))

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
    for every identity that failed, with the nonzero difference rendered."""
    bad = []
    env_alg, fun_alg = dp.env.alg, dp.fun.alg
    upoly = functools.partial(FreePoly.from_word, env_alg)
    apoly = functools.partial(FreePoly.from_word, fun_alg)
    env_words = list(env_words)
    fun_words = list(fun_words)
    # labels are rendered once per word, not once per identity checked
    ew = {w: env_alg.render_word(w) for w in env_words}
    fw = {w: fun_alg.render_word(w) for w in fun_words}
    short_env = [w for w in env_words if len(w) <= product_depth]
    short_fun = [w for w in fun_words if len(w) <= product_depth]
    for uw in env_words:
        u = upoly(uw)
        got = dp.pair(u, FreePoly.unit(fun_alg))
        collect(bad, f"unit-fun:{ew[uw]}", got, dp.env.counit.scalar(u))
    for aw in fun_words:
        a = apoly(aw)
        got = dp.pair(FreePoly.unit(env_alg), a)
        collect(bad, f"unit-env:{fw[aw]}", got, dp.fun.counit.scalar(a))
    for uw in short_env:
        for vw in short_env:
            u, v = upoly(uw), upoly(vw)
            for aw in fun_words:
                a = apoly(aw)
                direct = dp.pair(u * v, a)
                split = sc.ZERO
                for (a1, a2), c in dp.fun.coproduct(a).terms.items():
                    split = split + c * dp.pair(u, apoly(a1)) * dp.pair(v, apoly(a2))
                collect(bad, f"product-env:{ew[uw]};{ew[vw]};{fw[aw]}", direct, split)
    for aw in short_fun:
        for bw in short_fun:
            a, b = apoly(aw), apoly(bw)
            for uw in env_words:
                u = upoly(uw)
                direct = dp.pair(u, a * b)
                split = sc.ZERO
                for (u1, u2), c in dp.env.coproduct(u).terms.items():
                    split = split + c * dp.pair(upoly(u1), a) * dp.pair(upoly(u2), b)
                collect(bad, f"product-fun:{ew[uw]};{fw[aw]};{fw[bw]}", direct, split)
    for uw in env_words:
        for aw in fun_words:
            u, a = upoly(uw), apoly(aw)
            got = dp.pair(dp.env.antipode(u), a)
            collect(bad, f"antipode:{ew[uw]};{fw[aw]}", got, dp.pair(u, dp.fun.antipode(a)))
    return bad


def check_pairing_annihilates(dp: DualPairing, relations, side, words) -> list:
    """Well-definedness: defining relations of one factor pair to zero
    against every word of the other factor."""
    bad = []
    for label, rel in relations:
        for w in words:
            if side == "fun":
                val = dp.pair(FreePoly.from_word(dp.env.alg, w), rel)
                wlabel = dp.env.alg.render_word(w)
            else:
                val = dp.pair(rel, FreePoly.from_word(dp.fun.alg, w))
                wlabel = dp.fun.alg.render_word(w)
            collect(bad, f"{label};{wlabel}", val)
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
    the two factors."""
    bad = []
    gens = list(generators)
    for label, a in gens:
        collect(bad, f"gen:{label}", act(element, a))
    split = dp.env.coproduct(dp.env.system.normal_form(element))
    upoly = functools.partial(FreePoly.from_word, dp.env.alg)
    for la, a in gens:
        for lb, b in gens:
            direct = act(element, dp.fun.system.normal_form(a * b))
            collect(bad, f"product:{la}*{lb}", direct)
            parts = (
                (act(upoly(u1), a) * act(upoly(u2), b)).scale(c)
                for (u1, u2), c in split.terms.items()
            )
            crossed = dp.fun.system.normal_form(FreePoly.combine((dp.fun.alg,), parts))
            collect(bad, f"product-split:{la}*{lb}", crossed, direct)
    return bad
