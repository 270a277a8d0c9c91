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

Each word-level value is computed once.  Two memos per direction
outlive a call: the values on word pairs, and the contraction of each
word u by each letter g of the other side, sum <u(1), g> u(2) over the
coproduct's cached word image, with equal second legs merged and zero
coefficients dropped.  Both are pure and live as long as the pairing,
so a new DualPairing starts with them empty.  The recursion sums
<u, g . rest> over that contraction, so it walks the coproduct of u once
per letter rather than once per rest, and it multiplies only terms that
can be nonzero.

Everything else is reused only within one call.  An action pairs each
word of its paired tensor leg once.  The axiom check computes each
coproduct, antipode and product once in the loop where it is invariant.
Its product rows, run once per side, read each <x, -> once as a sparse
row over the split legs, form c <x, a1> once per (x, a) merged by the
second leg, and add only nonzero products; the direct side skips zero
pairing values.  The invariance check expands a product into its normal
words by linearity and acts on each distinct word, and with each leg of
the element's coproduct on each generator, once; its crossed side sums
sum c (u1 . a)(u2 . b) as the sum over the distinct first legs u1 of
(u1 . a)(sum c (u2 . b)), one product per first leg.

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
        # generator pairs the table does not list pair to zero
        self.base = {
            (ui, ai): sc.ZERO
            for ui in range(len(env.alg.gens))
            for ai in range(len(fun.alg.gens))
        }
        for (ug, ag), value in base.items():
            ui = ug if isinstance(ug, int) else env.alg.index(ug)
            ai = ag if isinstance(ag, int) else fun.alg.index(ag)
            self.base[(ui, ai)] = value
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
        self._contracted = {}
        # the checks above read the same with env and fun swapped
        self.T = transpose = object.__new__(DualPairing)
        transpose.env, transpose.fun, transpose.T = fun, env, self
        transpose.base = {(ai, ui): value for (ui, ai), value in self.base.items()}
        transpose._memo = {}
        transpose._contracted = {}

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
        # <u, g . rest> = sum <u(1), g> <u(2), rest>, over the contraction by g
        rest = aw[1:]
        total = sc.ZERO
        for u2, d in self._contract(uw, aw[0]):
            val = self.pair_words(u2, rest)
            if val:
                total = total + d * val
        return total

    def _contract(self, uw, g):
        """The contraction sum <u(1), g> u(2) of uw by the letter g, as
        (u(2), coefficient) pairs with equal second legs merged and zero
        coefficients dropped."""
        legs = self._contracted.get((uw, g))
        if legs is None:
            split = self.env.coproduct.word_image(uw).terms.items()
            legs = self._contracted[(uw, g)] = _gathered(
                (u2, c * left)
                for (u1, u2), c in split
                if (left := self.pair_words(u1, (g,)))
            )
        return legs

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


def _gathered(terms):
    """The (key, scalar) terms summed by key, as (key, total) pairs with
    the zero totals dropped."""
    out = {}
    for key, c in terms:
        prev = out.get(key)
        out[key] = c if prev is None else prev + c
    return tuple((key, c) for key, c in out.items() if c)


# -- higher-level checks ------------------------------------------------

def check_pairing_axioms(dp: DualPairing, env_words, fun_words) -> list:
    """Bialgebra compatibility of the pairing on the given normal words:
    products on one side split through coproducts on the other, units
    pair by counits, antipodes transpose.  Returns (label, value) pairs
    for every identity that failed, with the nonzero difference rendered.

    The words are normal, so the unit rows and the split legs pair them
    as words; products and antipodes are polynomials in normal form."""
    bad = []
    env, fun = dp.env, dp.fun
    env_polys = {w: FreePoly.from_word(env.alg, w) for w in env_words}
    fun_polys = {w: FreePoly.from_word(fun.alg, w) for w in fun_words}
    # labels are rendered once per word, not once per identity checked
    ew = {w: env.alg.render_word(w) for w in env_polys}
    fw = {w: fun.alg.render_word(w) for w in fun_polys}
    for uw, u in env_polys.items():
        collect(bad, f"unit-fun:{ew[uw]}", dp.pair_words(uw, ()), env.counit.scalar(u))
    for aw, a in fun_polys.items():
        collect(bad, f"unit-env:{fw[aw]}", dp.pair_words((), aw), fun.counit.scalar(a))
    _check_products(
        bad, dp.pair_words, env, env_polys, fun, fun_polys,
        lambda u, v, a: f"product-env:{ew[u]};{ew[v]};{fw[a]}",
    )
    _check_products(
        bad, lambda a, u: dp.pair_words(u, a), fun, fun_polys, env, env_polys,
        lambda a, b, u: f"product-fun:{ew[u]};{fw[a]};{fw[b]}",
    )
    fun_antipodes = {aw: fun.system.normal_form(fun.antipode(a)) for aw, a in fun_polys.items()}
    for uw, u in env_polys.items():
        su = env.system.normal_form(env.antipode(u))
        for aw, a in fun_polys.items():
            got = dp._pair_normal(su, a)
            collect(bad, f"antipode:{ew[uw]};{fw[aw]}", got, dp._pair_normal(u, fun_antipodes[aw]))
    return bad


def _check_products(bad, pair, side, polys, other, other_polys, label):
    """<x y, a> against sum c <x, a1> <y, a2> over the coproduct of a, for
    x, y among polys (normal words of side) and a among other_polys, in
    that loop order.  pair(x, a) is the pairing with side's word first.

    Only terms that can be nonzero are summed: each x contracts the first
    legs of each a's coproduct once, into sum c <x, a1> per second leg;
    each y pairs the second legs once, as a sparse row; the direct side
    skips zero pairing values."""
    splits = {a: other.coproduct(p).terms.items() for a, p in other_polys.items()}
    firsts = {
        (x, a): _gathered((a2, c * v) for (a1, a2), c in split if (v := pair(x, a1)))
        for x in polys
        for a, split in splits.items()
    }
    second_legs = dict.fromkeys(a2 for split in splits.values() for (_, a2), _ in split)
    rows = {y: {a2: v for a2 in second_legs if (v := pair(y, a2))} for y in polys}
    nf = side.system.normal_form
    for x, xp in polys.items():
        for y, yp in polys.items():
            xy = nf(xp * yp).terms.items()
            row = rows[y]
            for a in splits:
                split = sc.ZERO
                for a2, d in firsts[x, a]:
                    if a2 in row:
                        split = split + d * row[a2]
                direct = sc.ZERO
                for (w,), c in xy:
                    if v := pair(w, a):
                        direct = direct + c * v
                collect(bad, label(x, y, a), direct, split)


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
    # the crossed side acts with each leg of the split on each generator
    # once, and sums sum c (u1 . a)(u2 . b) as the sum over the distinct
    # first legs u1 of (u1 . a)(sum c (u2 . b))
    split = dp.env.coproduct(dp.env.system.normal_form(element))
    legs = {u for key in split.terms for u in key}
    on_gen = {
        (u, la): act(FreePoly.from_word(dp.env.alg, u), a) for u in legs for la, a in gens
    }
    by_first = {}
    for (u1, u2), c in split.terms.items():
        by_first.setdefault(u1, []).append((u2, c))
    on_seconds = {
        (u1, lb): FreePoly.combine((fun.alg,), (on_gen[u2, lb].scale(c) for u2, c in seconds))
        for u1, seconds in by_first.items()
        for lb, _ in gens
    }
    for la, a in gens:
        for lb, b in gens:
            words = fun.system.normal_form(a * b).terms.items()
            direct = FreePoly.combine((fun.alg,), (on_word(w).scale(c) for (w,), c in words))
            collect_cleared(bad, f"product:{la}*{lb}", den, direct)
            parts = (on_gen[u1, la] * on_seconds[u1, lb] for u1 in by_first)
            crossed = fun.system.normal_form(FreePoly.combine((fun.alg,), parts))
            collect_cleared(bad, f"product-split:{la}*{lb}", den, crossed, direct)
    return bad
