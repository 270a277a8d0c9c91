"""Degree-graded rewriting engine for finitely presented algebras.

Relations are oriented into rules lhs -> rhs where lhs is the leading
word in ncalg's graded-lex order and every rhs word is strictly smaller;
with that shape a reduction step never raises the degree, so reduction
terminates on its own.  Interreduction adopts relations one at a time
from a work queue, which empties because grlex is a well-order (see
interreduce); MAX_REDUCTIONS bounds it anyway, so that a fault ends in
NonTerminating rather than in unbounded work.  Completion examines every
overlap and inclusion ambiguity between rule left sides up to a degree
cap and adds the oriented residuals that do not already reduce to zero.
The certificate is the list of ambiguities examined in the final round,
each of which resolved.  When none was skipped for degree the system is
marked closed: the final rule set has the diamond property everywhere,
so normal forms of arbitrary degree are well defined and unique.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import scalars as sc
from .errors import (
    AlgebraMismatch,
    DegreeCapExceeded,
    NonTerminating,
    NotOrientable,
)
from .ncalg import Algebra, FreePoly, Word, all_words, grlex

# reductions an interreduction may make, and rules a completion may reach,
# before NonTerminating
MAX_REDUCTIONS = 10_000
MAX_RULES = 128


def _leading(p: FreePoly):
    """(word, coeff) of the largest term of a nonzero one-slot polynomial."""
    key = max(p.terms, key=grlex)
    return key[0], p.terms[key]


def _rule_order(rule):
    return grlex((rule.lhs,))


@dataclass(frozen=True)
class RewriteRule:
    """Monic oriented rule: the word lhs rewrites to the polynomial rhs."""

    lhs: Word
    rhs: FreePoly

    def poly(self) -> FreePoly:
        """The relation lhs - rhs this rule encodes."""
        return FreePoly.from_word(self.rhs.alg, self.lhs) - self.rhs


def orient(relation: FreePoly) -> RewriteRule:
    """Turn a nonzero relation into a monic rule at its leading word."""
    if relation.is_zero():
        raise ValueError("cannot orient the zero relation")
    lhs, lc = _leading(relation)
    if not lhs:
        raise NotOrientable("relation is a nonzero constant (inconsistent system)")
    rest = FreePoly(relation.slots, {k: c for k, c in relation.terms.items() if k != (lhs,)})
    return RewriteRule(lhs, (-rest).scale(sc.ONE / lc))


@dataclass(frozen=True)
class Ambiguity:
    """One critical situation between two rules: their left sides meet
    inside overlap_word, the left rule at offset 0 and the right rule at
    offset (an overlap when it runs past the left side's end, an
    inclusion when it sits inside)."""

    left_lhs: Word
    right_lhs: Word
    overlap_word: Word
    offset: int


class RewriteSystem:
    """An oriented rule set with memoized normal forms."""

    def __init__(self, alg: Algebra, rules, completed_through=0):
        self.alg = alg
        self.rules = sorted(rules, key=_rule_order)
        self._by_lhs = {r.lhs: r for r in self.rules}
        if len(self._by_lhs) != len(self.rules):
            raise ValueError("duplicate rule left sides")
        self._lengths = sorted({len(r.lhs) for r in self.rules})
        self._memo = {}
        self.completed_through = completed_through
        self.closed = True  # complete() clears it when the cap skipped an ambiguity
        self.certificate: list[Ambiguity] = []

    # -- matching ----------------------------------------------------

    def find_redex(self, word: Word):
        """Leftmost, shortest match of a rule left side inside word."""
        by_lhs = self._by_lhs
        n = len(word)
        for pos in range(n):
            for L in self._lengths:
                if pos + L > n:
                    break
                rule = by_lhs.get(word[pos : pos + L])
                if rule is not None:
                    return pos, rule
        return None

    def is_normal(self, word: Word) -> bool:
        return self.find_redex(word) is None

    def normal_words(self, max_degree: int):
        for w in all_words(self.alg, max_degree):
            if self.is_normal(w):
                yield w

    # -- reduction ---------------------------------------------------

    def nf_word(self, word: Word) -> FreePoly:
        """Normal form of a single word, memoized bottom-up."""
        memo = self._memo
        cached = memo.get(word)
        if cached is not None:
            return cached
        stack = [word]
        while stack:
            w = stack[-1]
            if w in memo:
                stack.pop()
                continue
            hit = self.find_redex(w)
            if hit is None:
                memo[w] = FreePoly.from_word(self.alg, w)
                stack.pop()
                continue
            pos, rule = hit
            head, tail = w[:pos], w[pos + len(rule.lhs) :]
            children = [head + u + tail for (u,) in rule.rhs.terms]
            pending = [u for u in children if u not in memo]
            if pending:
                stack.extend(pending)
                continue
            memo[w] = rule.rhs.map_slot(0, lambda u: memo[head + u + tail], (self.alg,))
            stack.pop()
        return memo[word]

    def normal_form(self, p: FreePoly) -> FreePoly:
        if p.slots != (self.alg,):
            over = "(x)".join(a.id for a in p.slots)
            raise AlgebraMismatch(f"polynomial over {over}, system over {self.alg.id}")
        if not self.closed and p.degree() > self.completed_through:
            raise DegreeCapExceeded(
                f"degree {p.degree()} input, system only completed through "
                f"{self.completed_through} and not closed"
            )
        if all(self.find_redex(w) is None for (w,) in p.terms):
            return p
        return p.map_slot(0, self.nf_word, (self.alg,))

    def reduces_to_zero(self, p: FreePoly) -> bool:
        return self.normal_form(p).is_zero()

    # -- certificates ------------------------------------------------

    def verify_certificate(self) -> bool:
        """Confirm the recorded ambiguities are exactly those the degree
        cap admits among the current rules, and that each still resolves."""
        want = [
            a
            for a in enumerate_ambiguities(self.rules)
            if len(a.overlap_word) <= self.completed_through
        ]
        if set(want) != set(self.certificate):
            return False
        return all(self._ambiguity_resolves(a) is None for a in want)

    def _ambiguity_resolves(self, amb: Ambiguity) -> FreePoly | None:
        left = self._by_lhs[amb.left_lhs]
        right = self._by_lhs[amb.right_lhs]
        w = amb.overlap_word
        head = FreePoly.from_word(self.alg, w[: amb.offset])
        tail_l = FreePoly.from_word(self.alg, w[len(left.lhs) :])
        tail_r = FreePoly.from_word(self.alg, w[amb.offset + len(right.lhs) :])
        branch_l = left.rhs * tail_l
        branch_r = head * right.rhs * tail_r
        residual = (branch_l - branch_r).map_slot(0, self.nf_word, (self.alg,))
        return residual if not residual.is_zero() else None


def enumerate_ambiguities(rules):
    """All overlap and inclusion ambiguities among the rule left sides,
    deterministically ordered.  The left rule always matches at offset 0
    of overlap_word; the right rule enters at offset > 0 (overlap) or
    sits strictly inside (inclusion)."""
    rules = sorted(rules, key=_rule_order)
    out = []
    for ri in rules:
        a = ri.lhs
        for rj in rules:
            b = rj.lhs
            for off in range(1, len(a)):
                if off + len(b) <= len(a):
                    if a[off : off + len(b)] == b:
                        out.append(Ambiguity(a, b, a, off))
                else:
                    t = len(a) - off
                    if a[off:] == b[:t]:
                        out.append(Ambiguity(a, b, a + b[t:], off))
    return out


def interreduce(alg: Algebra, relations) -> list:
    """Monic rules with pairwise irreducible left sides and normal right
    sides, spanning the same ideal as relations.

    One work queue: each relation is reduced by the rules adopted so far
    and dropped if it reaches zero; otherwise it is oriented and adopted,
    and every adopted rule whose left side contains the new left side goes
    back on the queue.  A requeued relation reduces to a smaller leading
    word, and grlex is a well-order, so the queue empties; MAX_REDUCTIONS
    caps the reductions all the same.  Right sides are reduced once at the
    end, when the rule set is final.
    """
    queue = deque(relations)
    rules = {}
    reductions = 0
    while queue:
        reductions += 1
        if reductions > MAX_REDUCTIONS:
            raise NonTerminating(f"interreduction did not stabilize over {alg.id}")
        p = RewriteSystem(alg, rules.values()).normal_form(queue.popleft())
        if p.is_zero():
            continue
        rule = orient(p)
        inside = RewriteSystem(alg, [rule])
        for lhs in [w for w in rules if not inside.is_normal(w)]:
            queue.append(rules.pop(lhs).poly())
        rules[rule.lhs] = rule
    system = RewriteSystem(alg, rules.values())
    return [RewriteRule(r.lhs, system.normal_form(r.rhs)) for r in system.rules]


def complete(alg: Algebra, relations, max_degree: int = 6) -> RewriteSystem:
    """Knuth-Bendix style completion under a degree cap.

    Residuals of unresolved ambiguities are adjoined as rules and the set
    is re-interreduced until every examinable ambiguity resolves.  The
    returned system carries the certificate; closed means nothing was
    skipped for degree, which makes the diamond property global.
    """
    rules = interreduce(alg, relations)
    while True:
        sys = RewriteSystem(alg, rules, completed_through=max_degree)
        fresh = []
        skipped = False
        for amb in enumerate_ambiguities(rules):
            if len(amb.overlap_word) > max_degree:
                skipped = True
                continue
            residual = sys._ambiguity_resolves(amb)
            if residual is None:
                sys.certificate.append(amb)
            else:
                fresh.append(residual)
        if fresh:
            if len(rules) + len(fresh) > MAX_RULES:
                raise NonTerminating(f"completion exceeded {MAX_RULES} rules over {alg.id}")
            rules = interreduce(alg, [r.poly() for r in rules] + fresh)
            continue
        sys.closed = not skipped
        return sys
