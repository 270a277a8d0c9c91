"""Generator-defined (anti)homomorphisms and Hopf structure checks.

A GenMorphism carries images for each source generator and extends to
words multiplicatively (in reverse order for antihomomorphisms) and to
polynomials linearly, substituting its parameter map into coefficients.
Its target is a tuple of algebra slots: () for a scalar-valued map such
as a counit, (A,) for an antipode or an embedding, (A, B) for a
coproduct or a coaction.  Coproducts, counits, antipodes, coactions and
embeddings are all the same kind of object.

Inside a tensor, a morphism acts through the one slot map of the sparse
element (FreePoly.map_slot): GenMorphism.at applies it to one slot and
puts the image's slots in that slot's place.  expand_left/right
(coproduct or coaction in a leg) and contract_left/right (counit in a
leg) are named entry points to that one operation.  The comodule check
takes the slot of the Hopf algebra in the coaction's tensor: the
coproduct and counit act at that slot, the coaction again at the other.

Axiom checks return lists of (label, rendered residual) pairs, gathered
through ncalg.collect; empty means everything reduced to zero.  Nothing
is assumed: morphisms are checked against the defining relations before
their axioms mean much, and both composition orders of every
coassociativity-type identity are computed independently.

The antipode axioms are checked by word recursion.  The left side of a
word, L(w) = m(S (x) id) coproduct(w) in normal form, comes from the word
one letter shorter: L(x g) = nf(sum c S(g1) L(x) g2) over the generator's
cached coproduct sum c g1 (x) g2, and mirrored, R(g x) = nf(sum c g1 R(x)
S(g2)), with L() = R() = 1.  word_image makes S an antihomomorphism and
the coproduct a homomorphism of the free algebra, and normal forms of a
confluent system satisfy nf(a nf(b) c) = nf(a b c).  So whenever S
respects the defining relations, each side is the normal form of the
whole-coproduct product, yet each reduction sees only one normal side
and one generator's images.  A zero residual is sound even in a system
that is not closed, since rewriting never leaves the coset of the ideal.
"""

from __future__ import annotations

from .errors import MissingGeneratorImage
from .ncalg import Algebra, FreePoly, collect, substitute_poly


def tensor_normalizer(*systems):
    """Normal form in every slot of an element over the systems' algebras.

    A single slot goes through normal_form, which also refuses input past
    an open system's degree cap; wider tensors are reduced word by word
    in each slot."""
    if len(systems) == 1:
        return systems[0].normal_form

    def norm(t: FreePoly) -> FreePoly:
        for i, system in enumerate(systems):
            t = t.map_slot(i, system.nf_word, (system.alg,))
        return t

    return norm


class GenMorphism:
    """A map out of an algebra, defined on generators.

    target is a tuple of algebra slots.  normalize, when given, is
    applied after every word-image multiplication, which keeps
    intermediate results in normal form and the degrees as low as they
    can be.
    """

    def __init__(
        self,
        name: str,
        source: Algebra,
        target: tuple,
        images: dict,
        parity: str = "hom",
        param_map=None,
        normalize=None,
    ):
        if parity not in ("hom", "antihom"):
            raise ValueError(f"parity must be hom or antihom, got {parity!r}")
        self.name = name
        self.source = source
        self.target = target
        self.parity = parity
        self.param_map = dict(param_map) if param_map else None
        self.normalize = normalize
        self.images = {}
        for key, img in images.items():
            idx = key if isinstance(key, int) else source.index(key)
            self.images[idx] = img
        self._cache = {}

    def word_image(self, word):
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        letters = reversed(word) if self.parity == "antihom" else word
        out = FreePoly.scalar(self.target)
        for g in letters:
            img = self.images.get(g)
            if img is None:
                raise MissingGeneratorImage(
                    f"{self.name} has no image for {self.source.gens[g]}"
                )
            out = out * img
            if self.normalize is not None:
                out = self.normalize(out)
        self._cache[word] = out
        return out

    def at(self, t: FreePoly, slot: int) -> FreePoly:
        """(id (x) ... (x) self (x) ... (x) id) applied to t at one slot."""
        if t.slots[slot] is not self.source:
            raise ValueError(f"{self.name} applied to a polynomial over {t.slots[slot].id}")
        return t.map_slot(slot, self.word_image, self.target)

    def __call__(self, p: FreePoly):
        return self.at(substitute_poly(p, self.param_map), 0)

    def scalar(self, p: FreePoly):
        """Value of a scalar-valued morphism (counit)."""
        return self(p).scalar_value()

    def __repr__(self):
        return f"GenMorphism({self.name})"


class HopfStructure:
    """Bundle of an algebra's coproduct, counit and antipode together
    with the rewrite system that decides equality."""

    def __init__(self, system, coproduct, counit, antipode):
        self.system = system
        self.alg = system.alg
        self.coproduct = coproduct
        self.counit = counit
        self.antipode = antipode


# -- applying morphisms inside tensors ---------------------------------

def expand_left(m: GenMorphism, t: FreePoly) -> FreePoly:
    """Apply a tensor-valued morphism to left factors: A(x)B -> (A'(x)A'')(x)B."""
    return m.at(t, 0)


def expand_right(m: GenMorphism, t: FreePoly) -> FreePoly:
    """Apply a tensor-valued morphism to right factors: A(x)B -> A(x)(B'(x)B'')."""
    return m.at(t, 1)


def contract_left(counit: GenMorphism, t: FreePoly) -> FreePoly:
    """(counit (x) id) applied to a tensor."""
    return counit.at(t, 0)


def contract_right(counit: GenMorphism, t: FreePoly) -> FreePoly:
    """(id (x) counit) applied to a tensor."""
    return counit.at(t, 1)


def convolve(anti: GenMorphism, split: FreePoly, inner: FreePoly, system, left: bool) -> FreePoly:
    """One step of the antipode recursion: over a generator's coproduct
    split = sum c g1 (x) g2, the normal form of sum c S(g1) inner g2 when
    left, of sum c g1 inner S(g2) otherwise."""
    alg = system.alg
    pieces = []
    for (w1, w2), c in split.terms.items():
        if left:
            piece = anti.word_image(w1) * inner * FreePoly.from_word(alg, w2)
        else:
            piece = FreePoly.from_word(alg, w1) * inner * anti.word_image(w2)
        pieces.append(piece.scale(c))
    return system.normal_form(FreePoly.combine((alg,), pieces))


# -- axiom checks -------------------------------------------------------

def check_morphism_respects_relations(m: GenMorphism, relations) -> list:
    """Images of defining relations must vanish in the target; this is
    what makes a generator-defined map a map of the quotient at all."""
    residuals = []
    for label, rel in relations:
        collect(residuals, f"{m.name}:{label}", m(rel))
    return residuals


def check_hopf_axioms(hopf: HopfStructure, max_degree: int = 3, relations=()) -> list:
    """Coassociativity, counit and antipode axioms on every normal word
    up to max_degree, plus relation preservation for all three maps.

    The antipode sides come by word recursion (see the module doc).  They
    equal the normal form of m(S (x) id) and m(id (x) S) on the word's
    whole coproduct whenever S respects the defining relations.  When it
    does not, the antipode lines may differ from that product's in value
    and number; the check still fails, and the antipode's relation rows
    name the cause."""
    cop, eps, anti = hopf.coproduct, hopf.counit, hopf.antipode
    system = hopf.system
    residuals = []
    for m in (cop, eps, anti):
        residuals.extend(check_morphism_respects_relations(m, relations))
    # every prefix and suffix of a normal word is normal and comes first
    one = FreePoly.unit(hopf.alg)
    left, right = {(): one}, {(): one}
    for w in system.normal_words(max_degree):
        word = hopf.alg.render_word(w)
        p = FreePoly.from_word(hopf.alg, w)
        t = cop(p)
        collect(residuals, f"coassoc:{word}", expand_left(cop, t), expand_right(cop, t))
        collect(residuals, f"counit-left:{word}", contract_left(eps, t), p)
        collect(residuals, f"counit-right:{word}", contract_right(eps, t), p)
        if w:
            left[w] = convolve(anti, cop.word_image(w[-1:]), left[w[:-1]], system, True)
            right[w] = convolve(anti, cop.word_image(w[:1]), right[w[1:]], system, False)
        unit_eps = FreePoly.unit(hopf.alg, eps.scalar(p))
        collect(residuals, f"antipode-left:{word}", left[w], unit_eps)
        collect(residuals, f"antipode-right:{word}", right[w], unit_eps)
    return residuals


def check_comodule_axioms(coact: GenMorphism, hopf: HopfStructure, fun_slot: int) -> list:
    """Coaction coassociativity and counit laws, generator by generator.

    fun_slot is the slot of hopf's algebra A in the coaction's tensor:
    0 for X -> A (x) X, checked against (coproduct (x) id), and 1 for
    X -> X (x) A, checked against (id (x) coproduct).
    """
    residuals = []
    src = coact.source
    for i, name in enumerate(src.gens):
        p = FreePoly.from_word(src, (i,))
        t = coact(p)
        lhs = hopf.coproduct.at(t, fun_slot)
        collect(residuals, f"coassoc:{name}", lhs, coact.at(t, 1 - fun_slot))
        collect(residuals, f"counit:{name}", hopf.counit.at(t, fun_slot), p)
    return residuals
