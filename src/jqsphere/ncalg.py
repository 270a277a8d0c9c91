"""Words and sparse elements of tensor products of free algebras over the
exact scalar field.

A word is a tuple of generator indices into its algebra's generator list;
the list is stored in increasing precedence order.  grlex is the one
term order: total length first, then generator indices, so a higher
precedence generator sorts later.  Rendering lists terms by it, largest
first, and rewriting orients every relation at its largest word.

One sparse element type, FreePoly, covers every tensor power the checks
use.  Its slots are a tuple of algebras, and its terms map keys, one word
per slot, to nonzero scalars:

- zero slots is a scalar value (what a counit produces);
- one slot is an element of a free algebra;
- n slots is an element of A1 (x) ... (x) An, multiplied slot by slot
  (no braiding).

FreePoly.of is the outer product, the catalog's '@'.  map_slot is the one
slot map: it applies a word map at one slot and splices the image's slots
in its place.  Coproducts, counits, coactions, the pairing's actions and
normal forms all act inside tensors through it.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction

from . import scalars as sc
from .errors import AlgebraMismatch

Word = tuple


class Algebra:
    """A finitely generated free algebra shell, identified by id.

    Only the generator names live here; relations belong to rewrite
    systems built on top.  Generators are listed in increasing precedence.
    """

    __slots__ = ("id", "gens", "_index")

    def __init__(self, id: str, gens):
        gens = tuple(gens)
        if len(set(gens)) != len(gens):
            raise ValueError(f"duplicate generator names in {id}")
        self.id = id
        self.gens = gens
        self._index = {name: i for i, name in enumerate(gens)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"algebra {self.id} has no generator {name!r}") from None

    def render_word(self, word: Word) -> str:
        if not word:
            return "1"
        parts = []
        for g, run in itertools.groupby(word):
            n = len(list(run))
            name = self.gens[g]
            parts.append(name if n == 1 else f"{name}^{n}")
        return "*".join(parts)

    def __repr__(self):
        return f"Algebra({self.id}, gens={'/'.join(self.gens)})"


def grlex(key):
    """Graded-lex sort key of a term key (one word per slot)."""
    return sum(map(len, key)), key


def _slot_ids(slots) -> str:
    return "(x)".join(a.id for a in slots) or "scalar"


def _same(a: FreePoly, b: FreePoly):
    if a.slots != b.slots:
        raise AlgebraMismatch(f"operands over {_slot_ids(a.slots)} and {_slot_ids(b.slots)}")


def _coeff(value):
    if isinstance(value, (int, Fraction)):
        return sc.ensure_scalar(value)
    return value


def _merge(into: dict, key, c):
    prev = into.get(key)
    if prev is None:
        if c:
            into[key] = c
    else:
        tot = prev + c
        if tot:
            into[key] = tot
        else:
            del into[key]


def _products(p: dict, q: dict, join) -> dict:
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            _merge(out, join(k1, k2), c1 * c2)
    return out


def _slotwise(k1, k2):
    return tuple(map(operator.add, k1, k2))


class FreePoly:
    """Sparse element over a tuple of algebra slots; see the module doc."""

    __slots__ = ("slots", "terms")

    def __init__(self, slots: tuple, terms=None):
        self.slots = slots
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    @classmethod
    def zero(cls, *slots):
        return cls(slots)

    @classmethod
    def scalar(cls, slots, coeff=sc.ONE):
        """coeff times the unit of the tensor product of slots."""
        return cls(slots, {((),) * len(slots): _coeff(coeff)})

    @classmethod
    def unit(cls, alg, coeff=sc.ONE):
        return cls.scalar((alg,), coeff)

    @classmethod
    def gen(cls, alg, name):
        return cls((alg,), {((alg.index(name),),): sc.ONE})

    @classmethod
    def from_word(cls, alg, word):
        return cls((alg,), {(tuple(word),): sc.ONE})

    @classmethod
    def of(cls, *factors):
        """Outer product: the factors' slots side by side."""
        slots, terms = factors[0].slots, factors[0].terms
        for f in factors[1:]:
            slots, terms = slots + f.slots, _products(terms, f.terms, operator.add)
        return cls(slots, terms)

    @classmethod
    def combine(cls, slots, parts):
        """The sum of parts, all over slots, gathered in one dict."""
        out = {}
        for p in parts:
            for k, d in p.terms.items():
                _merge(out, k, d)
        return cls(slots, out)

    @property
    def alg(self) -> Algebra:
        """The algebra of a one-slot element."""
        (alg,) = self.slots
        return alg

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(map(len, k)) for k in self.terms), default=0)

    def constant(self):
        """Scalar coefficient of the key whose words are all empty."""
        return self.terms.get(((),) * len(self.slots), sc.ZERO)

    def scalar_value(self):
        """The value of an element with no nonempty word."""
        if self.degree():
            raise ValueError("not a scalar-valued polynomial")
        return self.constant()

    def __eq__(self, other):
        if not isinstance(other, FreePoly):
            return NotImplemented
        return self.slots == other.slots and self.terms == other.terms

    __hash__ = None

    def __neg__(self):
        return FreePoly(self.slots, {k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        other = self._to_poly(other)
        if other is NotImplemented:
            return NotImplemented
        _same(self, other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            _merge(out, k, c)
        return FreePoly(self.slots, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._to_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, FreePoly):
            _same(self, other)
            return FreePoly(self.slots, _products(self.terms, other.terms, _slotwise))
        return self.scale(other)

    def __rmul__(self, other):
        # scalars commute with everything
        return self.scale(other)

    def __truediv__(self, other):
        return self.scale(sc.ONE / _coeff(other))

    def scale(self, c):
        c = _coeff(c)
        if not c:
            return FreePoly(self.slots)
        return FreePoly(self.slots, {k: cc * c for k, cc in self.terms.items()})

    def map_slot(self, i: int, image, slots: tuple) -> FreePoly:
        """Apply a linear map at slot i.  image sends a word of that slot to
        an element over slots, whose keys are spliced in the word's place."""
        out = {}
        for key, c in self.terms.items():
            head, tail = key[:i], key[i + 1 :]
            for ikey, d in image(key[i]).terms.items():
                _merge(out, head + ikey + tail, c * d)
        return FreePoly(self.slots[:i] + slots + self.slots[i + 1 :], out)

    def _to_poly(self, other):
        if isinstance(other, FreePoly):
            return other
        if isinstance(other, (int, Fraction, sc.Scalar)):
            return FreePoly.scalar(self.slots, other)
        return NotImplemented

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grlex(t[0]), reverse=True)

    def render(self) -> str:
        return _render_terms(self.sorted_terms(), self._render_key)

    def _render_key(self, key) -> str:
        return "@".join(a.render_word(w) for a, w in zip(self.slots, key)) or "1"

    def __repr__(self):
        return f"<{_slot_ids(self.slots)}: {self.render()}>"


# perfbench/tracing.py binds these names when it wraps the element type
TensorPoly = Tensor3Poly = FreePoly


def _render_terms(sorted_terms, key_str):
    if not sorted_terms:
        return "0"
    out = []
    for key, c in sorted_terms:
        neg = sc.leading_sign(c) < 0
        mag = -c if neg else c
        cs = sc.render(mag)
        ws = key_str(key)
        if ws == "1":
            piece = cs if _simple(cs) else f"({cs})"
        elif cs == "1":
            piece = ws
        elif _simple(cs):
            piece = f"{cs}*{ws}"
        else:
            piece = f"({cs})*{ws}"
        if not out:
            out.append("-" + piece if neg else piece)
        else:
            out.append((" - " if neg else " + ") + piece)
    return "".join(out)


def _simple(rendered: str) -> bool:
    return " " not in rendered and "/" not in rendered


def collect(residuals, label, got, want=None):
    """Append (label, rendered residual) when got is not want.

    got and want are both FreePoly or both scalars; without want, got
    itself is the residual and must vanish.  The difference is taken
    only once the two are known to differ.
    """
    if want is not None:
        if got == want:
            return
        got = got - want
    if isinstance(got, FreePoly):
        if not got.is_zero():
            residuals.append((label, got.render()))
    elif got:
        residuals.append((label, sc.render(got)))


def clear_denominators(p: FreePoly):
    """(D * p, D) for D the common denominator of p's coefficients, so
    that D * p has polynomial coefficients (D is ONE if p has already)."""
    den = sc.common_denominator(p.terms.values())
    return p.scale(den), den


def collect_cleared(residuals, label, den, got, want=None):
    """collect for FreePoly values that are den times the values meant,
    as computed from an element cleared by clear_denominators.  got and
    want are compared as they are; only a nonzero difference is divided
    by den, so the residual reads as for the uncleared element and a
    passing comparison does no fraction arithmetic."""
    if want is not None:
        if got == want:
            return
        got = got - want
    if not got.is_zero():
        collect(residuals, label, got / den)


def substitute_poly(p: FreePoly, bindings) -> FreePoly:
    """Apply a parameter substitution to every coefficient."""
    if not bindings:
        return p
    out = {}
    for k, c in p.terms.items():
        _merge(out, k, sc.substitute(c, bindings))
    return FreePoly(p.slots, out)


def all_words(alg: Algebra, max_degree: int):
    """Every word of length <= max_degree, shortest first."""
    n = len(alg.gens)
    for d in range(max_degree + 1):
        yield from itertools.product(range(n), repeat=d)
