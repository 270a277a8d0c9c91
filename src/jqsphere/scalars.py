"""Exact coefficient arithmetic over the rational function field in the
deformation and sphere parameters.

Every coefficient in the package is an element of Q(h, k, rho, kprime,
rhoprime, beta, betaprime, s).  Equality is structural, zero tests are
decidable, and nothing is ever evaluated in floating point.

Almost every coefficient the checks meet is a polynomial: completed
rules, coproducts and matrix entries all live in QQ[h, ..., s].  True
denominators come only from a few verbatim elements (k/rho, 1/(2h)) and
from user bindings such as k=1/rho.  So a Scalar is polynomial-first and
holds exactly one canonical payload:

- a sympy PolyElement of QQ[h, ..., s] whenever the value is a
  polynomial;
- a sympy FracElement of the field, reduced by the field's own
  cancellation, only when its denominator is not a constant.

Two polynomials add, subtract and multiply in the ring, with no gcd.
Division by a constant divides the coefficients.  Any other division,
and any operation with a fraction operand, runs in the field, and the
result is demoted to a polynomial again as soon as cancellation leaves a
constant denominator (k/rho * rho is the polynomial k).  Because every
value has one payload, ==, hash and render need no special cases.

The payload invariants are:

- a polynomial belongs to RING and has no zero coefficient;
- zero is the empty polynomial;
- a fraction's denominator is not a constant.

Most operands in the checks are zero, the constant one or a single term
c*m, and those skip sympy's ring operators, which check rings, copy
dicts and strip zeros on every call.  x + 0 and 0 + x return x, 0 * x
returns the zero operand and a product with the constant one returns
the other factor: payloads are never mutated, so sharing them is safe.
Two single terms multiply into one term, built directly, and add into
one term, two, or zero when they cancel; a single term times a
polynomial scales its terms.  Each shortcut builds the payload sympy
would have built, so the invariants hold and the rest of the package
cannot tell them apart.  Only this module reads or wraps a payload.

This module pins the parameter order, the canonical rendering, and the
substitution semantics so the rest of the package never touches sympy.
"""

from __future__ import annotations

from fractions import Fraction

from sympy import QQ
from sympy.polys.fields import field
from sympy.polys.rings import PolyElement

from .errors import DenominatorVanishes, DivisionByZero

#: parameter symbols, in the order used for graded-lex rendering
PARAM_NAMES = ("h", "k", "rho", "kprime", "rhoprime", "beta", "betaprime", "s")

FIELD = field(" ".join(PARAM_NAMES), QQ)[0]
RING = FIELD.ring
_ZERO_MONOM = RING.zero_monom


class Scalar:
    """An element of the parameter field; see the module doc.

    _v is the canonical payload: a PolyElement of RING, or a FracElement
    of FIELD whose denominator is not constant.  Payloads are never
    mutated, so scalars may share them, and an operation may return one
    of its operands.
    """

    __slots__ = ("_v",)

    def __init__(self, v):
        self._v = v

    def __neg__(self):
        return Scalar(-self._v)

    def __pow__(self, n: int):
        if n == 0:
            return ONE  # 0**0 is 1, as for Python numbers
        if n < 0:
            return _div(ONE, self**-n)
        v = self._v
        if type(v) is PolyElement:
            return Scalar(v**n)
        return _demote(v**n)

    def __eq__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        a, b = self._v, other._v
        return type(a) is type(b) and a == b

    def __hash__(self):
        return hash(self._v)

    def __bool__(self):
        return bool(self._v)

    def __repr__(self):
        return f"Scalar({render(self)})"


def _operand(value):
    """A Scalar, int or Fraction operand as a Scalar; None otherwise."""
    if type(value) is Scalar:
        return value
    if isinstance(value, (int, Fraction)):
        return ensure_scalar(value)
    return None


def _operators(op):
    """The forward and reflected operator methods of a binary operation
    op(x, y) on scalars."""

    def forward(self, other):
        if type(other) is not Scalar:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return op(self, other)

    def reflected(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return op(other, self)

    return forward, reflected


def _demote(f):
    """Wrap a field element, as a polynomial when its denominator is a
    constant.  The field keeps fractions reduced, with a positive
    integer constant when the denominator is one."""
    den = f.denom
    if den.is_ground:
        return Scalar(f.numer.quo_ground(den.LC))
    return Scalar(f)


# Scalar arithmetic.  Most operands in the checks are zero, the constant
# one or a single term c*m, so those are combined here on the payloads,
# giving the canonical payload sympy would build; the ring's operators
# run only for two polynomials of several terms.  A polynomial meeting a
# fraction is lifted by the fraction's own operator, which takes
# elements of its ring as fractions over one; a PolyElement is never
# asked to combine with a FracElement, since its fallback builds and
# discards a coercion error message.

_ONE_TERM = (_ZERO_MONOM, QQ.one)
_monomial_mul = RING.monomial_mul


def _term(p):
    """The (monomial, coefficient) of a single-term polynomial payload,
    else None."""
    if type(p) is PolyElement and len(p) == 1:
        [term] = p.items()
        return term
    return None


def _binomial(ma, ca, mb, cb):
    """The scalar ca*ma + cb*mb of two terms."""
    if ma != mb:
        return Scalar(PolyElement(RING, {ma: ca, mb: cb}))
    c = ca + cb
    return Scalar(PolyElement(RING, {ma: c})) if c else ZERO


def _add(x, y):
    a, b = x._v, y._v
    if not b:
        return x
    if not a:
        return y
    if type(a) is PolyElement:
        if type(b) is PolyElement:
            if len(a) == 1 == len(b):
                [(ma, ca)], [(mb, cb)] = a.items(), b.items()
                return _binomial(ma, ca, mb, cb)
            return Scalar(a + b)
        a, b = b, a
    return _demote(a + b)


def _sub(x, y):
    a, b = x._v, y._v
    if not b:
        return x
    if not a:
        return Scalar(-b)
    if type(b) is PolyElement:
        if type(a) is PolyElement:
            if len(a) == 1 == len(b):
                [(ma, ca)], [(mb, cb)] = a.items(), b.items()
                return _binomial(ma, ca, mb, -cb)
            return Scalar(a - b)
        return _demote(a - b)
    return _demote(-b + a)


def _mul(x, y):
    a, b = x._v, y._v
    if not a:
        return x
    if not b:
        return y
    ta, tb = _term(a), _term(b)
    if ta == _ONE_TERM:
        return y
    if tb == _ONE_TERM:
        return x
    if ta is not None:
        if tb is not None:
            (ma, ca), (mb, cb) = ta, tb
            return Scalar(PolyElement(RING, {_monomial_mul(ma, mb): ca * cb}))
        if type(b) is PolyElement:
            return Scalar(b.mul_term(ta))
    elif tb is not None and type(a) is PolyElement:
        return Scalar(a.mul_term(tb))
    if type(a) is PolyElement:
        if type(b) is PolyElement:
            return Scalar(a * b)
        a, b = b, a
    return _demote(a * b)


def _div(x, y):
    a, b = x._v, y._v
    if not b:
        raise DivisionByZero("division by the zero scalar")
    if type(b) is PolyElement:
        if type(a) is PolyElement:
            if b.is_ground:
                return Scalar(a.quo_ground(b.LC))
            return _demote(FIELD.new(a, b))
    elif type(a) is PolyElement:
        return _demote(FIELD.new(a * b.denom, b.numer))
    return _demote(a / b)


Scalar.__add__, Scalar.__radd__ = _operators(_add)
Scalar.__sub__, Scalar.__rsub__ = _operators(_sub)
Scalar.__mul__, Scalar.__rmul__ = _operators(_mul)
Scalar.__truediv__, Scalar.__rtruediv__ = _operators(_div)


#: generator lookup by name
PARAMS = {name: Scalar(gen) for name, gen in zip(PARAM_NAMES, RING.gens)}
h, k, rho, kprime, rhoprime, beta, betaprime, s = PARAMS.values()

ZERO = Scalar(RING.zero)
ONE = Scalar(RING.one)


def ensure_scalar(value):
    """Coerce ints, Fractions and Scalars into the field."""
    if type(value) is Scalar:
        return value
    if isinstance(value, int):
        return Scalar(RING.ground_new(value))
    if isinstance(value, Fraction):
        return Scalar(RING.ground_new(QQ(value.numerator, value.denominator)))
    raise TypeError(f"cannot coerce {type(value).__name__} to a scalar")


def rational(p, q=1):
    if q == 0:
        raise DivisionByZero("rational(p, 0)")
    return Scalar(RING.ground_new(QQ(p, q)))


def is_zero(x) -> bool:
    return not x


def common_denominator(values):
    """The lcm of the denominators of the scalars values, as a
    polynomial: ONE when every value is a polynomial.  Each value times
    it is a polynomial."""
    den = RING.one
    for x in values:
        v = x._v
        if type(v) is not PolyElement:
            den = den.lcm(v.denom)
    return Scalar(den)


def _height(c):
    """The larger of |numerator| and denominator of a rational."""
    return max(abs(int(c.numerator)), int(c.denominator))


def height(x) -> int:
    """The largest height among the rational coefficients of x; 0 for
    the zero scalar."""
    v = x._v
    polys = (v,) if type(v) is PolyElement else (v.numer, v.denom)
    return max((_height(c) for p in polys for c in p.itercoeffs()), default=0)


def term_count(x) -> int:
    """The number of terms of x, or of the longer of the numerator and
    denominator of a fraction."""
    v = x._v
    if type(v) is PolyElement:
        return len(v)
    return max(len(v.numer), len(v.denom))


def _eval_poly(poly, repl):
    """Evaluate a polynomial payload under a partial assignment
    {gen index: Scalar}, keeping unassigned generators."""
    total = ZERO
    for monom, coeff in poly.iterterms():
        kept = tuple(0 if i in repl else e for i, e in enumerate(monom))
        term = Scalar(RING.term_new(kept, coeff))
        for i, base in repl.items():
            e = monom[i]
            if e:
                term = term * base**e
        total = total + term
    return total


def substitute(x, bindings):
    """Substitute parameter values into a scalar.

    bindings maps parameter names to ints, Fractions or Scalars.  Raises
    DenominatorVanishes when the substitution kills the denominator.
    """
    if not bindings:
        return x
    repl = {}
    for name, value in bindings.items():
        if name not in PARAMS:
            raise ValueError(f"unknown parameter {name!r}")
        repl[PARAM_NAMES.index(name)] = ensure_scalar(value)
    v = x._v
    if type(v) is PolyElement:
        return _eval_poly(v, repl)
    num = _eval_poly(v.numer, repl)
    den = _eval_poly(v.denom, repl)
    if not den:
        raise DenominatorVanishes(f"denominator {render(x)} vanishes under substitution")
    return num / den


def _monom_key(monom):
    # graded lex on the fixed parameter order
    return (sum(monom), monom)


def _lead(poly):
    """Graded-lex leading coefficient of a nonzero polynomial."""
    return max(poly.iterterms(), key=lambda t: _monom_key(t[0]))[1]


def _term_str(monom, coeff):
    factors = []
    if coeff != 1 or not any(monom):
        factors.append(str(coeff))
    for name, e in zip(PARAM_NAMES, monom):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors)


def _poly_str(terms):
    terms = sorted(terms, key=lambda t: _monom_key(t[0]), reverse=True)
    out = []
    for monom, coeff in terms:
        neg = coeff < 0
        piece = _term_str(monom, -coeff if neg else coeff)
        if not out:
            out.append("-" + piece if neg else piece)
        else:
            out.append((" - " if neg else " + ") + piece)
    return "".join(out)


def leading_sign(x) -> int:
    """Sign of the graded-lex leading coefficient; 0 for the zero scalar."""
    v = x._v
    if not v:
        return 0
    if type(v) is PolyElement:
        return 1 if _lead(v) > 0 else -1
    sign = 1 if _lead(v.numer) > 0 else -1
    return sign if _lead(v.denom) > 0 else -sign


def render(x) -> str:
    """Canonical textual form.

    A polynomial renders as its terms with explicit ^ and *; a fraction
    as (numerator)/(denominator), the denominator monic (leading
    coefficient one under graded lex) and the numerator compensating.
    """
    v = x._v
    if not v:
        return "0"
    if type(v) is PolyElement:
        return _poly_str(v.iterterms())
    lead = _lead(v.denom)
    num_terms = [(m, c / lead) for m, c in v.numer.iterterms()]
    den_terms = [(m, c / lead) for m, c in v.denom.iterterms()]
    return f"({_poly_str(num_terms)})/({_poly_str(den_terms)})"
