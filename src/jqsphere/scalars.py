"""Exact coefficient arithmetic over the rational function field in the
deformation and sphere parameters.

Every coefficient in the package is an element of Q(h, k, rho, kprime,
rhoprime, beta, betaprime, s).  Equality is structural, zero tests are
decidable, and nothing is ever evaluated in floating point.  Only the
standard library is used.

Almost every coefficient the checks meet is a polynomial with integer
coefficients, or one over a small integer such as the 2 of (h/2) or the
8 of (3/8)*h^4.  True denominators come only from a few verbatim
elements (k/rho, 1/(2h)) and from user bindings such as k=1/rho.  So
every coefficient in a payload is a Python int, and a Scalar holds
exactly one canonical payload:

- a polynomial: a dict from an exponent tuple, one entry per parameter
  in PARAM_NAMES order, to a nonzero int.  Zero is the empty dict.
- a fraction: a tuple (num, den) whose num is such a dict, not empty,
  and whose den is either an int greater than 1 or a non-constant
  polynomial with a positive lex-leading coefficient.  num and den are
  coprime in Z[h, ..., s]: no polynomial divides both, and the gcd of
  all their coefficients together is 1.  So h/2 is ({h: 1}, 2).

These are the numerator and denominator that the usual cancellation
over Z keeps, so height() and term_count() measure the reduced fraction.
Fraction appears only where values enter (ensure_scalar) and leave
(render, height).

Two polynomials add and multiply term by term, with no gcd, monomials
multiplying by an 8-wide tuple add; x - y is x + (-y).  Fractions
cancel by Henrici's method (Knuth, TAOCP vol. 2, 4.5.1), which needs
gcds only of operands that are already reduced:

- n1/d1 * n2/d2 divides out g1 = gcd(n1, d2) and g2 = gcd(n2, d1), and
  (n1/g1)(n2/g2) / (d1/g2)(d2/g1) is reduced;
- n1/d1 + n2/d2, with g = gcd(d1, d2) and t = n1(d2/g) + n2(d1/g),
  divides out only gcd(t, g): t is coprime to d1/g and to d2/g;
- p + n/d is (n + p*d)/d, reduced with no gcd at all;
- x/y is x times the reciprocal of y, which is reduced as it stands.

A gcd with an integer denominator is math.gcd over the coefficients.
Two polynomial operands of several terms take a multivariate gcd: the
heuristic gcd, with a recursive primitive PRS in the parameter of least
degree when the heuristic gives up, its result checked by exact
division.  A denominator that cancels to a constant becomes an int, and
one that cancels to 1 leaves a polynomial, so k/rho * rho is k.
Because every value has one payload, ==, hash and render need no
special cases.

Most operands in the checks are zero, the constant one or a single term
c*m, and those are combined directly.  x + 0 and 0 + x return x, 0 * x
returns the zero operand and a product with the constant one returns
the other factor: payloads are never mutated, so sharing them is safe.
Two single terms multiply into one term and add into one term, two, or
zero when they cancel; a single term times a polynomial scales its
terms.  With integer denominators, a single term times a single term
cancels one integer gcd, and two fractions over the same denominator
add their numerators.  Only this module reads or wraps a payload.

This module pins the parameter order, the canonical rendering, and the
substitution semantics for the rest of the package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt

from .errors import DenominatorVanishes, DivisionByZero

#: parameter symbols, in the order used for graded-lex rendering
PARAM_NAMES = ("h", "k", "rho", "kprime", "rhoprime", "beta", "betaprime", "s")

_ZERO_MONOM = (0,) * len(PARAM_NAMES)


class Scalar:
    """An element of the parameter field; see the module doc.

    _v is the canonical payload: a polynomial dict, or a (num, den)
    tuple whose den is an int above 1 or a non-constant polynomial.
    Payloads are never mutated, so scalars may share them, and an
    operation may return one of its operands.
    """

    __slots__ = ("_v",)

    def __init__(self, v):
        self._v = v

    def __neg__(self):
        return Scalar(_negated(self._v))

    def __pow__(self, n: int):
        if n == 0:
            return ONE  # 0**0 is 1, as for Python numbers
        if n < 0:
            return _div(ONE, self**-n)
        v = self._v
        if type(v) is dict:
            return Scalar(_pow(v, n))
        # a power of a reduced fraction is reduced, its denominator's
        # lex-leading coefficient stays positive
        num, den = v
        return Scalar((_pow(num, n), den**n if type(den) is int else _pow(den, n)))

    def __eq__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        a, b = self._v, other._v
        return type(a) is type(b) and a == b

    def __hash__(self):
        v = self._v
        if type(v) is dict:
            return hash(frozenset(v.items()))
        num, den = v
        if type(den) is dict:
            den = frozenset(den.items())
        return hash((frozenset(num.items()), den))

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


# -- polynomial payloads ------------------------------------------------
#
# Each helper takes and returns integer polynomial dicts and never
# mutates its arguments.  Coefficients of a sum are dropped when they
# cancel, so no result holds a zero coefficient.


def _neg(p):
    return {m: -c for m, c in p.items()}


def _negated(v):
    """The payload -v."""
    if type(v) is dict:
        return _neg(v)
    return (_neg(v[0]), v[1])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for m, c in b.items():
        c0 = out.get(m)
        if c0 is None:
            out[m] = c
        else:
            c0 += c
            if c0:
                out[m] = c0
            else:
                del out[m]
    return out


def _pmul(a, b):
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    for (a0, a1, a2, a3, a4, a5, a6, a7), ca in a.items():
        for (b0, b1, b2, b3, b4, b5, b6, b7), cb in b.items():
            m = (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5, a6 + b6, a7 + b7)
            c = get(m)
            out[m] = ca * cb if c is None else c + ca * cb
    return {m: c for m, c in out.items() if c}


def _mul_term(p, mono, coeff):
    """p times the single term coeff*mono."""
    b0, b1, b2, b3, b4, b5, b6, b7 = mono
    return {
        (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5, a6 + b6, a7 + b7): c * coeff
        for (a0, a1, a2, a3, a4, a5, a6, a7), c in p.items()
    }


def _sum(a, b):
    """a + b, two single terms combined without the general sum."""
    if len(a) == 1 == len(b):
        [(ma, ca)], [(mb, cb)] = a.items(), b.items()
        if ma != mb:
            return {ma: ca, mb: cb}
        c = ca + cb
        return {ma: c} if c else {}
    return _padd(a, b)


def _product(a, b):
    """a * b, a single-term factor scaling the other's terms."""
    if len(a) == 1:
        [(m, c)] = a.items()
        return _mul_term(b, m, c)
    if len(b) == 1:
        [(m, c)] = b.items()
        return _mul_term(a, m, c)
    return _pmul(a, b)


def _scale(p, c):
    """p times the nonzero int c."""
    if c == 1:
        return p
    return {m: v * c for m, v in p.items()}


def _divided(p, c):
    """p divided exactly by the nonzero int c."""
    if c == 1:
        return p
    return {m: v // c for m, v in p.items()}


def _pow(p, n):
    if len(p) == 1:
        [(m, c)] = p.items()
        return {tuple(e * n for e in m): c**n}
    out = None
    while True:
        if n & 1:
            out = p if out is None else _pmul(out, p)
        n >>= 1
        if not n:
            return out
        p = _pmul(p, p)


def _constant(p):
    """The coefficient of a constant polynomial, else None."""
    if len(p) == 1:
        [(m, c)] = p.items()
        if m == _ZERO_MONOM:
            return c
    return None


# -- gcds -----------------------------------------------------------------


def _divide_by_term(p, mono, c):
    """p divided exactly by the integer term c*mono."""
    return {tuple(a - b for a, b in zip(m, mono)): v // c for m, v in p.items()}


def _exquo(a, b):
    """a/b for integer polynomials when b divides a in Z[h, ..., s], by
    division in lex order; None when it does not."""
    lm_b = max(b)
    lc_b = b[lm_b]
    quo, rem = {}, a
    while rem:
        lm = max(rem)
        shift = tuple(x - y for x, y in zip(lm, lm_b))
        c, r = divmod(rem[lm], lc_b)
        if r or min(shift) < 0:
            return None
        quo[shift] = c
        rem = _padd(rem, _mul_term(b, shift, -c))
    return quo


def _quo(a, b):
    """a/b for a divisor b of a that a gcd computation found."""
    if len(b) == 1:
        [(mono, c)] = b.items()
        return _divide_by_term(a, mono, c)
    q = _exquo(a, b)
    if q is None:
        raise ArithmeticError("a computed gcd does not divide its operand")
    return q


def _degree(p, i):
    return max(m[i] for m in p)


def _coefficient(p, i, d):
    """The coefficient of x_i^d in p, a polynomial without x_i."""
    return {m[:i] + (0,) + m[i + 1 :]: c for m, c in p.items() if m[i] == d}


def _gcd(a, b):
    """A gcd of two nonzero integer polynomials in Z[h, ..., s], integer
    content included.  Over a single term it is the least exponents and
    the integer gcd; otherwise the heuristic gcd finds it, or the PRS
    when the heuristic gives up."""
    if len(a) == 1 or len(b) == 1:
        return {tuple(map(min, *a, *b)): gcd(*a.values(), *b.values())}
    # the first parameter either involves
    i = next(i for i in range(len(_ZERO_MONOM)) if any(m[i] for m in chain(a, b)))
    return _heuristic_gcd(a, b, i) or _prs_gcd(a, b)


def _heuristic_gcd(a, b, i):
    """gcd(a, b) by the heuristic of Char, Geddes and Gonnet: set x_i to
    an integer above twice the smaller coefficient bound, take the gcd
    of the two images, read the coefficients of a candidate off its
    balanced base-x digits, and keep the candidate's primitive part when
    it divides both, which makes it the gcd.  None after six points."""
    c = gcd(*a.values(), *b.values())
    a = _divided(a, c)
    b = _divided(b, c)
    x = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    for _ in range(6):
        ea, eb = _evaluate(a, i, x), _evaluate(b, i, x)
        if ea and eb:
            g = _interpolate(_gcd(ea, eb), i, x)
            g = _divided(g, gcd(*g.values()))
            if _exquo(a, g) is not None and _exquo(b, g) is not None:
                return _scale(g, c)
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    return None


def _evaluate(p, i, x):
    """p with x_i set to the integer x."""
    out = {}
    for m, c in p.items():
        key = m[:i] + (0,) + m[i + 1 :]
        out[key] = out.get(key, 0) + c * x ** m[i]
    return {m: c for m, c in out.items() if c}


def _interpolate(p, i, x):
    """The polynomial in x_i whose coefficients are the balanced base-x
    digits of p's coefficients, p free of x_i."""
    out = {}
    for m, c in p.items():
        e = 0
        while c:
            d = c % x
            if 2 * d > x:
                d -= x
            if d:
                out[m[:i] + (e,) + m[i + 1 :]] = d
            c = (c - d) // x
            e += 1
    return out


def _content(p, i):
    """The gcd of p's coefficients as a polynomial in x_i."""
    content = None
    for d in {m[i] for m in p}:
        c = _coefficient(p, i, d)
        content = c if content is None else _gcd(content, c)
        if _constant(content) in (1, -1):
            break
    return content


def _prs_gcd(a, b):
    """gcd(a, b) by the recursive primitive PRS in the parameter x_i of
    least degree in a plus b, which keeps the pseudo-remainder sequence
    short: the gcd of their contents as polynomials in x_i times the
    last nonzero primitive pseudo-remainder."""
    involved = [i for i in range(len(_ZERO_MONOM)) if any(m[i] for m in chain(a, b))]
    i = min(involved, key=lambda i: _degree(a, i) + _degree(b, i))
    ca, cb = _content(a, i), _content(b, i)
    a, b = _quo(a, ca), _quo(b, cb)
    if _degree(a, i) < _degree(b, i):
        a, b = b, a
    while _degree(b, i):
        r = _prem(a, b, i)
        if not r:
            break
        a, b = b, _quo(r, _content(r, i))
    else:
        b = {_ZERO_MONOM: 1}
    return _pmul(_gcd(ca, cb), b)


def _prem(a, b, i):
    """A pseudo-remainder of a by b as polynomials in x_i: a times a
    power of b's leading coefficient, less a multiple of b, of degree
    below b's."""
    db = _degree(b, i)
    lc_b = _coefficient(b, i, db)
    while a:
        da = _degree(a, i)
        if da < db:
            break
        lc_a = _coefficient(a, i, da)
        shift = tuple(int(j == i) * (da - db) for j in range(len(_ZERO_MONOM)))
        a = _padd(_pmul(lc_b, a), _mul_term(_pmul(lc_a, b), shift, -1))
    return a


# -- numerators and denominators -----------------------------------------
#
# A denominator is an int or a polynomial dict, and so is a gcd of one;
# a numerator is a polynomial dict.  These helpers take either kind.


def _zgcd(a, b):
    """A gcd in Z[h, ..., s] of a numerator or denominator a and a
    denominator b: a positive int when it is a constant."""
    if type(b) is int:
        return gcd(b, a) if type(a) is int else gcd(b, *a.values())
    if type(a) is int:
        return gcd(a, *b.values())
    g = _gcd(a, b)
    c = _constant(g)
    return g if c is None else abs(c)


def _zquo(a, g):
    """a divided exactly by a gcd g of it."""
    if type(g) is int:
        return a // g if type(a) is int else _divided(a, g)
    return _quo(a, g)


def _zmul(a, b):
    """The product of two numerators or denominators."""
    if type(a) is int:
        a, b = b, a
    if type(b) is int:
        return a * b if type(a) is int else _scale(a, b)
    return _product(a, b)


def _fraction(num, den):
    """The scalar num/den of a nonzero integer polynomial num and a
    numerator or denominator den coprime to it, with the denominator
    made canonical: a constant becomes a positive int, 1 leaves a
    polynomial, and a polynomial's lex-leading coefficient is made
    positive."""
    if type(den) is dict:
        c = _constant(den)
        if c is None:
            if den[max(den)] < 0:
                num, den = _neg(num), _neg(den)
            return Scalar((num, den))
        den = c
    if den < 0:
        num, den = _neg(num), -den
    return Scalar(num if den == 1 else (num, den))


def _mul_fractions(n1, d1, n2, d2):
    """n1/d1 * n2/d2 for two reduced fractions, by Henrici's method."""
    g1, g2 = _zgcd(n1, d2), _zgcd(n2, d1)
    num = _zmul(_zquo(n1, g1), _zquo(n2, g2))
    return _fraction(num, _zmul(_zquo(d1, g2), _zquo(d2, g1)))


def _add_fractions(n1, d1, n2, d2):
    """n1/d1 + n2/d2 for two reduced fractions, by Henrici's method."""
    g = _zgcd(d1, d2)
    e1, e2 = _zquo(d1, g), _zquo(d2, g)
    t = _sum(_zmul(n1, e2), _zmul(n2, e1))
    if not t:
        return ZERO
    g = _zgcd(t, g)
    return _fraction(_zquo(t, g), _zmul(e1, _zquo(d2, g)))


def _reciprocal(v):
    """The reduced pair (num, den) of 1/v for a nonzero payload v, num
    an int when it is a constant."""
    if type(v) is dict:
        return 1, v
    num, den = v
    return den, num


# Scalar arithmetic.  Most operands in the checks are zero, the constant
# one or a single term c*m, so those are combined here directly; the
# general polynomial helpers run only for two polynomials of several
# terms, integer denominators cancel with math.gcd, and _fraction ends
# every operation with a polynomial denominator.


def _binomial(ma, ca, mb, cb):
    """The scalar ca*ma + cb*mb of two terms."""
    if ma != mb:
        return Scalar({ma: ca, mb: cb})
    c = ca + cb
    if not c:
        return ZERO
    return Scalar({ma: c})


def _add(x, y):
    a, b = x._v, y._v
    if not b:
        return x
    if not a:
        return y
    if type(a) is dict:
        if type(b) is dict:
            if len(a) == 1 == len(b):
                [(ma, ca)], [(mb, cb)] = a.items(), b.items()
                return _binomial(ma, ca, mb, cb)
            return Scalar(_padd(a, b))
        a, b = b, a
    n1, d1 = a
    if type(b) is dict:
        # n1 + b*d1 is coprime to d1 because n1 is
        return Scalar((_sum(n1, _scale(b, d1) if type(d1) is int else _product(b, d1)), d1))
    n2, d2 = b
    if type(d1) is not int or type(d2) is not int:
        return _add_fractions(n1, d1, n2, d2)
    if d1 == d2:
        t = _sum(n1, n2)
        g = d1
    else:
        g = gcd(d1, d2)
        t = _sum(_scale(n1, d2 // g), _scale(n2, d1 // g))
    if not t:
        return ZERO
    g2 = gcd(g, *t.values())
    den = d1 // g * (d2 // g2)
    t = _divided(t, g2)
    return Scalar(t if den == 1 else (t, den))


def _mul(x, y):
    a, b = x._v, y._v
    if not a:
        return x
    if not b:
        return y
    if type(a) is dict and len(a) == 1:
        [(ma, ca)] = a.items()
        if ca == 1 and ma == _ZERO_MONOM:
            return y
        if type(b) is dict:
            if len(b) > 1:
                return Scalar(_mul_term(b, ma, ca))
            [(mb, cb)] = b.items()
            if cb == 1 and mb == _ZERO_MONOM:
                return x
            (a0, a1, a2, a3, a4, a5, a6, a7), (b0, b1, b2, b3, b4, b5, b6, b7) = ma, mb
            m = (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5, a6 + b6, a7 + b7)
            return Scalar({m: ca * cb})
    elif type(b) is dict and len(b) == 1:
        [(mb, cb)] = b.items()
        if cb == 1 and mb == _ZERO_MONOM:
            return x
        if type(a) is dict:
            return Scalar(_mul_term(a, mb, cb))
    if type(a) is dict:
        if type(b) is dict:
            return Scalar(_pmul(a, b))
        a, b = b, a
    n1, d1 = a
    n2, d2 = (b, 1) if type(b) is dict else b
    if type(d1) is not int or type(d2) is not int:
        return _mul_fractions(n1, d1, n2, d2)
    if len(n1) == 1 == len(n2):
        [((a0, a1, a2, a3, a4, a5, a6, a7), c1)] = n1.items()
        [((b0, b1, b2, b3, b4, b5, b6, b7), c2)] = n2.items()
        m = (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5, a6 + b6, a7 + b7)
        c, den = c1 * c2, d1 * d2
        g = gcd(c, den)
        if g != 1:
            c, den = c // g, den // g
        return Scalar({m: c} if den == 1 else ({m: c}, den))
    g1 = 1 if d2 == 1 else gcd(d2, *n1.values())
    g2 = gcd(d1, *n2.values())
    num = _product(_divided(n1, g1), _divided(n2, g2))
    den = d1 // g2 * (d2 // g1)
    return Scalar(num if den == 1 else (num, den))


def _div(x, y):
    b = y._v
    if not b:
        raise DivisionByZero("division by the zero scalar")
    a = x._v
    if not a:
        return x
    n2, d2 = _reciprocal(b)
    n1, d1 = (a, 1) if type(a) is dict else a
    return _mul_fractions(n1, d1, n2, d2)


Scalar.__add__, Scalar.__radd__ = _operators(_add)
Scalar.__sub__, Scalar.__rsub__ = _operators(lambda x, y: _add(x, -y))
Scalar.__mul__, Scalar.__rmul__ = _operators(_mul)
Scalar.__truediv__, Scalar.__rtruediv__ = _operators(_div)


#: generator lookup by name
PARAMS = {
    name: Scalar({tuple(int(j == i) for j in range(len(PARAM_NAMES))): 1})
    for i, name in enumerate(PARAM_NAMES)
}
h, k, rho, kprime, rhoprime, beta, betaprime, s = PARAMS.values()

ZERO = Scalar({})
ONE = Scalar({_ZERO_MONOM: 1})


def ensure_scalar(value):
    """Coerce ints, Fractions and Scalars into the field."""
    if type(value) is Scalar:
        return value
    if isinstance(value, int):
        return Scalar({_ZERO_MONOM: int(value)} if value else {})
    if isinstance(value, Fraction):
        if not value:
            return Scalar({})
        num, den = {_ZERO_MONOM: value.numerator}, value.denominator
        return Scalar(num if den == 1 else (num, den))
    raise TypeError(f"cannot coerce {type(value).__name__} to a scalar")


def _primitive(p):
    """The integer polynomial p over its integer content, with a
    positive lex-leading coefficient."""
    c = gcd(*p.values())
    if p[max(p)] < 0:
        c = -c
    return _divided(p, c)


def common_denominator(values):
    """The lcm of the polynomial denominators of the scalars values,
    with lex-leading coefficient one: ONE when every value is a
    polynomial over Q.  Each value times it is a polynomial over Q."""
    den = None
    for x in values:
        v = x._v
        if type(v) is not dict and type(v[1]) is dict:
            d = _primitive(v[1])
            den = d if den is None else _pmul(den, _exquo(d, _primitive(_gcd(den, d))))
    if den is None:
        return ONE
    # den is primitive, so its content shares no factor with its lead
    lead = den[max(den)]
    return Scalar(den if lead == 1 else (den, lead))


def height(x) -> int:
    """The largest height, the larger of |numerator| and denominator,
    among the rational coefficients of x; 0 for the zero scalar."""
    v = x._v
    if type(v) is dict:
        return max(map(abs, v.values()), default=0)
    num, den = v
    if type(den) is int:
        return max(max(abs(c.numerator), c.denominator) for c in _rationals(num, den))
    return max(map(abs, chain(num.values(), den.values())))


def _rationals(num, den):
    """The rational coefficients of the polynomial num/den, den an int."""
    return (Fraction(c, den) for c in num.values())


def term_count(x) -> int:
    """The number of terms of x, or of the longer of the numerator and
    denominator of a fraction."""
    v = x._v
    if type(v) is dict:
        return len(v)
    num, den = v
    return len(num) if type(den) is int else max(len(num), len(den))


def _eval_poly(poly, repl, den=1):
    """Evaluate a polynomial payload over the int den under a partial
    assignment {parameter index: Scalar}, keeping unassigned
    parameters."""
    total = ZERO
    for monom, coeff in poly.items():
        kept = tuple(0 if i in repl else e for i, e in enumerate(monom))
        g = gcd(coeff, den)
        term = Scalar({kept: coeff // g} if g == den else ({kept: coeff // g}, den // g))
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
    if type(v) is dict:
        return _eval_poly(v, repl)
    num, den = v
    if type(den) is int:
        return _eval_poly(num, repl, den)
    num = _eval_poly(num, repl)
    den = _eval_poly(den, repl)
    if not den:
        raise DenominatorVanishes(f"denominator {render(x)} vanishes under substitution")
    return num / den


def _monom_key(monom):
    # graded lex on the fixed parameter order
    return (sum(monom), monom)


def _lead(poly):
    """Graded-lex leading coefficient of a nonzero polynomial."""
    return poly[max(poly, key=_monom_key)]


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
    if type(v) is dict:
        return 1 if _lead(v) > 0 else -1
    num, den = v
    sign = 1 if _lead(num) > 0 else -1
    return sign if type(den) is int or _lead(den) > 0 else -sign


def render(x) -> str:
    """Canonical textual form.

    A polynomial renders as its terms with explicit ^ and *, a rational
    coefficient as p/q; a fraction with a polynomial denominator as
    (numerator)/(denominator), the denominator monic (leading
    coefficient one under graded lex) and the numerator compensating.
    """
    v = x._v
    if not v:
        return "0"
    if type(v) is dict:
        return _poly_str(v.items())
    num, den = v
    if type(den) is int:
        return _poly_str(zip(num, _rationals(num, den)))
    lead = _lead(den)
    num_terms = [(m, Fraction(c, lead)) for m, c in num.items()]
    den_terms = [(m, Fraction(c, lead)) for m, c in den.items()]
    return f"({_poly_str(num_terms)})/({_poly_str(den_terms)})"
