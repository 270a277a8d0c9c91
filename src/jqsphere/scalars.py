"""Exact coefficient arithmetic over the rational function field in the
deformation and sphere parameters.

Every coefficient in the package is an element of Q(h, k, rho, kprime,
rhoprime, beta, betaprime, s).  Equality is structural, zero tests are
decidable, and nothing is ever evaluated in floating point.  Only the
standard library is used.

Almost every coefficient the checks meet is a polynomial: completed
rules, coproducts and matrix entries all live in Q[h, ..., s].  True
denominators come only from a few verbatim elements (k/rho, 1/(2h)) and
from user bindings such as k=1/rho.  So a Scalar is polynomial-first and
holds exactly one canonical payload:

- a polynomial: a dict from an exponent tuple, one entry per parameter
  in PARAM_NAMES order, to a nonzero coefficient: an int, or a Fraction
  when it is not an integer.  Zero is the empty dict.
- a fraction, only when the denominator is not a constant: a tuple
  (num, den) of two such dicts whose coefficients are all ints, jointly
  primitive (the gcd of all their coefficients is 1), coprime as
  polynomials, with the lex-leading coefficient of den positive.

These are the numerator and denominator that the usual cancellation
over Z keeps, so height() and term_count() measure the reduced fraction.

Two polynomials add and multiply term by term, with no gcd, monomials
multiplying by an 8-wide tuple add; x - y is x + (-y).  Division by a
constant divides the coefficients.  Any other division, and any
operation with a fraction operand, builds a numerator and denominator
and reduces them with _fraction: it clears rational coefficients and
divides out the common monomial and integer content, which is the whole
gcd when either side is a single term (the rho of k/rho).  Only when
both sides still have several terms does it run a multivariate gcd: the
heuristic gcd, with a recursive primitive PRS in the parameter of least
degree when the heuristic gives up, its result checked by exact
division.  A constant denominator left over divides the numerator, so
k/rho * rho is the polynomial k.
Because every value has one payload, ==, hash and render need no
special cases.

Most operands in the checks are zero, the constant one or a single term
c*m, and those are combined directly.  x + 0 and 0 + x return x, 0 * x
returns the zero operand and a product with the constant one returns
the other factor: payloads are never mutated, so sharing them is safe.
Two single terms multiply into one term and add into one term, two, or
zero when they cancel; a single term times a polynomial scales its
terms.  Only this module reads or wraps a payload.

This module pins the parameter order, the canonical rendering, and the
substitution semantics for the rest of the package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm

from .errors import DenominatorVanishes, DivisionByZero

#: parameter symbols, in the order used for graded-lex rendering
PARAM_NAMES = ("h", "k", "rho", "kprime", "rhoprime", "beta", "betaprime", "s")

_ZERO_MONOM = (0,) * len(PARAM_NAMES)


class Scalar:
    """An element of the parameter field; see the module doc.

    _v is the canonical payload: a polynomial dict, or a (num, den)
    tuple of them whose denominator is not constant.  Payloads are never
    mutated, so scalars may share them, and an operation may return one
    of its operands.
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
        return Scalar((_pow(num, n), _pow(den, n)))

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
        return hash((frozenset(num.items()), frozenset(den.items())))

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
# Each helper takes and returns polynomial dicts and never mutates its
# arguments.  Coefficients of a product or sum are dropped when they
# cancel, so no result holds a zero coefficient, and an integral
# Fraction becomes an int, which keeps later arithmetic on ints.


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
            if not c0:
                del out[m]
            elif type(c0) is int:
                out[m] = c0
            else:
                out[m] = _rational(c0)
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
    return _integral_coefficients({m: c for m, c in out.items() if c})


def _mul_term(p, mono, coeff):
    """p times the single term coeff*mono."""
    b0, b1, b2, b3, b4, b5, b6, b7 = mono
    return _integral_coefficients(
        {
            (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5, a6 + b6, a7 + b7): c * coeff
            for (a0, a1, a2, a3, a4, a5, a6, a7), c in p.items()
        }
    )


def _rational(c):
    """A nonzero rational as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def _integral_coefficients(p):
    """A freshly built polynomial with its integral Fraction coefficients
    replaced by ints, in place."""
    for m, c in p.items():
        if type(c) is not int and c.denominator == 1:
            p[m] = c.numerator
    return p


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


def _ratio(p, q):
    """p/q for rationals, an int when it is one."""
    return _rational(Fraction(p, q))


def _divide_by_constant(p, c):
    return {m: _ratio(v, c) for m, v in p.items()}


def _constant(p):
    """The coefficient of a constant polynomial, else None."""
    if len(p) == 1:
        [(m, c)] = p.items()
        if m == _ZERO_MONOM:
            return c
    return None


# -- fraction reduction -------------------------------------------------


def _clear_denominators(num, den):
    """num and den scaled by one rational so that every coefficient is
    an int."""
    coeffs = list(chain(num.values(), den.values()))
    if all(type(c) is int for c in coeffs):
        return num, den
    mult = lcm(*(c.denominator for c in coeffs))
    num = {m: c.numerator * (mult // c.denominator) for m, c in num.items()}
    den = {m: c.numerator * (mult // c.denominator) for m, c in den.items()}
    return num, den


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
    a = {m: v // c for m, v in a.items()}
    b = {m: v // c for m, v in b.items()}
    x = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    for _ in range(6):
        ea, eb = _evaluate(a, i, x), _evaluate(b, i, x)
        if ea and eb:
            g = _interpolate(_gcd(ea, eb), i, x)
            content = gcd(*g.values())
            g = {m: v // content for m, v in g.items()}
            if _exquo(a, g) is not None and _exquo(b, g) is not None:
                return {m: v * c for m, v in g.items()}
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


def _fraction(num, den):
    """The scalar num/den of two polynomial payloads, den nonzero, in
    canonical form."""
    if not num:
        return ZERO
    c = _constant(den)
    if c is not None:
        return Scalar(_divide_by_constant(num, c))
    num, den = _clear_denominators(num, den)
    # the common monomial and integer content: the whole gcd when either
    # side is a single term
    mono = tuple(map(min, *num, *den))
    c = gcd(*num.values(), *den.values())
    if c != 1 or any(mono):
        num, den = _divide_by_term(num, mono, c), _divide_by_term(den, mono, c)
    if len(num) > 1 and len(den) > 1:
        g = _gcd(num, den)
        if _constant(g) is None:
            num, den = _quo(num, g), _quo(den, g)
    c = _constant(den)
    if c is not None:
        return Scalar(_divide_by_constant(num, c))
    if den[max(den)] < 0:
        num, den = _neg(num), _neg(den)
    return Scalar((num, den))


# Scalar arithmetic.  Most operands in the checks are zero, the constant
# one or a single term c*m, so those are combined here directly; the
# general polynomial helpers run only for two polynomials of several
# terms, and _fraction only when a fraction is involved.


def _binomial(ma, ca, mb, cb):
    """The scalar ca*ma + cb*mb of two terms."""
    if ma != mb:
        return Scalar({ma: ca, mb: cb})
    c = ca + cb
    if not c:
        return ZERO
    return Scalar({ma: c if type(c) is int else _rational(c)})


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
    num, den = a
    if type(b) is dict:
        return _fraction(_padd(num, _pmul(b, den)), den)
    return _fraction(_padd(_pmul(num, b[1]), _pmul(b[0], den)), _pmul(den, b[1]))


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
            c = ca * cb
            return Scalar({m: c if type(c) is int else _rational(c)})
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
    num, den = a
    if type(b) is dict:
        return _fraction(_pmul(num, b), den)
    return _fraction(_pmul(num, b[0]), _pmul(den, b[1]))


def _div(x, y):
    a, b = x._v, y._v
    if not b:
        raise DivisionByZero("division by the zero scalar")
    if type(b) is dict:
        if type(a) is dict:
            return _fraction(a, b)
        return _fraction(a[0], _pmul(a[1], b))
    num, den = b
    if type(a) is dict:
        return _fraction(_pmul(a, den), num)
    return _fraction(_pmul(a[0], den), _pmul(a[1], num))


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
        return Scalar({_ZERO_MONOM: _ratio(value, 1)} if value else {})
    raise TypeError(f"cannot coerce {type(value).__name__} to a scalar")


def _primitive(p):
    """The integer polynomial p over its integer content, with a
    positive lex-leading coefficient."""
    c = gcd(*p.values())
    if p[max(p)] < 0:
        c = -c
    return {m: v // c for m, v in p.items()}


def common_denominator(values):
    """The lcm of the denominators of the scalars values, as a
    polynomial with lex-leading coefficient one: ONE when every value is
    a polynomial.  Each value times it is a polynomial."""
    den = None
    for x in values:
        v = x._v
        if type(v) is not dict:
            d = _primitive(v[1])
            den = d if den is None else _pmul(den, _exquo(d, _primitive(_gcd(den, d))))
    if den is None:
        return ONE
    return Scalar(_divide_by_constant(den, den[max(den)]))


def _height(c):
    """The larger of |numerator| and denominator of a rational."""
    return max(abs(c.numerator), c.denominator)


def height(x) -> int:
    """The largest height among the rational coefficients of x; 0 for
    the zero scalar."""
    v = x._v
    polys = (v,) if type(v) is dict else v
    return max((_height(c) for p in polys for c in p.values()), default=0)


def term_count(x) -> int:
    """The number of terms of x, or of the longer of the numerator and
    denominator of a fraction."""
    v = x._v
    if type(v) is dict:
        return len(v)
    return max(len(v[0]), len(v[1]))


def _eval_poly(poly, repl):
    """Evaluate a polynomial payload under a partial assignment
    {parameter index: Scalar}, keeping unassigned parameters."""
    total = ZERO
    for monom, coeff in poly.items():
        kept = tuple(0 if i in repl else e for i, e in enumerate(monom))
        term = Scalar({kept: coeff})
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
    num = _eval_poly(v[0], repl)
    den = _eval_poly(v[1], repl)
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
    sign = 1 if _lead(v[0]) > 0 else -1
    return sign if _lead(v[1]) > 0 else -sign


def render(x) -> str:
    """Canonical textual form.

    A polynomial renders as its terms with explicit ^ and *; a fraction
    as (numerator)/(denominator), the denominator monic (leading
    coefficient one under graded lex) and the numerator compensating.
    """
    v = x._v
    if not v:
        return "0"
    if type(v) is dict:
        return _poly_str(v.items())
    num, den = v
    lead = _lead(den)
    num_terms = [(m, Fraction(c, lead)) for m, c in num.items()]
    den_terms = [(m, Fraction(c, lead)) for m, c in den.items()]
    return f"({_poly_str(num_terms)})/({_poly_str(den_terms)})"
