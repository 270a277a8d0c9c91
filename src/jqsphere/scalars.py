"""Exact coefficient arithmetic over the rational function field in the
deformation and sphere parameters.

Every coefficient in the package is an element of Q(h, k, rho, kprime,
rhoprime, beta, betaprime, s), represented as a reduced fraction of
multivariate polynomials with exact rational coefficients.  Equality is
structural, zero tests are decidable, and nothing is ever evaluated in
floating point.

The representation is sympy's sparse FracElement; this module pins the
parameter order, the canonical rendering, and the substitution semantics
so the rest of the package never touches sympy directly.
"""

from __future__ import annotations

from fractions import Fraction

from sympy import QQ
from sympy.polys.fields import field

from .errors import DenominatorVanishes, DivisionByZero

#: parameter symbols, in the order used for graded-lex rendering
PARAM_NAMES = ("h", "k", "rho", "kprime", "rhoprime", "beta", "betaprime", "s")

FIELD, h, k, rho, kprime, rhoprime, beta, betaprime, s = field(
    " ".join(PARAM_NAMES), QQ
)

#: generator lookup by name
PARAMS = {name: gen for name, gen in zip(PARAM_NAMES, FIELD.gens)}

ZERO = FIELD.zero
ONE = FIELD.one

#: the concrete scalar type (sympy FracElement over this field)
Scalar = type(ONE)


def ensure_scalar(value):
    """Coerce ints, Fractions and Scalars into the field."""
    if isinstance(value, Scalar):
        if value.field is not FIELD:
            raise ValueError("scalar from a foreign field")
        return value
    if isinstance(value, int):
        return FIELD(value)
    if isinstance(value, Fraction):
        return FIELD(value.numerator) / FIELD(value.denominator)
    raise TypeError(f"cannot coerce {type(value).__name__} to a scalar")


def rational(p, q=1):
    if q == 0:
        raise DivisionByZero("rational(p, 0)")
    return FIELD(p) / FIELD(q)


def is_zero(x) -> bool:
    return not x


def _eval_poly(poly, repl):
    """Evaluate a numerator/denominator polynomial under a partial
    assignment {gen index: Scalar}, keeping unassigned generators."""
    total = ZERO
    gens = FIELD.gens
    for monom, coeff in poly.terms():
        term = ONE * coeff
        for i, e in enumerate(monom):
            if e:
                base = repl.get(i)
                if base is None:
                    base = gens[i]
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
    num = _eval_poly(x.numer, repl)
    den = _eval_poly(x.denom, repl)
    if not den:
        raise DenominatorVanishes(f"denominator {render(x)} vanishes under substitution")
    return num / den


def _monom_key(monom):
    # graded lex on the fixed parameter order
    return (sum(monom), monom)


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
    if not x:
        return 0

    def lead(poly):
        return max(poly.terms(), key=lambda t: _monom_key(t[0]))[1]

    sign = 1 if lead(x.numer) > 0 else -1
    if lead(x.denom) < 0:
        sign = -sign
    return sign


def render(x) -> str:
    """Canonical textual form.

    Numerator over denominator with explicit ^ and *; the denominator is
    omitted when it is 1 and otherwise rendered monic (leading coefficient
    one under graded lex), compensating in the numerator.
    """
    if not x:
        return "0"
    num_terms = list(x.numer.terms())
    den_terms = list(x.denom.terms())
    if len(den_terms) == 1 and not any(den_terms[0][0]):
        c = den_terms[0][1]
        return _poly_str([(m, k / c) for m, k in num_terms])
    lead = max(den_terms, key=lambda t: _monom_key(t[0]))[1]
    num_terms = [(m, c / lead) for m, c in num_terms]
    den_terms = [(m, c / lead) for m, c in den_terms]
    return f"({_poly_str(num_terms)})/({_poly_str(den_terms)})"
