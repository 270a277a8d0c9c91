"""Parser for polynomial expressions in catalog files and CLI values.

Grammar (tokens separated by optional whitespace):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/' | '@') factor)*
    factor := '-' factor | atom ('^' INT)?
    atom   := INT | NAME | '(' expr ')'

Names resolve to parameters (scalars) or generators (polynomials); '@'
builds simple tensors.  Scalars commute with everything, generator
products stay in written order.  Errors carry line and column positions
into CatalogParseError.

Every number must print in a report, so neither a numeral nor a
coefficient of the parsed value may have more digits than Python's
int-to-str limit allows.  No input may do unbounded work either, so
every product of parsed values passes one guard before it runs: each
'*', each '@', each '/' (a product with the divisor's inverse) and each
step of '^', which is computed by squaring.  The guard takes its three
limits from that digit limit: the operands may pair at most that many
coefficient terms, their largest numbers may have at most twice its
bits together, and their longest words at most that many letters
together.  So 2^99999999, (h+k+1)^99999999 and x^99999999 are refused
after a few steps, and so is a product of two powers that are each
allowed.  Only the final value must print: 10^4299*10/100 parses.
"""

from __future__ import annotations

import functools
import itertools
import sys

from . import scalars as sc
from .errors import AlgebraMismatch, CatalogParseError
from .ncalg import FreePoly


class Token:
    __slots__ = ("kind", "text", "col")

    def __init__(self, kind, text, col):
        self.kind = kind
        self.text = text
        self.col = col


# Python's default int-to-str limit, used when the limit is switched off
_DEFAULT_MAX_DIGITS = 4300


def max_digits():
    """The most decimal digits a number in an expression may have."""
    return sys.get_int_max_str_digits() or _DEFAULT_MAX_DIGITS


@functools.lru_cache(maxsize=None)
def _power_of_ten(digits):
    return 10**digits


def tokenize(text, path="<expr>", line=1, col_offset=0):
    out = []
    limit = max_digits()
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = col_offset + i + 1
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j - i > limit:
                raise CatalogParseError(
                    f"numeral of {j - i} digits; at most {limit} are allowed", path, line, col
                )
            out.append(Token("num", text[i:j], col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("name", text[i:j], col))
            i = j
        elif ch in "+-*/^@()":
            out.append(Token("op", ch, col))
            i += 1
        else:
            raise CatalogParseError(f"unexpected character {ch!r}", path, line, col)
    out.append(Token("end", "", col_offset + n + 1))
    return out


def _is_scalar(v):
    return isinstance(v, sc.Scalar)


def _width(v):
    """Slot count: 0 for a scalar, 1 for a polynomial, 2 for a tensor."""
    return len(v.slots) if isinstance(v, FreePoly) else 0


def _size(v):
    """(coefficient terms, bits of the largest number, longest word) of
    a parsed value."""
    if _is_scalar(v):
        return sc.term_count(v), sc.height(v).bit_length(), 0
    coeffs = v.terms.values()
    return (
        sum(map(sc.term_count, coeffs)),
        max(map(sc.height, coeffs), default=0).bit_length(),
        max(map(len, itertools.chain.from_iterable(v.terms)), default=0),
    )


class _Parser:
    def __init__(self, tokens, resolver, tensor_slots, path, line):
        self.tokens = tokens
        self.pos = 0
        self.resolver = resolver
        self.tensor_slots = tensor_slots
        self.path = path
        self.line = line
        self.digits = max_digits()
        # the least integer with too many digits
        self.too_big = _power_of_ten(self.digits)

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise CatalogParseError(message, self.path, self.line, tok.col)

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        start = self.peek()
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected {tok.text!r} after expression", tok)
        coeffs = (value,) if _is_scalar(value) else value.terms.values()
        if any(sc.height(c) >= self.too_big for c in coeffs):
            self.too_large(start)
        return value

    def too_large(self, start):
        self.fail(f"number of more than {self.digits} digits", start)

    def expr(self):
        value = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.take()
                rhs = self.term()
                value = self.combine_add(value, rhs, tok.text, tok)
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/@":
                self.take()
                rhs = self.factor()
                if tok.text == "*":
                    value = self.combine_mul(value, rhs, tok)
                elif tok.text == "/":
                    value = self.combine_div(value, rhs, tok)
                else:
                    value = self.combine_tensor(value, rhs, tok)
            else:
                return value

    def factor(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.take()
            return -self.factor()
        start = tok
        value = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.take()
            exp = self.take()
            if exp.kind != "num":
                self.fail("exponent must be a nonnegative integer", exp)
            return self.power(value, int(exp.text), start)
        return value

    def power(self, base, n, start):
        """base^n by squaring from the top bit of n, each step a guarded
        product."""
        if not n:
            return sc.ONE if _is_scalar(base) else FreePoly.scalar(base.slots)
        out = base
        for bit in f"{n:b}"[1:]:
            out = self.product(out, out, start)
            if bit == "1":
                out = self.product(out, base, start)
        return out

    def product(self, a, b, tok, outer=False):
        """a * b, or the outer product a @ b, refused at tok unless it
        pairs at most `digits` coefficient terms, its operands' largest
        numbers have at most twice the bits of too_big together and
        their longest words at most `digits` letters together."""
        (terms_a, bits_a, word_a), (terms_b, bits_b, word_b) = _size(a), _size(b)
        if terms_a * terms_b > self.digits:
            self.fail(f"product of more than {self.digits} term pairs", tok)
        if bits_a + bits_b > 2 * self.too_big.bit_length():
            self.too_large(tok)
        if word_a + word_b > self.digits:
            self.fail(f"product of words of more than {self.digits} letters", tok)
        try:
            return FreePoly.of(a, b) if outer else a * b
        except AlgebraMismatch as exc:
            self.fail(str(exc), tok)

    def atom(self):
        tok = self.take()
        if tok.kind == "num":
            return sc.ensure_scalar(int(tok.text))
        if tok.kind == "name":
            return self.resolver(tok.text, tok, self)
        if tok.kind == "op" and tok.text == "(":
            value = self.expr()
            close = self.take()
            if close.kind != "op" or close.text != ")":
                self.fail("expected ')'", close)
            return value
        self.fail(f"expected a value, found {tok.text or 'end of input'!r}", tok)

    # -- typed combination ---------------------------------------------

    def combine_add(self, a, b, op, tok):
        if _is_scalar(a) and not _is_scalar(b):
            a = self.promote(a, b, tok)
        elif _is_scalar(b) and not _is_scalar(a):
            b = self.promote(b, a, tok)
        try:
            return a + b if op == "+" else a - b
        except AlgebraMismatch as exc:
            self.fail(str(exc), tok)

    def promote(self, scalar, like, tok):
        return FreePoly.scalar(like.slots, scalar)

    def combine_mul(self, a, b, tok):
        if _width(a) == 2 and _width(b) == 1:
            self.fail("cannot multiply a tensor by a bare polynomial", tok)
        if _width(a) == 1 and _width(b) == 2:
            self.fail("cannot multiply a bare polynomial by a tensor", tok)
        return self.product(a, b, tok)

    def combine_div(self, a, b, tok):
        if isinstance(b, FreePoly):
            if _width(b) == 1 and b.degree() == 0:
                b = b.constant()
            else:
                self.fail("can only divide by scalars", tok)
        if not b:
            self.fail("division by zero", tok)
        return self.product(a, sc.ONE / b, tok)

    def combine_tensor(self, a, b, tok):
        if _width(a) == 2 or _width(b) == 2:
            self.fail("tensors of more than two factors are not supported", tok)
        slots = self.tensor_slots
        if _is_scalar(a):
            if slots is None:
                self.fail("scalar tensor factor needs a declared tensor target", tok)
            a = FreePoly.unit(slots[0], a)
        if _is_scalar(b):
            if slots is None:
                self.fail("scalar tensor factor needs a declared tensor target", tok)
            b = FreePoly.unit(slots[1], b)
        if slots is not None:
            if a.alg is not slots[0]:
                self.fail(f"left tensor factor must live over {slots[0].id}", tok)
            if b.alg is not slots[1]:
                self.fail(f"right tensor factor must live over {slots[1].id}", tok)
        return self.product(a, b, tok, outer=True)


def parse_value(
    text,
    params=None,
    gens=None,
    tensor_slots=None,
    path="<expr>",
    line=1,
    col_offset=0,
):
    """Parse text into a Scalar or a FreePoly of one slot, or two for '@'.

    params maps names to scalars, gens maps names to generator
    polynomials; gens win on collision.  tensor_slots, when given, is the
    (left algebra, right algebra) pair that '@' expressions must fit.
    """
    params = params if params is not None else {}
    gens = gens if gens is not None else {}

    def resolver(name, tok, parser):
        if name in gens:
            return gens[name]
        if name in params:
            return params[name]
        parser.fail(f"unknown name {name!r}", tok)

    tokens = tokenize(text, path, line, col_offset)
    parser = _Parser(tokens, resolver, tensor_slots, path, line)
    value = parser.parse()
    return value


def parse_scalar(text, path="<expr>"):
    """Parse a pure scalar expression (CLI parameter values)."""
    return parse_value(text, sc.PARAMS, path=path)


def gen_map(alg):
    """name -> generator polynomial map for an algebra."""
    return {name: FreePoly.from_word(alg, (i,)) for i, name in enumerate(alg.gens)}
