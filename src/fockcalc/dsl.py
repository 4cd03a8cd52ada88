"""Text notation for symbols: recursive-descent parser and pretty-printer.

The grammar, with the rules on exp arguments, kernels and complex
literals, is `docs/grammar.ebnf`; the parser methods follow its
productions.  Each node evaluates to a term map {(a, b, c, d): coef}:
sums and negations accumulate in place, and products use the one product
rule of `symbols`; both drop the cancellation noise of the keys they
merge.  The result is canonicalized once, plus once for the argument of
each exp and each component of K, so a sum of many terms parses in linear
time.  Every diagnostic on bad notation, including an exponent after `^`
above indices.MAX_EXPONENT (20), an exp or K parameter part outside the
range of `symbols` and a product (`*` or `^`) whose parameter parts leave
that range, is a SymbolSyntaxError carrying the character position;
arithmetic that leaves the float range raises a plain ValueError.
"""

from __future__ import annotations

import cmath
import math
import re
from typing import NamedTuple

from .indices import MAX_EXPONENT
from .symbols import PARAM_STEP, Symbol, _checked, _conj, _drop_noise, _merge, _product, _snap


class SymbolSyntaxError(ValueError):
    """Parse failure with a character position into the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?i?)
      | (?P<coord>z\d+)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*^(),])
    """,
    re.VERBOSE,
)

#: negation multiplies by this, as Symbol.scale(-1) does
_MINUS_ONE = complex(-1)


class _Token(NamedTuple):
    kind: str  # number | coord | name | op | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SymbolSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(_Token("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str, n: int):
        self.tokens = _tokenize(text)
        self.i = 0
        self.n = n
        self.zero = (0,) * n
        self.czero = (0j,) * n

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise SymbolSyntaxError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    # expr := ["-"] term {("+"|"-") term}
    def expr(self) -> dict:
        negate = False
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            negate = True
        out = self.term()
        if negate:
            out = {key: x * _MINUS_ONE for key, x in out.items()}
        mass: dict = {}
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term().items()
            _merge(out, mass, rhs if op == "+" else [(k, x * _MINUS_ONE) for k, x in rhs])
        return _drop_noise(out, mass)

    # term := factor {"*" factor}
    def term(self) -> dict:
        out = self.factor()
        while self.peek().kind == "op" and self.peek().text == "*":
            pos = self.advance().pos
            out = self._mul(out, self.factor(), pos)
        return out

    # factor := base ["^" nat]
    def factor(self) -> dict:
        out = self.base()
        if self.peek().kind == "op" and self.peek().text == "^":
            pos = self.advance().pos
            k = self.nat()
            if k > MAX_EXPONENT:
                raise SymbolSyntaxError(f"exponent {k} is above the cap {MAX_EXPONENT}", pos)
            # x^0 is 1 for every x, so x is checked before it can be dropped
            base, out = _checked(out), self._constant(1)
            for _ in range(k):
                out = self._mul(out, base, pos)
        return out

    def nat(self) -> int:
        tok = self.peek()
        if tok.kind != "number" or not tok.text.isdigit():
            raise SymbolSyntaxError("expected a non-negative integer", tok.pos)
        self.advance()
        return int(tok.text)

    def base(self) -> dict:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            value = float(tok.text.rstrip("i"))
            if not math.isfinite(value):
                raise SymbolSyntaxError(f"number {tok.text!r} is out of float range", tok.pos)
            return self._constant(1j * value if tok.text.endswith("i") else value)
        if tok.kind == "coord":
            self.advance()
            k = int(tok.text[1:])
            if not 1 <= k <= self.n:
                raise SymbolSyntaxError(
                    f"coordinate z{k} out of range 1..{self.n}", tok.pos
                )
            a = tuple(1 if j == k - 1 else 0 for j in range(self.n))
            return {(a, self.zero, self.czero, self.czero): 1 + 0j}
        if tok.kind == "name":
            if tok.text == "conj":
                self.advance()
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return _conj(inner)
            if tok.text == "exp":
                self.advance()
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return self._lower_exp(Symbol._of(self.n, list(inner.items())), tok.pos)
            if tok.text == "K":
                self.advance()
                self.expect_op("(")
                args = [self._const_arg()]
                while self.peek().kind == "op" and self.peek().text == ",":
                    self.advance()
                    args.append(self._const_arg())
                self.expect_op(")")
                if len(args) != self.n:
                    raise SymbolSyntaxError(
                        f"K takes {self.n} components here, found {len(args)}", tok.pos
                    )
                # the reproducing kernel exp(z . conj(w))
                return self._exponential([w.conjugate() for w in args], self.czero, 1 + 0j, tok.pos)
            raise SymbolSyntaxError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise SymbolSyntaxError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.pos
        )

    def _constant(self, value: complex) -> dict:
        return {(self.zero, self.zero, self.czero, self.czero): complex(value)}

    def _exponential(self, c, d, coef: complex, pos: int) -> dict:
        """coef * exp(z.c + conj(z).d); SymbolSyntaxError at pos for a parameter out of range."""
        try:
            return {(self.zero, self.zero, _snap(c), _snap(d)): coef}
        except ValueError as exc:
            raise SymbolSyntaxError(str(exc), pos) from None

    def _mul(self, s: dict, t: dict, pos: int) -> dict:
        """The product s * t; SymbolSyntaxError at pos, the operator's position, for a
        parameter part out of range, so that every later sum of parameters stays exact."""
        try:
            out = _product(s, t)
        except ValueError as exc:
            raise SymbolSyntaxError(str(exc), pos) from None
        return _checked(out)

    def _const_arg(self) -> complex:
        tok = self.peek()
        value = Symbol._of(self.n, list(self.expr().items()))
        if not value.is_constant:
            raise SymbolSyntaxError("kernel components must be constants", tok.pos)
        return value.constant_value()

    def _lower_exp(self, arg: Symbol, pos: int) -> dict:
        """exp of an affine argument; the constant part folds into the coefficient."""
        const = 0j
        c = [0j] * self.n
        d = [0j] * self.n
        for (a, b, ec, ed), x in arg._map.items():
            if any(ec) or any(ed):
                raise SymbolSyntaxError("exp argument must not contain exp", pos)
            degree = sum(a) + sum(b)
            if degree == 0:
                const += x
            elif degree == 1:
                if sum(a) == 1:
                    c[a.index(1)] += x
                else:
                    d[b.index(1)] += x
            else:
                raise SymbolSyntaxError(
                    "exp argument must be affine in the coordinates", pos
                )
        try:
            coef = cmath.exp(const)
        except OverflowError:
            raise SymbolSyntaxError("exp of the constant part overflows", pos) from None
        return self._exponential(c, d, coef, pos)


def parse_symbol(text: str, n: int) -> Symbol:
    """Parse the notation above into a canonical symbol on C^n."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if not text.strip():
        raise SymbolSyntaxError("empty input", 0)
    p = _Parser(text, n)
    out = p.expr()
    tok = p.peek()
    if tok.kind != "end":
        raise SymbolSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
    return Symbol._of(n, list(out.items()))


# -- formatting -------------------------------------------------------------


# 12 digits would cap the round trip near 5e-12 relative (0.5 ulp of a
# p-digit decimal is 0.5*10^{1-p}); 14 holds the 1e-12 tolerance with margin
_FMT_DIGITS = 14


def _fmt_float(v: float) -> str:
    return f"{v:.{_FMT_DIGITS}g}"


def _fmt_param_part(v: float) -> str:
    """The shortest %.{p}g text of the grid value v that rounds back to v.

    More digits are never farther from v, so p is found by bisection; 17 digits give v.
    """
    k, lo, hi = round(v / PARAM_STEP), 1, 17
    while lo < hi:
        p = (lo + hi) // 2
        lo, hi = (lo, p) if round(float("%.*g" % (p, v)) / PARAM_STEP) == k else (p + 1, hi)
    return "%.*g" % (lo, v)


def _fmt_coef(v: complex, fmt=_fmt_float) -> str:
    if v.imag == 0:
        return fmt(v.real)
    if v.real == 0:
        return fmt(v.imag) + "i"
    sign = "+" if v.imag >= 0 else "-"
    return f"({fmt(v.real)}{sign}{fmt(abs(v.imag))}i)"


def _join_sum(parts: list[str]) -> str:
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


def _fmt_linear(c, d) -> str:
    parts = []
    for k, v in enumerate(c):
        if v != 0:
            parts.append(_fmt_product(v, f"z{k + 1}", _fmt_param_part))
    for k, v in enumerate(d):
        if v != 0:
            parts.append(_fmt_product(v, f"conj(z{k + 1})", _fmt_param_part))
    return _join_sum(parts)


def _fmt_product(coef: complex, factors_text: str, fmt=_fmt_float) -> str:
    if not factors_text:
        return _fmt_coef(coef, fmt)
    if coef == 1:
        return factors_text
    if coef == -1:
        return "-" + factors_text
    return _fmt_coef(coef, fmt) + "*" + factors_text


def format_symbol(s: Symbol) -> str:
    """Deterministic canonical rendering; parses back to the same symbol."""
    if s.is_zero:
        return "0"
    exps: dict = {}  # (c, d) -> its rendered exp(...) factor, "" when both vanish
    parts = []
    for (a, b, c, d), coef in s._map.items():
        factors = []
        for k, e in enumerate(a):
            if e == 1:
                factors.append(f"z{k + 1}")
            elif e > 1:
                factors.append(f"z{k + 1}^{e}")
        for k, e in enumerate(b):
            if e == 1:
                factors.append(f"conj(z{k + 1})")
            elif e > 1:
                factors.append(f"conj(z{k + 1})^{e}")
        e = exps.get((c, d))
        if e is None:
            e = exps[c, d] = f"exp({_fmt_linear(c, d)})" if any(c) or any(d) else ""
        if e:
            factors.append(e)
        parts.append(_fmt_product(coef, "*".join(factors)))
    return _join_sum(parts)


def parse_complex(text: str) -> complex:
    """Parse one complex constant in the DSL notation (e.g. "1+2i", "-0.5i")."""
    value = parse_symbol(text, 1)
    if not value.is_constant:
        raise SymbolSyntaxError("expected a constant", 0)
    return value.constant_value()
