"""Text notation for symbols: recursive-descent parser and pretty-printer.

The grammar, with the rules on exp arguments, kernels and complex
literals, is `docs/grammar.ebnf`; the parser methods follow its
productions.  The parser reads the source text directly: it holds one
current token and scans the next with one regex match when it moves on.
Each node evaluates to a term map {(a, b, c, d): coef}: sums and
negations accumulate in place, and products use the one product rule of
`symbols`; both drop the cancellation noise of the keys they merge.  The
result is canonicalized once, plus once for each component of K, so a sum
of many terms parses in linear time.  Most factors are one term: a term
folds its run of single-term factors into one running key and
coefficient, checking at each `*` what the product rule checks.  The
factors format_symbol writes are each read there in one step: one regex
match reads "*z_k^e" or "*conj(z_k)^e" (or z_k^e starting a term) and adds
e at slot k, and "*exp(" goes to the exp factor without the descent through
factor and base.  A complex literal "(x+yi)", the form of every coefficient
and exp parameter of rendered text, is read by one regex at its "(" as one
constant: x + y, or no term where the noise rule of that sum drops it.
Each step gives the bits and the diagnostics of the general path and hands
it what it does not read exactly (k out of range, e above the cap or not a
plain integer, a further "^", a space inside the factor); that path stays
for a factor of several terms, whose product can cancel terms, and for
the power of any other base.  An exp argument is lowered from its term map
directly: each of its constant, z_k and conj(z_k) slots takes at most one
term, so no order is needed.  Each parse keeps a memo of its lowered exp
factors, keyed on the source text of the argument; at a repeated argument
the parser jumps to its ")" and hands out a copy of the stored factor.
Brackets nest at most MAX_NESTING deep.  Every diagnostic on bad notation,
including an exponent after `^` above indices.MAX_EXPONENT (20), an exp or
K parameter part outside the range of `symbols` and a product (`*` or `^`)
whose parameter parts leave that range, is a SymbolSyntaxError carrying
the character position; a character that starts no token is reported
before any other error, by a rescan of the text once the parse has failed.
Arithmetic that leaves the float range raises a plain ValueError.

The printer renders each term with one %-format, from a bounded cache of
monomial texts z^a conj(z)^b and a per-call one of exp factors, and
splits an exponent above MAX_EXPONENT into factors the parser accepts
(z1^20*z1 for z1^21).
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from bisect import bisect_right
from operator import add

from .indices import MAX_EXPONENT
from .symbols import (
    COEF_FLOOR,
    PARAM_STEP,
    Symbol,
    _canonical_order,
    _checked,
    _conj,
    _drop_noise,
    _in_range,
    _merge,
    _product,
    _snap,
)

#: brackets, of any kind, open around one point of the text; deeper nesting
#: is a syntax error rather than a RecursionError
MAX_NESTING = 100


class SymbolSyntaxError(ValueError):
    """Parse failure with a character position into the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?i?"

#: whitespace, then one token; "end" at the end of the text, "bad" for a character
#: that starts no token
_TOKEN_RE = re.compile(
    rf"""\s*(?:
        (?P<number>{_NUMBER})
      | (?P<coord>z\d+)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*^(),])
      | (?P<end>\Z)
      | (?P<bad>.)
    )""",
    re.VERBOSE | re.DOTALL,
)

#: the tokens "(", ["-"], number, "+" or "-", number, ")" of a complex literal
_LITERAL_RE = re.compile(rf"\(\s*(-?)\s*({_NUMBER})\s*([-+])\s*({_NUMBER})\s*\)")

#: a coordinate power "*z_k^e" or "*conj(z_k)^e" as format_symbol writes it, "*" absent
#: at the start of a term and "^e" absent for e = 1; e is a plain integer, no "^" follows
_POWER_RE = re.compile(r"\*?(?:z(\d+)(?!\d)|(conj)\(z(\d+)\))(?:\^(\d+)(?![.\w]))?(?!\s*\^)")

#: negation multiplies by this, as Symbol.scale(-1) does
_MINUS_ONE = complex(-1)


def _closing(text: str, start: int, stop: int) -> int:
    """Index of the ")" that closes a "(" just before text[start], or -1 if none
    does before text[stop]; one pass, counting the "(" between each ")" and the
    one before it."""
    depth = 0
    while (end := text.find(")", start, stop)) >= 0:
        depth += text.count("(", start, end)
        if not depth:
            return end
        depth -= 1
        start = end + 1
    return -1


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.zero = (0,) * n
        self.czero = (0j,) * n
        self.exps: dict[str, dict] = {}  # exp argument source text -> its lowered factor
        self.longest = 0  # length of the longest key of exps
        self.depth = 0  # brackets open around the current expression
        # the current token is kind (a group of _TOKEN_RE), tok (its text) and pos;
        # the next one is scanned from end
        self.end = 0
        self.advance()

    def advance(self) -> None:
        m = _TOKEN_RE.match(self.text, self.end)
        self.kind = m.lastgroup
        self.tok = m[self.kind]
        self.end = m.end()
        self.pos = self.end - len(self.tok)

    def at(self, ops: str) -> bool:
        """Whether the current token is one of the operators in ops."""
        return self.kind == "op" and self.tok in ops

    def expect_op(self, op: str) -> int:
        """The position of the current token, which must be op, moving past it."""
        if self.kind != "op" or self.tok != op:
            raise SymbolSyntaxError(f"expected {op!r}, found {self.tok or 'end of input'!r}", self.pos)
        pos = self.pos
        self.advance()
        return pos

    # expr := ["-"] term {("+"|"-") term}
    def expr(self) -> dict:
        if self.depth > MAX_NESTING:
            raise SymbolSyntaxError(f"brackets nested deeper than {MAX_NESTING}", self.pos)
        self.depth += 1
        negate = self.at("-")
        if negate:
            self.advance()
        out = self.term()
        if negate:
            out = {key: x * _MINUS_ONE for key, x in out.items()}
        mass: dict = {}
        while self.at("+-"):
            op = self.tok
            self.advance()
            rhs = self.term().items()
            _merge(out, mass, rhs if op == "+" else [(k, x * _MINUS_ONE) for k, x in rhs])
        self.depth -= 1
        return _drop_noise(out, mass)

    # term := factor {"*" factor}
    def term(self) -> dict:
        # a term that starts with z_k is 1 times it, so the fold reads z_k as a later factor
        out = self._fold(self._constant(1), lead=True) if self.kind == "coord" else self.factor()
        while self.at("*"):
            if len(out) == 1:
                out = self._fold(out)
            else:
                pos = self.expect_op("*")
                out = self._mul(out, self.factor(), pos)
        return out

    # factor := base ["^" nat]
    def factor(self, base: dict | None = None) -> dict:
        """The factor at the current token, or the one whose base, read already, is base."""
        out = self.base() if base is None else base
        if self.at("^"):
            pos = self.expect_op("^")
            e = self.nat()
            if e > MAX_EXPONENT:
                raise SymbolSyntaxError(f"exponent {e} is above the cap {MAX_EXPONENT}", pos)
            # x^0 is 1 for every x, so x is checked before it can be dropped
            base, out = _checked(out), self._constant(1)
            for _ in range(e):
                out = self._mul(out, base, pos)
        return out

    def nat(self) -> int:
        if self.kind != "number" or not self.tok.isdigit():
            raise SymbolSyntaxError("expected a non-negative integer", self.pos)
        e = int(self.tok)
        self.advance()
        return e

    def base(self) -> dict:
        kind, tok, pos = self.kind, self.tok, self.pos
        if kind == "number":
            self.advance()
            return self._constant(self._number(tok, pos))
        if kind == "coord":
            self.advance()
            k = int(tok[1:])
            if not 1 <= k <= self.n:
                raise SymbolSyntaxError(f"coordinate z{k} out of range 1..{self.n}", pos)
            a = self.zero[: k - 1] + (1,) + self.zero[k:]
            return {(a, self.zero, self.czero, self.czero): 1 + 0j}
        if kind == "name":
            self.advance()
            if tok == "conj":
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return _conj(inner)
            if tok == "exp":
                return self._exp(self.expect_op("(") + 1, pos)
            if tok == "K":
                self.expect_op("(")
                args = [self._const_arg()]
                while self.at(","):
                    self.advance()
                    args.append(self._const_arg())
                self.expect_op(")")
                if len(args) != self.n:
                    raise SymbolSyntaxError(
                        f"K takes {self.n} components here, found {len(args)}", pos
                    )
                # the reproducing kernel exp(z . conj(w))
                return self._exponential([w.conjugate() for w in args], self.czero, 1 + 0j, pos)
            raise SymbolSyntaxError(f"unknown identifier {tok!r}", pos)
        if self.at("("):
            literal = self._literal()
            if literal is not None:
                return literal
            self.advance()
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise SymbolSyntaxError(f"expected a value, found {tok or 'end of input'!r}", pos)

    def _exp(self, start: int, pos: int) -> dict:
        """exp(...) named at pos, its argument at text[start], the current token."""
        # only an argument no longer than a stored one can be found
        end = _closing(self.text, start, start + self.longest + 1) if self.exps else -1
        if end >= 0 and (arg := self.text[start:end]) in self.exps:
            # parsed and lowered before without error, so the skipped text,
            # the same as there, hides no diagnostic
            self.end = end + 1  # past the ")"
            self.advance()
            out = self.exps[arg]
        else:
            inner = self.expr()
            arg = self.text[start : self.expect_op(")")]
            out = self.exps[arg] = self._lower_exp(inner, pos)
            self.longest = max(self.longest, len(arg))
        return dict(out)  # expr merges into its first term's map in place

    def _number(self, text: str, pos: int) -> complex:
        value = float(text.rstrip("i"))
        if not math.isfinite(value):
            raise SymbolSyntaxError(f"number {text!r} is out of float range", pos)
        return complex(1j * value if text.endswith("i") else value)

    def _literal(self) -> dict | None:
        """The constant "([-]x+y)" or "([-]x-y)", x and y numbers, at the current "(", as
        expr builds it, without a descent per number; None for any other parenthesis."""
        m = _LITERAL_RE.match(self.text, self.pos)
        if m is None:
            return None
        x, y = self._number(m[2], m.start(2)), self._number(m[4], m.start(4))
        x = x * _MINUS_ONE if m[1] else x
        y = y * _MINUS_ONE if m[3] == "-" else y
        self.end = m.end()
        self.advance()
        # x + y as _merge adds it; no term where _drop_noise drops it, as it does a zero
        v, mass = x + y, abs(x) + abs(y)
        if COEF_FLOOR * mass < math.inf and abs(v) <= COEF_FLOOR * mass:
            return {}
        return self._constant(v)

    def _constant(self, value: complex) -> dict:
        return {(self.zero, self.zero, self.czero, self.czero): complex(value)}

    def _fold(self, out: dict, lead: bool = False) -> dict:
        """out, one term, times the factors after it in the term.  While they are single
        terms too, exponents and parameters add and the coefficient multiplies, with the
        checks of _mul at each "*"; a factor of other terms goes through _mul and ends it.
        With lead, out is 1 and the current token, a coordinate, is the first factor."""
        text, n, zero, czero = self.text, self.n, self.zero, self.czero
        ((a, b, c, d), x), = out.items()
        while lead or self.at("*"):
            pos = self.pos
            # a coordinate power is read at once, unless the general path raises on it
            m = _POWER_RE.match(text, pos)
            k, e = (int(m[1] or m[3]), int(m[4] or 1)) if m else (0, 0)
            if 1 <= k <= n and e <= MAX_EXPONENT and not (m[2] and self.depth > MAX_NESTING):
                if m[2]:
                    b = b[: k - 1] + (b[k - 1] + e,) + b[k:]
                else:
                    a = a[: k - 1] + (a[k - 1] + e,) + a[k:]
                y = 1 + 0j  # the coefficient of z_k and of conj(z_k), as in the general path
                self.end = m.end()
                self.advance()
                lead = False
            elif lead:
                return self.factor()
            else:
                exp = text.startswith("*exp(", pos)  # read at once, without the descent to base
                self.end = pos + (5 if exp else 1)
                self.advance()
                rhs = self.factor(self._exp(pos + 5, pos + 1) if exp else None)
                if len(rhs) != 1:
                    return self._mul({(a, b, c, d): x}, rhs, pos)
                ((a2, b2, c2, d2), y), = rhs.items()
                a = a if a2 is zero else tuple(map(add, a, a2))
                b = b if b2 is zero else tuple(map(add, b, b2))
                if c2 is not czero or d2 is not czero:  # only then can a parameter leave the range
                    c, d = tuple(map(add, c, c2)), tuple(map(add, d, d2))
                    try:
                        for v in {c, d}:  # in the order of _product's check
                            _in_range(v)
                    except ValueError as exc:
                        raise SymbolSyntaxError(str(exc), pos) from None
            x *= y
            if not abs(x.real) < 2.0**1023 > abs(x.imag):  # below, |x| is finite
                _checked({(a, b, c, d): x})
        return {(a, b, c, d): x}

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
        pos = self.pos
        value = Symbol._of(self.n, self.expr())
        if not value.is_constant:
            raise SymbolSyntaxError("kernel components must be constants", pos)
        return value.constant_value()

    def _lower_exp(self, arg: dict, pos: int) -> dict:
        """exp of an affine argument, given as a term map without cancellation noise;
        the constant part folds into the coefficient.  Terms with a zero coefficient
        are skipped, as canonicalization would drop them, and each slot takes at most
        one term, so the order of the map does not matter."""
        const = 0j
        c = [0j] * self.n
        d = [0j] * self.n
        for (a, b, ec, ed), x in _checked(arg).items():
            if not x:
                continue
            if any(ec) or any(ed) or sum(a) + sum(b) > 1:
                raise SymbolSyntaxError(_exp_argument_error(arg), pos)
            if any(a):
                c[a.index(1)] += x
            elif any(b):
                d[b.index(1)] += x
            else:
                const += x
        try:
            coef = cmath.exp(const)
        except OverflowError:
            raise SymbolSyntaxError("exp of the constant part overflows", pos) from None
        return self._exponential(c, d, coef, pos)


def _exp_argument_error(arg: dict) -> str:
    """What is wrong with the exp argument arg, which has a bad term: its first bad
    term in canonical order names it."""
    bad = next(
        key for key in _canonical_order(arg)
        if any(key[2]) or any(key[3]) or sum(key[0]) + sum(key[1]) > 1
    )
    if any(bad[2]) or any(bad[3]):
        return "exp argument must not contain exp"
    return "exp argument must be affine in the coordinates"


def parse_symbol(text: str, n: int) -> Symbol:
    """Parse the notation above into a canonical symbol on C^n."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if not text.strip():
        raise SymbolSyntaxError("empty input", 0)
    p = _Parser(text, n)
    try:
        out = p.expr()
        if p.kind != "end":
            raise SymbolSyntaxError(f"unexpected trailing input {p.tok!r}", p.pos)
    except ValueError:
        # a parse that succeeds has read every character or its copy in a repeated
        # exp argument, so only a failed one can have stopped short of one that
        # starts no token, which is reported first
        for m in _TOKEN_RE.finditer(text):
            if m.lastgroup == "bad":
                pos = m.start("bad")
                raise SymbolSyntaxError(f"unexpected character {text[pos]!r}", pos) from None
        raise
    return Symbol._of(n, out)


# -- formatting -------------------------------------------------------------


# 12 digits would cap the round trip near 5e-12 relative (0.5 ulp of a
# p-digit decimal is 0.5*10^{1-p}); 14 holds the 1e-12 tolerance with margin
_REAL, _IMAG, _COMPLEX = "%.14g", "%.14gi", "(%.14g%s%.14gi)"
#: a term of format_symbol: sign text, coefficient and its "*"-led factors
_TERM, _COMPLEX_TERM = "%s%.14g%s%s", "%s(%.14g%s%.14gi)%s"

#: 10^E for E = -12..3, as the nearest doubles; a grid value has E >= -13
_DECADES = [float(f"1e{e}") for e in range(-12, 4)]


def _fmt_coef(v: complex) -> str:
    if v.imag == 0:
        return _REAL % v.real
    if v.real == 0:
        return _IMAG % v.imag
    return _COMPLEX % (v.real, "+" if v.imag >= 0 else "-", abs(v.imag))


def _fmt_param_part(v: float) -> str:
    """The shortest %.{p}g text of the grid value v that rounds back to v.

    More digits are never farther from v, so p is found by bisection.  With E
    the decimal exponent of v, E + 14 digits are within 5e-14 of v, far inside
    half a grid step, and a random grid value needs E + 12 to E + 14: the
    search starts at E + 14 (an E read one too high only widens it) and probes
    the two widths below before it bisects.
    """
    k, lo, hi = round(v / PARAM_STEP), 1, bisect_right(_DECADES, abs(v)) + 1
    probes = 0
    while lo < hi:
        p = hi - 1 if probes < 2 else (lo + hi) // 2
        lo, hi = (lo, p) if round(float("%.*g" % (p, v)) / PARAM_STEP) == k else (p + 1, hi)
        probes += 1
    return "%.*g" % (lo, v)


def _fmt_param(v: complex) -> str:
    if v.imag == 0:
        return _fmt_param_part(v.real)
    if v.real == 0:
        return _fmt_param_part(v.imag) + "i"
    sign = "+" if v.imag >= 0 else "-"
    return f"({_fmt_param_part(v.real)}{sign}{_fmt_param_part(abs(v.imag))}i)"


def _fmt_linear(c, d) -> str:
    """z.c + conj(z).d as a sum of its nonzero terms, each parameter in its shortest text."""
    out = ""
    for template, v in [("z%d", c), ("conj(z%d)", d)]:
        for k, x in enumerate(v, 1):
            if x != 0:
                name = template % k
                text = name if x == 1 else "-" + name if x == -1 else f"{_fmt_param(x)}*{name}"
                out += text if not out else " - " + text[1:] if text[0] == "-" else " + " + text
    return out


@functools.lru_cache(maxsize=4096)
def _fmt_monomial(a: tuple, b: tuple) -> str:
    """z^a conj(z)^b as factors, each after a "*", "" for 1; an exponent above
    MAX_EXPONENT is split into factors of at most MAX_EXPONENT, which the parser's ^
    accepts."""
    out = ""
    for template, exponents in (("*z%d", a), ("*conj(z%d)", b)):
        for k, e in enumerate(exponents, 1):
            base = template % k
            while e > MAX_EXPONENT:
                out += f"{base}^{MAX_EXPONENT}"
                e -= MAX_EXPONENT
            if e == 1:
                out += base
            elif e > 1:
                out += f"{base}^{e}"
    return out


def format_symbol(s: Symbol) -> str:
    """Deterministic canonical rendering; parses back to the same symbol."""
    if s.is_zero:
        return "0"
    exps: dict = {}  # (c, d) -> its rendered "*exp(...)" factor, "" when both vanish
    out = []
    plus, minus = "", "-"  # the sign texts of the first term; later terms are spaced
    for (a, b, c, d), v in s._map.items():
        e = exps.get((c, d))
        if e is None:
            e = exps[c, d] = f"*exp({_fmt_linear(c, d)})" if any(c) or any(d) else ""
        factors = _fmt_monomial(a, b) + e
        x, y = v.real, v.imag
        if factors and (v == 1 or v == -1):
            out.append((minus if x < 0 else plus) + factors[1:])
        elif y == 0 or x == 0:  # real or imaginary: its sign is the term's sign
            w = x if y == 0 else y
            out.append(_TERM % (minus if w < 0 else plus, abs(w), "i" if y else "", factors))
        else:
            out.append(_COMPLEX_TERM % (plus, x, "-" if y < 0 else "+", abs(y), factors))
        plus, minus = " + ", " - "
    return "".join(out)


def parse_complex(text: str) -> complex:
    """Parse one complex constant in the DSL notation (e.g. "1+2i", "-0.5i")."""
    value = parse_symbol(text, 1)
    if not value.is_constant:
        raise SymbolSyntaxError("expected a constant", 0)
    return value.constant_value()
