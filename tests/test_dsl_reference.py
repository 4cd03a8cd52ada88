"""The text parser against its node-by-node predecessor and the Symbol algebra.

`reference_parse` is a frozen copy of the parser as it was when every
grammar node evaluated to a canonical Symbol: each literal, coordinate,
product, power step and partial sum was canonicalized.  The package's
parser evaluates nodes to term maps, canonicalizes once, plus once per K
argument, and lowers each distinct exp argument once per parse.  On texts that format_symbol renders the two agree exactly;
on random expression trees the keys agree exactly and the coefficients up
to rounding, because the trees keep every coefficient far above the
relative floor and every exponential parameter on a grid that the
clustering tolerance cannot merge.
"""

import cmath
import math
import random
import re
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcalc import berezin, format_symbol, parse_symbol, sharp, toeplitz_apply
from fockcalc.dsl import SymbolSyntaxError
from fockcalc.suites import random_holo
from fockcalc.symbols import Symbol, constant, coordinate, exponential, kernel
from test_dsl import FUZZ_TOKENS

# -- frozen reference ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?i?)
      | (?P<coord>z\d+)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*^(),])
    """,
    re.VERBOSE,
)


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


class _ReferenceParser:
    def __init__(self, text: str, n: int):
        self.tokens = _tokenize(text)
        self.i = 0
        self.n = n

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
    def expr(self) -> Symbol:
        negate = False
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            negate = True
        out = self.term()
        if negate:
            out = -out
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    # term := factor {"*" factor}
    def term(self) -> Symbol:
        out = self.factor()
        while self.peek().kind == "op" and self.peek().text == "*":
            self.advance()
            out = out * self.factor()
        return out

    # factor := base ["^" nat]
    def factor(self) -> Symbol:
        out = self.base()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            out = out ** self.nat()
        return out

    def nat(self) -> int:
        tok = self.peek()
        if tok.kind != "number" or not tok.text.isdigit():
            raise SymbolSyntaxError("expected a non-negative integer", tok.pos)
        self.advance()
        return int(tok.text)

    def base(self) -> Symbol:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            value = float(tok.text.rstrip("i"))
            if not math.isfinite(value):
                raise SymbolSyntaxError(f"number {tok.text!r} is out of float range", tok.pos)
            return constant(self.n, 1j * value if tok.text.endswith("i") else value)
        if tok.kind == "coord":
            self.advance()
            k = int(tok.text[1:])
            if not 1 <= k <= self.n:
                raise SymbolSyntaxError(
                    f"coordinate z{k} out of range 1..{self.n}", tok.pos
                )
            return coordinate(self.n, k)
        if tok.kind == "name":
            if tok.text == "conj":
                self.advance()
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return inner.conj()
            if tok.text == "exp":
                self.advance()
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return self._lower_exp(inner, tok.pos)
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
                return kernel(args)
            raise SymbolSyntaxError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise SymbolSyntaxError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.pos
        )

    def _const_arg(self) -> complex:
        tok = self.peek()
        value = self.expr()
        if not value.is_constant:
            raise SymbolSyntaxError("kernel components must be constants", tok.pos)
        return value.constant_value()

    def _lower_exp(self, arg: Symbol, pos: int) -> Symbol:
        """exp of an affine argument; the constant part folds into the coefficient."""
        const = 0j
        c = [0j] * self.n
        d = [0j] * self.n
        for t in arg.terms:
            if any(x != 0 for x in t.c) or any(x != 0 for x in t.d):
                raise SymbolSyntaxError("exp argument must not contain exp", pos)
            if t.degree == 0:
                const += t.coef
            elif t.degree == 1:
                if sum(t.a) == 1:
                    c[t.a.index(1)] += t.coef
                else:
                    d[t.b.index(1)] += t.coef
            else:
                raise SymbolSyntaxError(
                    "exp argument must be affine in the coordinates", pos
                )
        try:
            coef = cmath.exp(const)
        except OverflowError:
            raise SymbolSyntaxError("exp of the constant part overflows", pos) from None
        return exponential(self.n, c, d, coef)


def reference_parse(text: str, n: int) -> Symbol:
    """parse_symbol as it was when every node was a canonical Symbol."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if not text.strip():
        raise SymbolSyntaxError("empty input", 0)
    p = _ReferenceParser(text, n)
    out = p.expr()
    tok = p.peek()
    if tok.kind != "end":
        raise SymbolSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
    return out


# -- texts that format_symbol renders --------------------------------------------------


def test_parse_matches_reference_on_rendered_symbols():
    rng = random.Random(0xD51)
    for _ in range(5):
        for n in (1, 2, 3):
            f, g = random_holo(rng, n, 3), random_holo(rng, n, 3)
            for s in (f, g, berezin(f * g.conj()), sharp(f, g), toeplitz_apply(f + g.conj(), f)):
                text = format_symbol(s)
                assert parse_symbol(text, n).terms == reference_parse(text, n).terms, text


# -- exp arguments that repeat within one text -----------------------------------------

E = "exp((0.25-0.5i)*z1 + 0.75*conj(z2) - 1)"


@pytest.mark.parametrize(
    "text",
    [
        "exp(z1) + exp(z1)",
        "exp(z1) - exp(z1)",
        "exp(z1)*exp(z1)",
        "z1*exp(z1) + exp(z1)",
        "exp(z1) + z2*exp(z1)^3 - conj(exp(z1))*exp(z1)",
        "-exp(z1) + 2*exp(z1) - exp( z1) + exp(z1 )*exp(\tz1)",
        f"{E} + z1*{E} - 0.5i*z2^2*{E}*{E}",
        "exp(K(1, 2i) - K(1, 2i) + z1) + exp(K(1, 2i) - K(1, 2i) + z1)",
        "exp(exp(z1) - exp(z1) + z2) + exp(z2)*exp(exp(z1) - exp(z1) + z2)",
        "exp(0*z1^2 + z1 + 0*exp(z2)) - exp(0*z1^2 + z1 + 0*exp(z2))",
    ],
)
def test_repeated_exp_arguments_match_reference(text):
    got = parse_symbol(text, 2)
    assert list(got._map.items()) == list(reference_parse(text, 2)._map.items())


@pytest.mark.parametrize(
    "text",
    [
        "exp(z1^2) + exp(z1^2)",
        "exp(z1^2 + exp(z2)) + exp(z1^2 + exp(z2))",
        "exp(z1*exp(z2)) - exp(z1*exp(z2))",
        "exp(z1 + exp(z2)*z1^2) + exp(z1 + exp(z2)*z1^2)",
        "exp(z1 + z1^2*exp(-z2)) + exp(z1 + z1^2*exp(-z2))",
        "exp(1e400) + exp(1e400)",
        "exp(800) + exp(800)",
        "exp(z1 z2) + exp(z1 z2)",
        "exp(z3) + exp(z3)",
        "exp() + exp()",
        "exp(z1 + @) + exp(z1 + @)",
        "z1 + exp(z1) + exp(z1) + (",
        "exp(z1) + exp(z1",
    ],
)
def test_repeated_invalid_exp_arguments_fail_as_reference(text):
    with pytest.raises(SymbolSyntaxError) as want:
        reference_parse(text, 2)
    with pytest.raises(SymbolSyntaxError) as got:
        parse_symbol(text, 2)
    assert (got.value.message, got.value.position) == (want.value.message, want.value.position)


# -- characters that start no token ------------------------------------------------------


@settings(max_examples=400, deadline=500)
@given(
    st.lists(st.sampled_from(FUZZ_TOKENS + ["$", "\t", "."]), max_size=24).map("".join),
    st.integers(1, 3),
)
def test_bad_character_is_reported_before_any_other_error(text, n):
    # the reference tokenizes the whole text before it parses
    try:
        _tokenize(text)
    except SymbolSyntaxError as want:
        with pytest.raises(SymbolSyntaxError) as got:
            parse_symbol(text, n)
        assert (got.value.message, got.value.position) == (want.message, want.position)
        return
    try:
        parse_symbol(text, n)
    except ValueError as exc:
        assert "unexpected character" not in str(exc)


# -- edge cases of the single-term fold and the complex-literal shortcut -------------------


@pytest.mark.parametrize(
    "text, n",
    [
        ("(0-0i)", 1),
        ("(-0-0i)*z1", 1),
        ("(1-0i)", 1),
        ("(-1e-300+1e-300i)", 1),
        ("((1+2i))", 1),
        ("(1+2i+3)", 1),
        ("(1+2i)^2", 1),
        ("z1^0", 2),
        ("(-0.5-0i)*z2^3*conj(z1)*z2*exp((0.5-0.25i)*z1 - 0.5i*conj(z2))", 2),
        ("conj(exp(0.5*z1 + 0.25i*z2))*z1", 2),
        ("z1*conj(exp(0.5*z1))*z2", 2),
    ],
)
def test_edge_cases_match_reference_to_the_bit(text, n):
    # repr shows the sign of every zero, in the keys and the coefficients
    assert repr(list(parse_symbol(text, n)._map.items())) == repr(
        list(reference_parse(text, n)._map.items())
    )


@pytest.mark.parametrize(
    "text, n",
    [("z3", 2), ("(1e308+1e308i)*10", 1), ("(1e400+1i)", 1), ("(1+1e400i)*z1", 1), ("(2-3i", 1)],
)
def test_edge_case_errors_match_reference(text, n):
    with pytest.raises(ValueError) as want:
        reference_parse(text, n)
    with pytest.raises(ValueError) as got:
        parse_symbol(text, n)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


@pytest.mark.parametrize(
    "text, pos",
    [
        ("z1^21", 2),
        ("exp(3000*z1)*exp(2000*z1)", 12),
        ("exp(-3000i*conj(z1))*z2*exp(-2000i*conj(z1))", 23),
    ],
)
def test_power_cap_and_parameter_sum_errors_carry_the_operator(text, pos):
    # the Symbol algebra raises these without a position; the parser names the "^" or
    # the "*" at pos
    with pytest.raises(ValueError) as want:
        reference_parse(text, 2)
    with pytest.raises(SymbolSyntaxError) as got:
        parse_symbol(text, 2)
    assert got.value.position == pos
    if text[pos] == "^":
        assert "21 is above the cap 20" in str(want.value)
        assert got.value.message == "exponent 21 is above the cap 20"
    else:
        assert got.value.message == str(want.value)


# -- random expression trees against the Symbol algebra ---------------------------------

#: exponential parameters and exp's constant part: quarter steps, so sums stay exact and
#: distinct parameters stay far apart next to the clustering tolerance
GRID = [k / 4 for k in range(-4, 5)]


class Node:
    """An expression tree as text and as a Symbol built by the public algebra.

    factors bounds the number of literals multiplied into one coefficient and
    size the sum of coefficient moduli; together they keep every coefficient
    far above the relative floor.
    """

    def __init__(self, text: str, symbol: Symbol, factors: int, size: float):
        self.text, self.symbol, self.factors, self.size = text, symbol, factors, size


def _number(x: float) -> str:
    return repr(abs(x))


def _affine_text(const: float, c, d) -> str:
    parts = [(const, "")]
    parts += [(x, f"*z{k + 1}") for k, x in enumerate(c)]
    parts += [(x, f"*conj(z{k + 1})") for k, x in enumerate(d)]
    out = ""
    for x, factor in parts:
        if x == 0:
            continue
        sign = ("-" if x < 0 else "") if not out else (" - " if x < 0 else " + ")
        out += sign + _number(x) + factor
    return out or "0"


def trees(n: int):
    grid = st.sampled_from(GRID)
    literal = st.builds(
        lambda k, imag: Node(
            f"{k / 4!r}{'i' if imag else ''}", constant(n, 1j * (k / 4) if imag else k / 4), 1, k / 4
        ),
        st.integers(0, 16),
        st.booleans(),
    )
    coord = st.integers(1, n).map(lambda k: Node(f"z{k}", coordinate(n, k), 1, 1.0))
    exp = st.builds(
        lambda const, c, d: Node(
            f"exp({_affine_text(const, c, d)})",
            exponential(n, c, d, cmath.exp(const)),
            1,
            math.exp(const),
        ),
        grid,
        st.lists(grid, min_size=n, max_size=n),
        st.lists(grid, min_size=n, max_size=n),
    )
    kern = st.lists(grid, min_size=n, max_size=n).map(
        lambda w: Node(
            "K(" + ",".join(("-" if x < 0 else "") + _number(x) for x in w) + ")", kernel(w), 1, 1.0
        )
    )

    def extend(children):
        pair = st.tuples(children, children)
        return st.one_of(
            pair.map(lambda p: Node(
                f"({p[0].text}) + ({p[1].text})", p[0].symbol + p[1].symbol,
                max(p[0].factors, p[1].factors), p[0].size + p[1].size,
            )),
            pair.map(lambda p: Node(
                f"({p[0].text}) - ({p[1].text})", p[0].symbol - p[1].symbol,
                max(p[0].factors, p[1].factors), p[0].size + p[1].size,
            )),
            children.map(lambda a: Node(f"-({a.text})", -a.symbol, a.factors, a.size)),
            pair.filter(lambda p: p[0].factors + p[1].factors <= 12).map(lambda p: Node(
                f"({p[0].text})*({p[1].text})", p[0].symbol * p[1].symbol,
                p[0].factors + p[1].factors, p[0].size * p[1].size,
            )),
            st.tuples(children, st.integers(0, 4))
            .filter(lambda p: p[0].factors * p[1] <= 12)
            .map(lambda p: Node(
                f"({p[0].text})^{p[1]}", p[0].symbol ** p[1], p[0].factors * p[1], p[0].size ** p[1]
            )),
            children.map(lambda a: Node(f"conj({a.text})", a.symbol.conj(), a.factors, a.size)),
        ).filter(lambda node: node.size <= 1e3)

    return st.recursive(st.one_of(literal, coord, exp, kern), extend, max_leaves=8)


def _assert_same_function(got: Symbol, want: Symbol):
    assert [(t.a, t.b, t.c, t.d) for t in got.terms] == [(t.a, t.b, t.c, t.d) for t in want.terms]
    for x, y in zip(got.terms, want.terms):
        assert abs(x.coef - y.coef) <= 1e-12 * abs(y.coef)


CASES = st.one_of([trees(n).map(lambda node, n=n: (n, node)) for n in (1, 2)])


@settings(max_examples=300, deadline=None)
@given(CASES)
def test_parse_matches_symbol_algebra_on_random_trees(case):
    n, node = case
    got = parse_symbol(node.text, n)
    _assert_same_function(got, node.symbol)
    _assert_same_function(got, reference_parse(node.text, n))
