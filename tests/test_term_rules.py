"""The closed term rules of berezin, sharp and toeplitz_apply against step-by-step compositions.

Each reference below builds its result the long way, through Symbol
products, repeated dz, shift, scale and a sum per term, with every
intermediate canonicalized.  The package expands each closed rule directly
and canonicalizes once, so the two may differ in rounding and in which
near-floor terms an intermediate drops, but never in the canonical keys.
The last test checks the linearity laws of the closed rules on the same
symbols: berezin is linear, sharp is linear in f and conjugate-linear in g,
and toeplitz_apply is linear in the symbol and in the (multi-term) argument.
berezin_inverse undoes berezin on mixed symbols and is sharp on f * conj(g).
The one coordinate factor of berezin, berezin_inverse, sharp and composition,
the closed form of symbols._leibniz, is also checked against an exact sympy
derivation of the Leibniz sum it stands for.
"""

import cmath
import functools
import math
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fockcalc.berezin import berezin, berezin_inverse
from fockcalc.indices import mi_binomial, mi_order
from fockcalc.sharp import sharp
from fockcalc.symbols import Symbol, SymbolTerm, _leibniz, constant, exponential, monomial
from fockcalc.symbols import relative_residual
from fockcalc.toeplitz import OpChain, normal_form, toeplitz_apply


def reference_toeplitz_apply(phi: Symbol, u: Symbol) -> Symbol:
    """Multiply by the holomorphic part, differentiate b times, shift by d."""
    n = phi.n
    out = Symbol(n)
    for t in phi.terms:
        v = monomial(n, t.a) * exponential(n, c=t.c) * u
        for k, bk in enumerate(t.b):
            for _ in range(bk):
                v = v.dz(k + 1)
        if any(x != 0 for x in t.d):
            v = v.shift(tuple(-x for x in t.d))  # substitute z + d
        out = out + v.scale(t.coef)
    return out


def _partials_upto(base: Symbol, i) -> dict:
    """All Wirtinger derivatives d^m base for m <= i componentwise."""
    n = base.n
    zero = (0,) * n
    out = {zero: base}
    for m in product(*(range(k + 1) for k in i)):
        if m == zero:
            continue
        j = next(idx for idx, mj in enumerate(m) if mj > 0)
        prev = list(m)
        prev[j] -= 1
        out[m] = out[tuple(prev)].dz(j + 1)
    return out


def reference_sharp(f: Symbol, g: Symbol) -> Symbol:
    """Per g-term: shift f, multiply by exp(zbar.q), then sum C(i,l) zbar^l (-D)^{i-l}."""
    n = f.n
    out = Symbol(n)
    for gt in g.terms:
        gamma = gt.coef.conjugate()
        i = gt.a
        q = tuple(x.conjugate() for x in gt.c)
        # exponential factor: exp(zbar.q) times the shift z |-> z - q
        base = f.shift(q) * exponential(n, d=q)
        partials = _partials_upto(base, i)
        acc = Symbol(n)
        for l in product(*(range(k + 1) for k in i)):
            m = tuple(ik - lk for ik, lk in zip(i, l))
            sign = -1 if mi_order(m) % 2 else 1
            weight = sign * mi_binomial(i, l)
            acc = acc + monomial(n, b=l, coef=weight) * partials[m]
        out = out + acc.scale(gamma)
    return out


def _shifted_power(n: int, k: int, offset: complex, m: int, anti: bool) -> Symbol:
    """(z_k + offset)^m, or (conj(z_k) + offset)^m when anti is set."""
    raw = []
    zero = (0,) * n
    czero = (0j,) * n
    for j in range(m + 1):
        coef = math.comb(m, j) * offset ** (m - j)
        if coef == 0:
            continue
        expo = tuple(j if idx == k else 0 for idx in range(n))
        if anti:
            raw.append(SymbolTerm(coef, zero, expo, czero, czero))
        else:
            raw.append(SymbolTerm(coef, expo, zero, czero, czero))
    return Symbol(n, raw)


def reference_berezin(s: Symbol) -> Symbol:
    """The product formula of the berezin module, one Symbol product per factor."""
    n = s.n
    out = Symbol(n)
    for t in s.terms:
        scale = t.coef * cmath.exp(sum(x * y for x, y in zip(t.c, t.d)))
        factor = constant(n, scale)
        for k in range(n):
            ak, bk = t.a[k], t.b[k]
            poly_k = Symbol(n)
            for j in range(min(ak, bk) + 1):
                w = math.comb(ak, j) * math.comb(bk, j) * math.factorial(j)
                poly_k = poly_k + (
                    _shifted_power(n, k, t.d[k], ak - j, anti=False)
                    * _shifted_power(n, k, t.c[k], bk - j, anti=True)
                ).scale(w)
            factor = factor * poly_k
        out = out + factor * exponential(n, c=t.c, d=t.d)
    return out


# Coefficients and parameters lie on a grid of eighths, so parameter sums
# are exact and no two distinct keys come within the clustering tolerance.
_eighths = st.integers(-8, 8).map(lambda k: k / 8)
_coefs = st.tuples(_eighths, _eighths).map(lambda p: complex(*p)).filter(bool)
_params = st.tuples(_eighths, _eighths).map(lambda p: complex(*p)).filter(lambda x: abs(x) <= 1)


@st.composite
def _symbol(draw, n, holomorphic):
    zero = (0,) * n
    czero = (0j,) * n
    expo = st.tuples(*[st.integers(0, 4)] * n)
    vec = st.tuples(*[_params] * n)
    raw = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(vec) if draw(st.booleans()) else czero
        if holomorphic:
            raw.append(SymbolTerm(draw(_coefs), draw(expo), zero, c, czero))
        else:
            raw.append(SymbolTerm(draw(_coefs), draw(expo), draw(expo), c, draw(vec)))
    out = Symbol(n, raw)
    # the mixed symbol carries an anti-holomorphic exponential, so the shift runs
    assume(holomorphic or any(x != 0 for t in out.terms for x in t.d))
    return out


@st.composite
def _case(draw):
    n = draw(st.integers(1, 3))
    return draw(_symbol(n, False)), draw(_symbol(n, True)), draw(_symbol(n, True))


def assert_same_symbol(got: Symbol, ref: Symbol) -> None:
    assert [(t.a, t.b, t.c, t.d) for t in got.terms] == [(t.a, t.b, t.c, t.d) for t in ref.terms]
    scale = max([1.0] + [abs(t.coef) for t in ref.terms])
    for g, r in zip(got.terms, ref.terms):
        assert abs(g.coef - r.coef) <= 1e-12 * scale, (g, r)


@settings(max_examples=60, deadline=None)
@given(_case())
def test_closed_rules_match_step_by_step_compositions(case):
    phi, f, g = case
    assert_same_symbol(toeplitz_apply(phi, f), reference_toeplitz_apply(phi, f))
    assert_same_symbol(sharp(f, g), reference_sharp(f, g))
    assert_same_symbol(berezin(phi), reference_berezin(phi))


@settings(max_examples=60, deadline=None)
@given(_case())
def test_berezin_inverse_inverts_berezin(case):
    phi, f, g = case
    for got in (berezin(berezin_inverse(phi)), berezin_inverse(berezin(phi))):
        assert relative_residual(got, phi) <= 1e-13
    # on the range f * conj(g) the inverse is the sharp product
    assert relative_residual(berezin_inverse(f * g.conj()), sharp(f, g)) <= 1e-13
    # holomorphic and anti-holomorphic symbols are fixed points of both maps
    for s in (f, g.conj()):
        assert berezin(s) == s and berezin_inverse(s) == s


def test_term_rule_underflow_is_a_value_error():
    # the results carry a factor exp(-900), 0 in floats, but are no small functions:
    # T_phi u is exp(30 z - 900), above 1 for z > 30, so it may not silently vanish
    e30, anti = exponential(1, c=[30]), exponential(1, d=[-30])
    for compute in (
        lambda: toeplitz_apply(anti, e30),
        lambda: sharp(exponential(1, c=[20]), exponential(1, c=[40])),
        lambda: berezin(e30 * anti),
        lambda: berezin_inverse(e30 * exponential(1, d=[30])),
        lambda: normal_form(OpChain([anti, e30])),
    ):
        with pytest.raises(ValueError, match="exponential factor underflows the float range"):
            compute()


def test_term_rule_overflow_is_a_value_error():
    # (w + 4000)^100 overflows complex ** in the coordinate factors of every rule
    z100, e = monomial(1, (100,)), exponential(1, d=[4000])
    for compute in (
        lambda: toeplitz_apply(e, z100),
        lambda: sharp(z100, e.conj()),
        lambda: berezin(z100 * e),
        lambda: berezin_inverse(z100 * e),
        lambda: normal_form(OpChain([e, z100])),
    ):
        with pytest.raises(ValueError, match="coefficient overflows the float range"):
            compute()


@st.composite
def _linear_case(draw):
    n = draw(st.integers(1, 3))
    mixed = [draw(_symbol(n, False)) for _ in range(2)]
    holo = [draw(_symbol(n, True)) for _ in range(4)]
    return mixed, holo, draw(_coefs), draw(_coefs)


@settings(max_examples=60, deadline=None)
@given(_linear_case())
def test_berezin_is_linear_and_sharp_is_sesquilinear(case):
    (s, t), (f1, f2, g1, g2), alpha, beta = case
    lhs = berezin(s.scale(alpha) + t.scale(beta))
    assert relative_residual(lhs, berezin(s).scale(alpha) + berezin(t).scale(beta)) <= 1e-12
    lhs = sharp(f1.scale(alpha) + f2.scale(beta), g1)
    assert relative_residual(lhs, sharp(f1, g1).scale(alpha) + sharp(f2, g1).scale(beta)) <= 1e-12
    lhs = sharp(f1, g1.scale(alpha) + g2.scale(beta))
    rhs = sharp(f1, g1).scale(alpha.conjugate()) + sharp(f1, g2).scale(beta.conjugate())
    assert relative_residual(lhs, rhs) <= 1e-12
    lhs = toeplitz_apply(s.scale(alpha) + t.scale(beta), f1)
    rhs = toeplitz_apply(s, f1).scale(alpha) + toeplitz_apply(t, f1).scale(beta)
    assert relative_residual(lhs, rhs) <= 1e-12
    lhs = toeplitz_apply(s, f1.scale(alpha) + f2.scale(beta))
    rhs = toeplitz_apply(s, f1).scale(alpha) + toeplitz_apply(s, f2).scale(beta)
    assert relative_residual(lhs, rhs) <= 1e-12


def test_leibniz_closed_form_matches_an_exact_derivation():
    """sum_k C(p, k) sign^(p-k) D^(p-k)[w^m exp(w e)] at w + s, over exp((w + s) e), times
    conj(w)^(tag + k), expanded exactly in w and conj(w), against _leibniz's closed form."""
    sympy = pytest.importorskip("sympy")
    w, wb = sympy.symbols("w wb")
    exact = {0: sympy.Integer(0), 0.5: sympy.Rational(1, 2), -1 + 1j / 3: -1 + sympy.I / 3}

    @functools.cache
    def derivative_at(m, q, e, s):
        """D^q[w^m exp(w e)] at w + s, over exp((w + s) e): a polynomial in w."""
        d = sympy.expand(sympy.diff(w**m * sympy.exp(w * e), w, q) * sympy.exp(-w * e))
        return sympy.Poly(sympy.powsimp(d).subs(w, w + s), w, wb)

    for m, p, (e, ee), (s, se), sign, tag in product(
        range(5), range(5), exact.items(), exact.items(), (1, -1), (0, 2)
    ):
        total = sum(
            derivative_at(m, p - k, ee, se) * (math.comb(p, k) * sign ** (p - k) * wb ** (tag + k))
            for k in range(p + 1)
        )
        want = {key: complex(coef) for key, coef in total.terms() if coef != 0}
        got = _leibniz({}, m, complex(e), p, complex(s), sign, tag)
        case = (m, p, e, s, sign, tag)
        assert got.keys() == want.keys(), case
        for key, x in want.items():
            assert abs(got[key] - x) <= 1e-13 * max(1.0, abs(x)), (case, key)
