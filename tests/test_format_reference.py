"""The text printer against its predecessor.

`reference_format` is a frozen copy of format_symbol as it was before the
printer took its monomial texts from a cache and its coefficient texts from
one %-format, and `reference_param_part` a frozen copy of the bisection that
found the shortest text of a parameter part on [1, 17] digits.  On every
symbol whose exponents stay within MAX_EXPONENT the texts must be equal byte
for byte.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fockcalc import berezin, format_symbol, sharp, toeplitz_apply
from fockcalc.dsl import _fmt_param_part
from fockcalc.suites import random_holo
from fockcalc.symbols import PARAM_MAX, PARAM_STEP, Symbol, SymbolTerm

# -- frozen reference ----------------------------------------------------------------

_FMT_DIGITS = 14


def _fmt_float(v: float) -> str:
    return f"{v:.{_FMT_DIGITS}g}"


def reference_param_part(v: float) -> str:
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
            parts.append(_fmt_product(v, f"z{k + 1}", reference_param_part))
    for k, v in enumerate(d):
        if v != 0:
            parts.append(_fmt_product(v, f"conj(z{k + 1})", reference_param_part))
    return _join_sum(parts)


def _fmt_product(coef: complex, factors_text: str, fmt=_fmt_float) -> str:
    if not factors_text:
        return _fmt_coef(coef, fmt)
    if coef == 1:
        return factors_text
    if coef == -1:
        return "-" + factors_text
    return _fmt_coef(coef, fmt) + "*" + factors_text


def reference_format(s: Symbol) -> str:
    if s.is_zero:
        return "0"
    parts = []
    for t in s.terms:
        factors = []
        for k, e in enumerate(t.a):
            if e == 1:
                factors.append(f"z{k + 1}")
            elif e > 1:
                factors.append(f"z{k + 1}^{e}")
        for k, e in enumerate(t.b):
            if e == 1:
                factors.append(f"conj(z{k + 1})")
            elif e > 1:
                factors.append(f"conj(z{k + 1})^{e}")
        if any(t.c) or any(t.d):
            factors.append(f"exp({_fmt_linear(t.c, t.d)})")
        parts.append(_fmt_product(t.coef, "*".join(factors)))
    return _join_sum(parts)


# -- the package's outputs -------------------------------------------------------------


def test_format_matches_reference_on_operation_outputs():
    rng = random.Random(0xF0F)
    for _ in range(4):
        for n in (1, 2, 3):
            f, g = random_holo(rng, n, 6), random_holo(rng, n, 6)
            for s in (f, g, berezin(f * g.conj()), sharp(f, g), toeplitz_apply(f + g.conj(), f)):
                assert format_symbol(s) == reference_format(s)


# -- drawn coefficients and parameters ------------------------------------------------

PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e-300, 1e300, 123456.789]),
    st.floats(-1e6, 1e6, allow_nan=False),
)
COEFS = st.one_of(
    st.sampled_from([1 + 0j, -1 + 0j, complex(1, -0.0), complex(-1, -0.0)]),
    st.builds(complex, PARTS, st.sampled_from([0.0, -0.0])),  # real
    st.builds(complex, st.sampled_from([0.0, -0.0]), PARTS),  # imaginary
    st.builds(complex, PARTS, PARTS),
)
#: parameter parts on the grid, from short decimals to every bit of a grid value
GRID_PARTS = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.1, -0.25, 4095.99, PARAM_MAX, -PARAM_MAX]),
    st.integers(-(2**52), 2**52).map(lambda k: k * PARAM_STEP),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.builds(
                SymbolTerm,
                COEFS,
                st.tuples(*[st.integers(0, 20)] * n),
                st.tuples(*[st.integers(0, 20)] * n),
                st.tuples(*[st.builds(complex, GRID_PARTS, GRID_PARTS)] * n),
                st.tuples(*[st.builds(complex, GRID_PARTS, GRID_PARTS)] * n),
            ),
            min_size=1,
            max_size=4,
        ).map(lambda terms, n=n: Symbol(n, terms))
    )
)
def test_format_matches_reference_on_drawn_symbols(s):
    assert format_symbol(s) == reference_format(s)


def test_param_part_matches_bisection():
    rng = random.Random(0x5EED)
    values = [1.0, 2.0**52, PARAM_STEP, 2.0**52 * PARAM_STEP, 0.1, 0.2, 0.5, 4095.99, 1234.5678]
    values += [float(f"{rng.randint(1, 10**k)}e-{rng.randint(0, 12)}") for k in range(1, 8)]
    values += [round(rng.uniform(-1, 1) / PARAM_STEP) * PARAM_STEP for _ in range(3000)]
    values += [rng.randint(1, 2**52) * PARAM_STEP for _ in range(3000)]
    values += [rng.randint(1, 2**20) * PARAM_STEP for _ in range(1000)]
    for v in values:
        for x in (v, -v):
            assert _fmt_param_part(x) == reference_param_part(x), x
