"""Toeplitz actions against their pair-loop predecessor.

`reference_toeplitz_apply` is a frozen copy of toeplitz_apply as it was
when it expanded the term rule once per pair of a symbol term and an input
term, per call, and canonicalized the result.  The package still loops over
the pairs, but with the input's terms outside, the symbol's factors memoized
and each multiplier term as one item; the coefficients of one key add up in
another order, so the two agree to rounding, not bit for bit.  Parameters lie on a grid of eighths, so their sums are exact and the
keys agree exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from fockcalc.indices import mi_enumerate, mi_factorial
from fockcalc.symbols import (
    Symbol,
    SymbolTerm,
    _derivative_at,
    _exp_factor,
    _in_range,
    monomial,
    relative_residual,
)
from fockcalc.toeplitz import OpChain, basis_images, toeplitz_apply

# -- frozen reference ----------------------------------------------------------------


def reference_toeplitz_apply(phi: Symbol, u: Symbol) -> Symbol:
    """toeplitz_apply as a loop over the pairs of terms of phi and u."""
    if phi.n != u.n:
        raise ValueError(f"dimension mismatch: {phi.n} vs {u.n}")
    if not u.is_holomorphic:
        raise ValueError("toeplitz_apply acts on holomorphic symbols only")
    czero = (0j,) * phi.n
    items = []
    for (a, b, c, d), x in phi._map.items():
        for (ua, _, uc, _), y in u._map.items():
            e = tuple(p + q for p, q in zip(c, uc))
            _in_range(e)
            # the tensor product of the coordinates' factors, one item per choice
            acc = [(x * y * _exp_factor(d, e), (), ())]
            for ak, sk, ek, bk, dk in zip(a, ua, e, b, d):
                f = _derivative_at({}, ak + sk, ek, bk, dk)
                acc = [(w * v, i + (p,), j + (q,)) for w, i, j in acc for (p, q), v in f.items()]
            items += [((i, j, e, czero), w) for w, i, j in acc]
    out = Symbol(phi.n, [SymbolTerm(w, *key) for key, w in items])
    if not out.is_holomorphic:
        raise ValueError("toeplitz_apply produced a non-holomorphic result")
    return out


def reference_chain_apply(chain: OpChain, u: Symbol) -> Symbol:
    for phi in reversed(chain.symbols):
        u = reference_toeplitz_apply(phi, u)
    return u


# -- random chains -----------------------------------------------------------------------

TOL = 1e-12

_eighths = st.integers(-8, 8).map(lambda k: k / 8)
_coefs = st.tuples(_eighths, _eighths).map(lambda p: complex(*p)).filter(bool)
_params = st.tuples(_eighths, _eighths).map(lambda p: complex(*p)).filter(lambda x: abs(x) <= 1)


@st.composite
def _symbol(draw, n, holomorphic):
    """Up to three terms; a mixed symbol may carry conj(z) powers and conj(z) exponentials."""
    zero = (0,) * n
    czero = (0j,) * n
    expo = st.tuples(*[st.integers(0, 2)] * n)
    vec = st.tuples(*[_params] * n)
    raw = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(vec) if draw(st.booleans()) else czero
        if holomorphic:
            raw.append(SymbolTerm(draw(_coefs), draw(expo), zero, c, czero))
        else:
            d = draw(vec) if draw(st.booleans()) else czero
            raw.append(SymbolTerm(draw(_coefs), draw(expo), draw(expo), c, d))
    return Symbol(n, raw)


@st.composite
def _chain_case(draw):
    n = draw(st.integers(1, 3))
    chain = OpChain([draw(_symbol(n, False)) for _ in range(draw(st.integers(1, 3)))])
    return chain, draw(_symbol(n, True))


@settings(max_examples=40, deadline=None)
@given(_chain_case())
def test_columns_match_the_pair_loop(case):
    chain, u = case
    for phi in chain.symbols:
        assert relative_residual(toeplitz_apply(phi, u), reference_toeplitz_apply(phi, u)) <= TOL
    assert relative_residual(chain.apply(u), reference_chain_apply(chain, u)) <= TOL
    n = chain.n
    degree = {1: 3, 2: 2, 3: 1}[n]
    images = list(basis_images(chain, degree))
    assert [alpha for alpha, _ in images] == mi_enumerate(n, degree)
    for alpha, image in images:
        e = monomial(n, alpha, coef=1.0 / mi_factorial(alpha) ** 0.5)
        assert relative_residual(image, reference_chain_apply(chain, e)) <= TOL
