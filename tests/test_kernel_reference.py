"""The grouped term-rule kernel against the flat one it replaced, bit for bit.

The package merges the results of its term rules per exponential group,
{(c, d): {(a, b): coef}}, and builds each full key once when it finishes the
map.  The reference below is the flat kernel that merged every summand under its
full key (a, b, c, d) and ordered the finished map by bucketing its keys per
monomial.  Both add the summands of one key in the same order, so each map
must agree with the reference in its keys, their order and the bits of every
coefficient (signed zeros included); a tolerance could not see a change of
summation order.  Normal forms are finished as every other map is, so they
are canonical: a one-symbol chain's form is berezin's map of its symbol, and
Symbol._of keeps every form's order as it is.  The inputs carry two or three
exponential groups that share monomials, with coefficients and parameters on
eighths, so that keys merge, sums of parameters collide, and some sums
cancel to noise.
"""

import math
from itertools import product
from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

from fockcalc import OpChain, berezin, berezin_inverse, normal_form, sharp, toeplitz_apply
from fockcalc.symbols import Symbol, SymbolTerm, _checked, _derivative_at, _drop_noise
from fockcalc.symbols import _exp_factor, _factors, _in_range, _leibniz, _vec_sort_key
from fockcalc.toeplitz import _compose_factor

# -- the flat kernel -------------------------------------------------------------


def ref_merge(out, mass, items):
    for key, x in items:
        y = out.get(key)
        if y is None:
            out[key] = x
        else:
            out[key] = y + x
            try:
                mass[key] = mass.get(key, abs(y)) + abs(x)
            except OverflowError:
                mass[key] = math.inf
    return out


def _ab_sort_key(ab):
    return (-sum(ab[0]) - sum(ab[1]), ab)


def _param_sort_key(key):
    return (_vec_sort_key(key[2]), _vec_sort_key(key[3]))


def ref_canonical_order(m):
    if len(m) < 2:
        return [key for key, x in m.items() if x]
    by_ab = {}
    for key, x in m.items():
        if x:
            by_ab.setdefault(key[:2], []).append(key)
    out = []
    for ab in sorted(by_ab, key=_ab_sort_key, reverse=True) if len(by_ab) > 1 else by_ab:
        keys = by_ab[ab]
        if len(keys) > 1:
            keys.sort(key=_param_sort_key)
        out += keys
    return out


def ref_finish(m, mass):
    m = _drop_noise(_checked(m), mass)
    order = ref_canonical_order(m)
    return m if order == list(m) else {key: m[key] for key in order}


def ref_expand(out, mass, coef, factors, c, d):
    acc = [(coef, (), ())]
    for f in factors:
        acc = [(w * x, a + (i,), b + (j,)) for w, a, b in acc for (i, j), x in f.items()]
    ref_merge(out, mass, [((a, b, c, d), w) for w, a, b in acc])


def ref_transform(items, sign):
    out, mass, memo = {}, {}, {}
    for (a, b, c, d), x in items:
        sd = d if sign > 0 else tuple(-y for y in d)
        x *= _exp_factor(c, sd)
        if not (any(b) or any(d)) or not (any(a) or any(c)):
            ref_merge(out, mass, [((a, b, c, d), x)])
        else:
            ref_expand(out, mass, x, _factors(memo, _leibniz, zip(a, c, b, sd), sign, 0), c, d)
    return out, mass


# -- the package's operations on the flat kernel ---------------------------------------


def ref_sharp(f, g):
    pairs = (
        ((fa, ga, fc, q), gamma * fcoef)
        for (ga, _, gc, _), gcoef in g._map.items()
        for gamma, q in [(gcoef.conjugate(), tuple(x.conjugate() + 0j for x in gc))]
        for (fa, _, fc, _), fcoef in f._map.items()
    )
    return ref_finish(*ref_transform(pairs, -1))


def ref_toeplitz_apply(phi, u):
    czero = (0j,) * phi.n
    out, mass, factors = {}, {}, {}
    for (ua, _, uc, _), y in u._map.items():
        for (a, b, c, d), x in phi._map.items():
            e = _in_range(tuple(map(add, c, uc)))
            if not (any(b) or any(d)):
                ref_merge(out, mass, [((tuple(map(add, a, ua)), b, e, czero), x * y)])
                continue
            coordinate_factors = _factors(factors, _derivative_at, zip(map(add, a, ua), e, b, d))
            ref_expand(out, mass, x * y * _exp_factor(d, e), coordinate_factors, e, czero)
    return ref_finish(out, mass)


def ref_shift(s, eta):
    meta = tuple(-complex(e) for e in eta)
    zero, czero = (0,) * s.n, (0j,) * s.n
    out, mass, memo = {}, {}, {}
    for (a, _, c, _), x in s._map.items():
        factors = _factors(memo, _derivative_at, zip(a, czero, zero, meta))
        ref_expand(out, mass, x * _exp_factor(meta, c), factors, c, czero)
    return ref_finish(out, mass)


def ref_compose(pairs, memo):
    out, mass = {}, {}
    for ((a, beta, c, d), x), ((a2, gamma, c2, e), y) in pairs:
        params = _in_range(tuple(map(add, c, c2))), _in_range(tuple(map(add, d, e)))
        if not (any(beta) or any(d)) or not (any(a2) or any(c2)):
            key = tuple(map(add, a, a2)), tuple(map(add, beta, gamma)), *params
            ref_merge(out, mass, [(key, x * y)])
            continue
        factors = _factors(memo, _compose_factor, zip(a, a2, c2, beta, d, gamma))
        ref_expand(out, mass, x * y * _exp_factor(d, c2), factors, *params)
    return ref_finish(out, mass)


def ref_normal_form(*chains):
    out, mass, memo = {}, {}, {}
    for chain in chains:
        form = None
        for phi in reversed(chain.symbols):
            own = ref_finish(*ref_transform(phi._map.items(), 1))
            form = own if form is None else ref_compose(product(own.items(), form.items()), memo)
        ref_merge(out, mass, form.items())
    return ref_finish(out, mass)


# -- inputs ------------------------------------------------------------------------

_eighths = st.integers(-8, 8).map(lambda k: k / 8)
_coefs = st.tuples(_eighths, _eighths).map(lambda p: complex(*p)).filter(bool)
# few parameter values, so that sums of two groups' parameters meet a third group's
_params = st.sampled_from([0j, 0.125 + 0j, 0.125j, -0.125 + 0j, 0.25 - 0.125j])


@st.composite
def _symbol(draw, n, holomorphic):
    """A symbol of two or three exponential groups whose terms share a few monomials."""
    zero = (0,) * n
    czero = (0j,) * n
    vec = st.tuples(*[_params] * n)
    groups = draw(
        st.lists(st.tuples(vec, st.just(czero) if holomorphic else vec), min_size=2, max_size=3)
    )
    expo = st.tuples(*[st.integers(0, 2)] * n)
    monomials = draw(
        st.lists(st.tuples(expo, st.just(zero) if holomorphic else expo), min_size=1, max_size=3)
    )
    terms = st.tuples(_coefs, st.sampled_from(monomials), st.sampled_from(groups))
    raw = draw(st.lists(terms, min_size=2, max_size=7))
    return Symbol(n, [SymbolTerm(x, a, b, c, d) for x, (a, b), (c, d) in raw])


@st.composite
def _case(draw):
    n = draw(st.integers(1, 3))
    phi, psi = draw(_symbol(n, False)), draw(_symbol(n, False))
    f, g = draw(_symbol(n, True)), draw(_symbol(n, True))
    eta = draw(st.tuples(*[st.builds(complex, _eighths, _eighths)] * n))
    return phi, psi, f, g, eta


def _same(got: dict, ref: dict) -> None:
    assert repr(list(got.items())) == repr(list(ref.items()))


@settings(max_examples=80, deadline=None)
@given(_case())
def test_grouped_kernel_reproduces_the_flat_kernel_bit_for_bit(case):
    phi, psi, f, g, eta = case
    _same(berezin(phi)._map, ref_finish(*ref_transform(phi._map.items(), 1)))
    _same(berezin_inverse(phi)._map, ref_finish(*ref_transform(phi._map.items(), -1)))
    _same(berezin(phi * psi)._map, ref_finish(*ref_transform((phi * psi)._map.items(), 1)))
    _same(sharp(f, g)._map, ref_sharp(f, g))
    _same(toeplitz_apply(phi, f + g)._map, ref_toeplitz_apply(phi, f + g))
    _same(f.shift(eta)._map, ref_shift(f, eta))
    chains = [OpChain([phi])]
    if phi.n < 3:  # a two-symbol form at n = 3 grows to thousands of entries
        chains += [OpChain([phi, psi]), OpChain([psi, f + g.conj()])]
    assert repr(normal_form(chains[0])) == repr(berezin(phi)._map)
    forms = [(normal_form(chain), ref_normal_form(chain)) for chain in chains]
    forms.append((normal_form(*chains), ref_normal_form(*chains)))
    for form, ref in forms:
        _same(form, ref)
        assert list(form) == list(Symbol._of(phi.n, dict(form))._map)
