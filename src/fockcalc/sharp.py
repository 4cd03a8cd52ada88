"""The sharp product: apply g-reflected in (conj(z) - d/dz) to f.

For holomorphic f and g this builds the unique symbol u with Berezin
transform f * conj(g); it is also the exact symbol of the operator
product T_f T_conj(g).

Per g-term gamma * w^i * exp(w.r), the operator factorizes as

    conj(gamma) * (zbar - D)^i * exp((zbar - D) . conj(r))

where D is the Wirtinger z-derivative and zbar the multiplication by
conj(z).  All the operator components commute, so

  * the exponential factor acts first as exp(zbar.conj(r)) times the
    argument shift z |-> z - conj(r), and
  * (zbar - D)^i expands by the commuting-binomial identity
    sum_{l <= i} C(i,l) zbar^l (-D)^{i-l}.

On each term of f this factors over the coordinates, so sharp expands it
per term pair and coordinate (the shift and each D^{i-l} as binomial sums,
memoized per call) into the one merged result.  Sums of pairs (f_l, g_l)
are handled by caller-side linearity.
"""

from __future__ import annotations

from .symbols import Symbol, _exp_factor, _expand, _factors, _leibniz


def sharp(f: Symbol, g: Symbol) -> Symbol:
    """Sharp product of holomorphic symbols: g-reflected(conj(z) - D) applied to f."""
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
    if not (f.is_holomorphic and g.is_holomorphic):
        raise ValueError("sharp is defined for holomorphic symbols only")
    out, mass, memo = {}, {}, {}
    for (ga, _, gc, _), gcoef in g._map.items():
        gamma = gcoef.conjugate()
        q = tuple(x.conjugate() for x in gc)
        mq = tuple(-x for x in q)
        for (fa, _, fc, _), fcoef in f._map.items():
            factors = _factors(memo, _leibniz, zip(fa, fc, ga, mq), -1, 0)
            _expand(out, mass, gamma * fcoef * _exp_factor(mq, fc), factors, fc, q)
    return Symbol._of(f.n, out, mass)
