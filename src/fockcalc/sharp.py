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
per term pair and coordinate (the shift and each D^{i-l} as binomial sums)
and canonicalizes the result once.  Sums of pairs (f_l, g_l) are handled
by caller-side linearity.
"""

from __future__ import annotations

import math

from .symbols import Symbol, _derivative_at, _exp_factor, _expand


def sharp(f: Symbol, g: Symbol) -> Symbol:
    """Sharp product of holomorphic symbols: g-reflected(conj(z) - D) applied to f."""
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
    if not (f.is_holomorphic and g.is_holomorphic):
        raise ValueError("sharp is defined for holomorphic symbols only")
    items = []
    for (ga, _, gc, _), gcoef in g._map.items():
        gamma = gcoef.conjugate()
        q = tuple(x.conjugate() for x in gc)
        mq = tuple(-x for x in q)
        for (fa, _, fc, _), fcoef in f._map.items():
            factors = []
            for ik, ak, ck, sk in zip(ga, fa, fc, mq):
                fk = {}
                for l in range(ik + 1):
                    weight = (-1) ** (ik - l) * math.comb(ik, l)
                    _derivative_at(fk, ak, ck, ik - l, sk, weight, l)
                factors.append(fk)
            _expand(items, gamma * fcoef * _exp_factor(mq, fc), factors, fc, q)
    return Symbol._of(f.n, items)
