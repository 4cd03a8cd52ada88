"""The sharp product: apply g-reflected in (conj(z) - d/dz) to f.

For holomorphic f and g this builds the unique symbol u with Berezin
transform f * conj(g), u = B^-1(f * conj(g)); it is also the exact symbol of
the operator product T_f T_conj(g).

Per g-term gamma * w^i * exp(w.r) the operator is conj(gamma) * (zbar - D)^i
* exp((zbar - D) . conj(r)), with D the Wirtinger z-derivative and zbar the
multiplication by conj(z).  Its components commute, so on an f-term
z^m exp(z.c) it gives, with q = conj(r), the Berezin rule of
z^m conj(z)^i exp(z.c + conj(z).q) at sign -1:

    conj(gamma) * exp(-q.c) * exp(z.c + conj(z).q)
        * prod_k sum_j (-1)^j C(m_k,j) C(i_k,j) j! (z-q)_k^{m_k-j} (conj(z)-c)_k^{i_k-j}

This is berezin_inverse of f * conj(g) (symbols._transform at sign -1),
fed the term pairs unmerged, so no rounded sum of f * conj(g) enters it.
Sums of pairs (f_l, g_l) are handled by caller-side linearity.
"""

from __future__ import annotations

from .symbols import Symbol, _transform


def sharp(f: Symbol, g: Symbol) -> Symbol:
    """Sharp product of holomorphic symbols: g-reflected(conj(z) - D) applied to f."""
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
    if not (f.is_holomorphic and g.is_holomorphic):
        raise ValueError("sharp is defined for holomorphic symbols only")
    # the term pairs of f * conj(g), g outer, unmerged: merging would round their sums
    pairs = (
        ((fa, ga, fc, q), gamma * fcoef)
        for (ga, _, gc, _), gcoef in g._map.items()
        for gamma, q in [(gcoef.conjugate(), tuple(x.conjugate() + 0j for x in gc))]
        for (fa, _, fc, _), fcoef in f._map.items()
    )
    return Symbol._of(f.n, *_transform(pairs, -1))
