"""The Berezin transform as an exact symbol-to-symbol map.

For a term coef * z^a * conj(z)^b * exp(z.c + conj(z).d) the transform at
zeta is the Gaussian moment with shifted exponential parameters
(c + conj(zeta), d + zeta); after cancelling exp(-|zeta|^2) against the
exp(conj(zeta).zeta) inside the moment, the output is again a symbol in
zeta:

    coef * exp(c.d)
         * prod_k sum_j C(a_k,j) C(b_k,j) j! (zeta+d)_k^{a_k-j} (conj(zeta)+c)_k^{b_k-j}
         * exp(zeta.c + conj(zeta).d)

so the polynomial-times-exponential class is invariant and fixed-point
statements become exact symbol equalities.  Holomorphic and
anti-holomorphic symbols are fixed points.

Berezin transforms of operator compositions go through kernel vectors
(K_zeta stays inside the holomorphic class), never matrix truncations.
"""

from __future__ import annotations

import cmath
import math

from .symbols import Symbol, SymbolTerm, _as_cvector, constant, exponential, kernel
from .toeplitz import OpChain


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


def berezin(s: Symbol) -> Symbol:
    """Berezin transform of a symbol, returned as a symbol in the same class."""
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


def operator_berezin(chain: OpChain, zeta) -> complex:
    """Berezin transform of a composition of Toeplitz operators at a point.

    Computed as exp(-|zeta|^2) times the chain applied to the kernel vector
    K_zeta, evaluated back at zeta; equals the transform of the composed
    operator against the normalized kernel.
    """
    zeta = _as_cvector(zeta, chain.n)
    u = chain.apply(kernel(zeta))
    norm2 = sum(abs(z) ** 2 for z in zeta)
    return cmath.exp(-norm2) * u.eval(zeta)
