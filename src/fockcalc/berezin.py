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
anti-holomorphic symbols are fixed points.  The inverse is the same rule
at sign -1: d, c, exp(c.d) and j! become -d, -c, exp(-c.d) and (-1)^j j!.
Both are symbols._transform, its factor of coordinate k symbols._leibniz.

Berezin transforms of operator compositions go through kernel vectors
(K_zeta stays inside the holomorphic class), never matrix truncations.
"""

from __future__ import annotations

import cmath

from .symbols import Symbol, _as_cvector, _transform, kernel
from .toeplitz import OpChain


def berezin(s: Symbol) -> Symbol:
    """Berezin transform of a symbol, returned as a symbol in the same class."""
    return Symbol._of(s.n, *_transform(s._map.items(), 1))


def berezin_inverse(s: Symbol) -> Symbol:
    """The symbol u with berezin(u) = s, returned as a symbol in the same class."""
    return Symbol._of(s.n, *_transform(s._map.items(), -1))


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
