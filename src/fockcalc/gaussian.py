"""Closed-form Gaussian moments and the Fock-space inner product.

Everything here reduces to the one moment formula

    integral of z^a conj(z)^b exp(z.lam + conj(z).mu) d(gaussian)
        = exp(lam.mu) * prod_k sum_j C(a_k,j) C(b_k,j) j! mu_k^{a_k-j} lam_k^{b_k-j}

which is what repeated differentiation of exp(lam.mu) in lam and mu
produces.  The measure is the normalized Gaussian on C^n; lam.mu is
bilinear (no conjugation) -- conjugation responsibilities sit with the
callers, e.g. fock_inner conjugates the second argument's data.

Moments are never computed by quadrature on the main path; the quadrature
in `fockcalc.oracle` exists only as an independent cross-check.
"""

from __future__ import annotations

import cmath
import math

from .indices import MAX_EXPONENT, as_multi_index
from .symbols import Symbol, _as_cvector, _exp_factor, _snap


def gaussian_moment(a, b, lam=None, mu=None) -> complex:
    """Moment of z^a conj(z)^b exp(z.lam + conj(z).mu) against the Gaussian.

    lam and mu are snapped to the parameter grid; ValueError if the moment overflows.
    """
    a = as_multi_index(a)
    b = as_multi_index(b)
    n = len(a)
    if len(b) != n:
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    if any(k > MAX_EXPONENT for k in a) or any(k > MAX_EXPONENT for k in b):
        raise ValueError(f"exponent above {MAX_EXPONENT}; exact-arithmetic cap exceeded")
    lam = _snap(_as_cvector(lam, n))
    mu = _snap(_as_cvector(mu, n))

    out = _exp_factor(lam, mu)
    for ak, bk, lk, mk in zip(a, b, lam, mu):
        s = 0j
        for j in range(min(ak, bk) + 1):
            s += (
                math.comb(ak, j)
                * math.comb(bk, j)
                * math.factorial(j)
                * mk ** (ak - j)
                * lk ** (bk - j)
            )
        out *= s
    if not cmath.isfinite(out):
        raise ValueError("moment overflows the float range")
    return out


def symbol_integral(s: Symbol) -> complex:
    """Exact Gaussian integral of a symbol (termwise moments)."""
    return sum((x * gaussian_moment(*key) for key, x in s._map.items()), 0j)


def fock_inner(f: Symbol, g: Symbol) -> complex:
    """Fock-space inner product <f, g> of two holomorphic symbols."""
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
    if not (f.is_holomorphic and g.is_holomorphic):
        raise ValueError("fock_inner is defined for holomorphic symbols only")
    total = 0j
    for (a, _, c, _), x in f._map.items():
        for (a2, _, c2, _), y in g._map.items():
            total += x * y.conjugate() * gaussian_moment(a, a2, c, tuple(v.conjugate() for v in c2))
    return total
