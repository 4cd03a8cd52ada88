"""The moment formula against exact derivatives of its generating function.

integral of z^a conj(z)^b exp(lam.z + mu.conj(z)) d(gaussian)
    = prod_k d^{a_k}/d lam_k^{a_k} d^{b_k}/d mu_k^{b_k} exp(lam_k mu_k)

Quadrature reaches only n <= 2 and shares the per-coordinate factorization
with the closed form, so this checks gaussian_moment and symbol_integral at
n = 1, 2, 3 with sympy instead.  Parameters are dyadic, k/8 + i l/8, so the
floats the package sees and the rationals sympy sees are the same numbers.
"""

import random
from functools import lru_cache

import pytest

from fockcalc.gaussian import gaussian_moment, symbol_integral
from fockcalc.symbols import exponential, monomial, zero

sympy = pytest.importorskip("sympy")

LAM, MU = sympy.symbols("lam mu")
DIGITS = 30


@lru_cache(maxsize=None)
def _derivative(a: int, b: int):
    return sympy.diff(sympy.exp(LAM * MU), LAM, a, MU, b)


def _dyadic(rng):
    return sympy.Rational(rng.randint(-12, 12), 8) + sympy.I * sympy.Rational(rng.randint(-12, 12), 8)


def _draw(rng, n):
    """Exponents and exact parameters of one moment."""
    a = tuple(rng.randint(0, 6) for _ in range(n))
    b = tuple(rng.randint(0, 6) for _ in range(n))
    lam = [_dyadic(rng) for _ in range(n)]
    mu = [_dyadic(rng) for _ in range(n)]
    return a, b, lam, mu


def _exact(a, b, lam, mu) -> complex:
    out = sympy.Integer(1)
    for ak, bk, lk, mk in zip(a, b, lam, mu):
        out *= _derivative(ak, bk).subs({LAM: lk, MU: mk})
    return complex(sympy.N(out, DIGITS))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gaussian_moment_matches_the_generating_function(n):
    rng = random.Random(40 + n)
    for _ in range(30):
        a, b, lam, mu = _draw(rng, n)
        exact = _exact(a, b, lam, mu)
        value = gaussian_moment(a, b, [complex(x) for x in lam], [complex(x) for x in mu])
        assert abs(value - exact) <= 1e-13 * abs(exact)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symbol_integral_matches_the_generating_function(n):
    # termwise, so the scale of the rounding is the sum of the terms' moduli
    rng = random.Random(50 + n)
    for _ in range(10):
        s, exact, scale = zero(n), 0j, 0.0
        for _ in range(rng.randint(1, 4)):
            a, b, lam, mu = _draw(rng, n)
            coef = complex(_dyadic(rng))
            s = s + monomial(n, a, b=b, coef=coef) * exponential(
                n, c=[complex(x) for x in lam], d=[complex(x) for x in mu]
            )
            term = coef * _exact(a, b, lam, mu)
            exact += term
            scale += abs(term)
        assert abs(symbol_integral(s) - exact) <= 1e-13 * scale
