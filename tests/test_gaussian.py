import cmath
import math
import random

import pytest

from fockcalc.gaussian import fock_inner, gaussian_moment, symbol_integral
from fockcalc.indices import mi_enumerate, mi_factorial
from fockcalc.oracle import quad_integral
from fockcalc.symbols import exponential, kernel, monomial, zero


def moment_symbol(a, b, lam, mu):
    n = len(a)
    return monomial(n, a, b=b) * exponential(n, c=lam, d=mu)


def test_moment_trivial_normalization():
    assert gaussian_moment((0,), (0,)) == 1


def test_moment_examples_against_quadrature():
    # expected values frozen after computing them with the quadrature oracle
    cases = [
        ((1,), (1,), None, None, 1.0),
        ((2,), (2,), None, None, 2.0),
        ((0,), (0,), (0.3,), (0.7 - 0.2j,), cmath.exp(0.21 - 0.06j)),
    ]
    for a, b, lam, mu, expected in cases:
        closed = gaussian_moment(a, b, lam, mu)
        assert abs(closed - expected) < 1e-12
        quad = quad_integral(moment_symbol(a, b, lam or (0,), mu or (0,)))
        assert abs(closed - quad) < 1e-8


def test_moment_exponent_cap():
    with pytest.raises(ValueError):
        gaussian_moment((21,), (0,))


def test_moment_rejects_a_value_beyond_the_float_range():
    with pytest.raises(ValueError, match="exponential factor overflows"):
        gaussian_moment((0,), (0,), (4000,), (4000,))
    # a finite exp(lam.mu) times a product that leaves the range
    with pytest.raises(ValueError, match="moment overflows"):
        gaussian_moment((20,) * 20, (0,) * 20, (0,) * 20, (4000,) * 20)


def test_integral_and_inner_reject_a_total_beyond_the_float_range():
    # each moment is finite (20! = 2.4e18), and so is each coefficient
    big = monomial(1, (20,), coef=1e300)
    with pytest.raises(ValueError, match="integral overflows the float range"):
        symbol_integral(big * monomial(1, (0,), b=(20,)))
    with pytest.raises(ValueError, match="inner product overflows the float range"):
        fock_inner(big, big)


def test_moment_dimension_mismatch():
    with pytest.raises(ValueError):
        gaussian_moment((1, 0), (1,))


def test_moment_conjugate_symmetry():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 3)
        a = tuple(rng.randint(0, 4) for _ in range(n))
        b = tuple(rng.randint(0, 4) for _ in range(n))
        lam = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n))
        mu = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n))
        lhs = gaussian_moment(a, b, lam, mu).conjugate()
        rhs = gaussian_moment(
            b, a, tuple(x.conjugate() for x in mu), tuple(x.conjugate() for x in lam)
        )
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_moment_matches_quadrature_batch():
    rng = random.Random(9)
    worst = 0.0
    for _ in range(25):
        a = (rng.randint(0, 6),)
        b = (rng.randint(0, 6),)
        lam = (complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)),)
        mu = (complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)),)
        closed = gaussian_moment(a, b, lam, mu)
        quad = quad_integral(moment_symbol(a, b, lam, mu))
        worst = max(worst, abs(closed - quad))
    assert worst < 1e-6


def test_symbol_integral_is_termwise():
    s = monomial(1, (1,), b=(1,)) + 3
    assert abs(symbol_integral(s) - 4) < 1e-14


def test_inner_monomial_orthogonality():
    for n in (1, 2, 3):
        basis = [a for a in mi_enumerate(n, 6 if n == 1 else 4)]
        for alpha in basis:
            for beta in basis:
                got = fock_inner(monomial(n, alpha), monomial(n, beta))
                expected = mi_factorial(alpha) if alpha == beta else 0.0
                assert abs(got - expected) < 1e-12 * max(1.0, abs(expected))


def test_inner_z2_squared_norm():
    # frozen from the quadrature oracle; equals 2! for the monomial z^2
    assert abs(fock_inner(monomial(1, (2,)), monomial(1, (2,))) - 2) < 1e-14
    quad = quad_integral(monomial(1, (2,)) * monomial(1, (2,)).conj())
    assert abs(quad - 2) < 1e-8


def test_inner_reproduces_kernels():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(1, 3)
        p = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n))
        q = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n))
        got = fock_inner(kernel(p), kernel(q))
        expected = cmath.exp(sum(x * y.conjugate() for x, y in zip(q, p)))
        assert abs(got - expected) < 1e-12 * abs(expected)
        assert abs(got - kernel(p).eval(q)) < 1e-12 * abs(expected)


def test_inner_reproducing_property_on_polynomials():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(1, 2)
        f = zero(n)
        for _ in range(4):
            a = tuple(rng.randint(0, 3) for _ in range(n))
            f = f + monomial(n, a, coef=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        w = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n))
        assert abs(fock_inner(f, kernel(w)) - f.eval(w)) < 1e-10


def test_inner_positivity_and_symmetry():
    rng = random.Random(19)
    for _ in range(15):
        n = rng.randint(1, 2)
        f = monomial(n, tuple(rng.randint(0, 3) for _ in range(n)), coef=rng.uniform(0.2, 1)) + (
            exponential(n, c=[rng.uniform(-0.5, 0.5) for _ in range(n)])
        )
        g = monomial(n, tuple(rng.randint(0, 3) for _ in range(n)), coef=1j)
        ff = fock_inner(f, f)
        assert abs(ff.imag) < 1e-12 * max(1.0, abs(ff))
        assert ff.real > 0
        assert abs(fock_inner(f, g) - fock_inner(g, f).conjugate()) < 1e-12


def test_inner_guards():
    with pytest.raises(ValueError):
        fock_inner(monomial(1, (1,)), monomial(2, (1, 0)))
    with pytest.raises(ValueError):
        fock_inner(monomial(1, (1,)).conj(), monomial(1, (1,)))
