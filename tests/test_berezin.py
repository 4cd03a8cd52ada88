import math
import random

import pytest

from fockcalc.berezin import berezin, operator_berezin
from fockcalc.indices import MAX_EXPONENT
from fockcalc.oracle import quad_integral
from fockcalc.sharp import sharp
from fockcalc.suites import random_holo, unit_disc
from fockcalc.symbols import coordinate, exponential, monomial, relative_residual
from fockcalc.toeplitz import OpChain

ONES2 = (1 + 0j, 1 + 0j)


def test_holomorphic_fixed_point():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(1, 3)
        f = random_holo(rng, n, 4, exp_prob=0.6)
        assert relative_residual(berezin(f), f) <= 1e-12
        assert relative_residual(berezin(f.conj()), f.conj()) <= 1e-12


def test_zzbar_gains_unit():
    s = coordinate(1, 1) * coordinate(1, 1).conj()
    assert relative_residual(berezin(s), s + 1) == 0.0


def test_mixed_monomial_keeps_every_term():
    # B(z^k conj(z)^k) = sum_j C(k,j)^2 j! z^(k-j) conj(z)^(k-j); the leading
    # coefficient 1 is far below k! but is no cancellation noise
    for k in range(MAX_EXPONENT + 1):
        got = berezin(monomial(1, (k,), b=(k,)))
        assert [(t.a, t.b) for t in got.terms] == [((i,), (i,)) for i in range(k + 1)]
        for t in got.terms:
            j = k - t.a[0]
            assert t.coef == pytest.approx(math.comb(k, j) ** 2 * math.factorial(j), rel=1e-15)


def test_zzbar_matches_quadrature_at_points():
    s = coordinate(1, 1) * coordinate(1, 1).conj()
    bs = berezin(s)
    rng = random.Random(3)
    for _ in range(4):
        zeta = unit_disc(rng)
        weight = exponential(1, c=[zeta.conjugate()], d=[zeta])
        quad = math.exp(-abs(zeta) ** 2) * quad_integral(s * weight)
        assert abs(bs.eval([zeta]) - quad) < 1e-8


def test_exponential_shift_solution():
    # u = conj(g(z - ones)) * exp(z.ones) transforms to exp(zeta.ones) * conj(g)
    rng = random.Random(5)
    g = random_holo(rng, 2, 3, exp_prob=0.0)
    e1 = exponential(2, c=ONES2)
    u = g.shift(ONES2).conj() * e1
    assert relative_residual(berezin(u), e1 * g.conj()) <= 1e-12


def test_linearity():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 2)
        s = random_holo(rng, n, 3) * random_holo(rng, n, 2).conj()
        t = random_holo(rng, n, 3).conj()
        alpha, beta = unit_disc(rng), unit_disc(rng)
        lhs = berezin(s.scale(alpha) + t.scale(beta))
        rhs = berezin(s).scale(alpha) + berezin(t).scale(beta)
        assert relative_residual(lhs, rhs) <= 1e-12


def test_conjugation_commutes():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 2)
        s = random_holo(rng, n, 3) * random_holo(rng, n, 2).conj()
        assert relative_residual(berezin(s.conj()), berezin(s).conj()) <= 1e-12


def test_sharp_round_trip_flagship():
    rng = random.Random(0xF0CC)
    for j in range(24):
        n = 1 + j % 3
        f = random_holo(rng, n, 4, max_terms=2, exp_prob=0.7, blocks=3)
        g = random_holo(rng, n, 4, max_terms=2, exp_prob=0.7, blocks=3)
        assert relative_residual(berezin(sharp(f, g)), f * g.conj()) <= 1e-9


def test_pointwise_quadrature_consistency():
    rng = random.Random(13)
    worst = 0.0
    for _ in range(5):
        s = random_holo(rng, 1, 3, exp_prob=1.0) * random_holo(rng, 1, 2).conj()
        zeta = unit_disc(rng)
        weight = exponential(1, c=[zeta.conjugate()], d=[zeta])
        quad = math.exp(-abs(zeta) ** 2) * quad_integral(s * weight)
        worst = max(worst, abs(berezin(s).eval([zeta]) - quad))
    assert worst < 1e-5


def test_empirical_injectivity_support():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 3)
        s = random_holo(rng, n, 3) * random_holo(rng, n, 2).conj()
        assert not s.is_zero
        assert not berezin(s).is_zero


def test_operator_berezin_single_holomorphic():
    rng = random.Random(19)
    f = random_holo(rng, 2, 3, exp_prob=0.5)
    zeta = (0.3 - 0.2j, 0.1 + 0.4j)
    got = operator_berezin(OpChain([f]), zeta)
    assert abs(got - f.eval(zeta)) < 1e-10 * max(1.0, abs(f.eval(zeta)))


def test_operator_berezin_ordering_gap():
    z = coordinate(1, 1)
    zeta = (0.6 + 0.1j,)
    forward = operator_berezin(OpChain([z, z.conj()]), zeta)
    backward = operator_berezin(OpChain([z.conj(), z]), zeta)
    zz = abs(zeta[0]) ** 2
    assert abs(forward - zz) < 1e-12
    assert abs(backward - (zz + 1)) < 1e-12
    assert abs((backward - forward) - 1) < 1e-12


def test_operator_berezin_mixed_exponential_chain():
    # chain [exp(z.ones), conj(exp((z+ones).ones))] agrees with the Berezin
    # transform of exp(z.ones + conj(z).ones)
    for n in (1, 2):
        ones = (1 + 0j,) * n
        f = exponential(n, c=ones)
        v = exponential(n, c=ones, coef=math.exp(n))
        h = exponential(n, c=ones, d=ones)
        zeta = tuple(0.2 - 0.3j for _ in range(n))
        got = operator_berezin(OpChain([f, v.conj()]), zeta)
        expected = berezin(h).eval(zeta)
        assert abs(got - expected) < 1e-9 * max(1.0, abs(expected))
