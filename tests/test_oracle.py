import cmath
import random

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from fockcalc import oracle
from fockcalc.gaussian import gaussian_moment
from fockcalc.oracle import lemma_l1_check, quad_integral
from fockcalc.sharp import sharp
from fockcalc.suites import unit_disc
from fockcalc.symbols import constant, coordinate, exponential, monomial

ONE = constant(1, 1)
Z = coordinate(1, 1)


def test_quad_normalization():
    assert abs(quad_integral(ONE) - 1) < 1e-10


def test_quad_zzbar():
    assert abs(quad_integral(Z * Z.conj()) - 1) < 1e-8


def test_quad_exponential():
    s = exponential(1, c=[0.3], d=[0.7 - 0.2j])
    assert abs(quad_integral(s) - cmath.exp(0.21 - 0.06j)) < 1e-6


def test_quad_two_dimensional():
    s = monomial(2, (1, 0), b=(1, 0)) * exponential(2, c=[0, 0.4j], d=[0, -0.1])
    closed = gaussian_moment((1, 0), (1, 0), (0, 0.4j), (0, -0.1))
    assert abs(quad_integral(s) - closed) < 1e-6


def test_quad_guards():
    with pytest.raises(ValueError):
        quad_integral(constant(3, 1))
    with pytest.raises(ValueError):
        quad_integral(ONE, order=65)
    with pytest.raises(ValueError):
        quad_integral(exponential(1, c=[2.5]))


def test_quad_order_self_consistency():
    rng = random.Random(5)
    worst = 0.0
    for _ in range(20):
        s = monomial(1, (rng.randint(0, 6),), b=(rng.randint(0, 6),)) * exponential(
            1, c=[unit_disc(rng)], d=[unit_disc(rng)]
        )
        worst = max(worst, abs(quad_integral(s, 40) - quad_integral(s, 60)))
    assert worst < 1e-8


def test_quad_matches_closed_form():
    rng = random.Random(7)
    worst = 0.0
    for _ in range(20):
        a, b = (rng.randint(0, 6),), (rng.randint(0, 6),)
        lam, mu = (unit_disc(rng),), (unit_disc(rng),)
        s = monomial(1, a, b=b) * exponential(1, c=lam, d=mu)
        worst = max(worst, abs(quad_integral(s) - gaussian_moment(a, b, lam, mu)))
    assert worst < 1e-6


def test_quadrature_rules_are_cached_read_only_copies_of_hermgauss():
    for order in (1, 24, 40, 60, 64):
        x, w = oracle._rule(order)
        assert oracle._rule(order)[0] is x and oracle._rule(order)[1] is w
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        rx, rw = hermgauss(order)
        assert np.array_equal(x, rx) and np.array_equal(w, rw)


# -- Fourier-route reconstruction ----------------------------------------------


def _lemma_l1_reference(f, g, grid_half_width=8.0, grid_points=256):
    """lemma_l1_check with the transform written as phase.T @ samples @ phase
    for an N x M phase: the same products, the left operands transposed."""
    L, N = grid_half_width, grid_points
    h = 2.0 * L / N
    x = -L + (np.arange(N) + 0.5) * h
    z = x[:, None] + 1j * x[None, :]
    samples = (
        np.exp(-np.abs(z) ** 2 / 4.0)
        * oracle._eval_on_arrays(f, [0.5j * z])
        * np.conj(oracle._eval_on_arrays(g, [-0.5j * z]))
    )
    xi = x[np.abs(x) <= L / 4.0]
    phase = np.exp(-1j * np.outer(x, xi))
    transform = phase.T @ samples @ phase * (h * h / (4.0 * np.pi))
    zeta = xi[:, None] + 1j * xi[None, :]
    numeric = np.exp(np.abs(zeta) ** 2) * transform
    exact = oracle._eval_on_arrays(sharp(f, g), [zeta])
    return float(np.max(np.abs(numeric - exact)[np.abs(zeta) <= L / 4.0]))


def test_fourier_transform_matches_the_transposed_formula_exactly():
    # the three inputs of the lemma-l1 suite
    for f, g in ((ONE, ONE), (Z, Z), (exponential(1, c=[1]), Z)):
        assert lemma_l1_check(f, g) == _lemma_l1_reference(f, g)




def test_fourier_constant_pair():
    assert lemma_l1_check(ONE, ONE) < 1e-4


def test_fourier_linear_pair():
    assert lemma_l1_check(Z, Z) < 1e-4


def test_fourier_exponential_pair():
    assert lemma_l1_check(exponential(1, c=[1]), Z) < 1e-3


def test_fourier_guards():
    with pytest.raises(ValueError):
        lemma_l1_check(constant(2, 1), constant(2, 1))
    with pytest.raises(ValueError):
        lemma_l1_check(ONE, ONE, grid_points=32)
    with pytest.raises(ValueError):
        lemma_l1_check(exponential(1, c=[1.5]), Z)
    with pytest.raises(ValueError):
        lemma_l1_check(Z.conj(), Z)


def test_fourier_converges_as_grid_grows():
    # doubling grid_points at fixed spacing (the covered square grows with
    # the point count); each residual must drop by at least a factor of 2
    cases = [(ONE, ONE), (Z, Z), (exponential(1, c=[1]), Z)]
    for f, g in cases:
        coarse = lemma_l1_check(f, g, grid_half_width=5.0, grid_points=100)
        fine = lemma_l1_check(f, g, grid_half_width=10.0, grid_points=200)
        assert fine <= coarse / 2.0
