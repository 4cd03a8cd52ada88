import cmath
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

import fockcalc
from fockcalc import oracle
from fockcalc.dsl import parse_symbol
from fockcalc.gaussian import gaussian_moment, symbol_integral
from fockcalc.oracle import lemma_l1_check, quad_integral
from fockcalc.sharp import sharp
from fockcalc.suites import random_holo, unit_disc
from fockcalc.symbols import constant, coordinate, exponential, monomial

ONE = constant(1, 1)
Z = coordinate(1, 1)
Z2 = coordinate(2, 2)


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


def test_default_order_follows_the_degree():
    # <T_phi f, f> for phi = f + conj(g), f and g drawn at n = 2, degree 6:
    # a degree-18 integrand with exponential parameters up to 1.99, which
    # order 24 misses by 1.9e-9
    f = parse_symbol(
        "(0.15847227600634+0.8789504460462i)*z1^4*z2*exp((-0.2579342575245-0.143220913105i)*z1"
        " + (-0.933712657023-0.345606719909i)*z2) + (-0.019832693812605-0.30670431310713i)"
        "*z1^2*z2^3*exp((-0.2579342575245-0.143220913105i)*z1 + (-0.933712657023-0.345606719909i)"
        "*z2) + (0.29113829192863+0.0076469185691764i)*z2^6*exp((-0.2579342575245-0.143220913105i)"
        "*z1 + (-0.933712657023-0.345606719909i)*z2)",
        2,
    )
    g = parse_symbol(
        "(0.50810373895001-0.60694154784144i)*z2^2*exp((-0.043959987872-0.507270027456i)*z1"
        " + (-0.213868050566+0.226338140734i)*z2) + (0.16837753701045+0.8904686043589i)*z1^4"
        "*exp((-0.043959987872-0.507270027456i)*z1 + (-0.213868050566+0.226338140734i)*z2)"
        " + (0.82779517222737+0.26049555672882i)*z1^2*z2^4*exp((-0.043959987872-0.507270027456i)"
        "*z1 + (-0.213868050566+0.226338140734i)*z2)",
        2,
    )
    s = (f + g.conj()) * f * f.conj()
    assert s.degree() == 18
    exact = symbol_integral(s)
    assert abs(quad_integral(s) - exact) <= 1e-12 * abs(exact)
    # up to degree 14 the defaults stay: the verify suites integrate degree 6 at n = 1
    low = monomial(1, (3,), b=(3,)) * exponential(1, c=[0.5], d=[0.25j])
    assert quad_integral(low) == quad_integral(low, 40)
    mid = monomial(2, (4, 3), b=(3, 4)) * exponential(2, c=[0.5, 0], d=[0, 0.25j])
    assert quad_integral(mid) == quad_integral(mid, 24)


def test_two_dimensional_blocks_cover_the_grid():
    # the coordinate-wise sum against the dense order^4 grid, at a small and a large
    # order, to a tighter bound than test_quad_matches_the_dense_grid's random symbols
    s = monomial(2, (2, 1), b=(0, 3)) * exponential(2, c=[0.5, 0.25j], d=[-0.5, 0]) + Z2
    for order in (5, 28):
        x, w = hermgauss(order)
        z = (x[:, None] + 1j * x[None, :]).ravel()
        ww = (w[:, None] * w[None, :]).ravel()
        vals = oracle._eval_on_arrays(s, [z[:, None], z[None, :]])
        full = (ww[:, None] * ww[None, :] * vals).sum() / np.pi**2
        assert abs(quad_integral(s, order) - full) <= 1e-13 * abs(full)


def _dense_quad(s, order):
    """The tensor Gauss-Hermite sum on the dense order^(2n) grid: the formula
    that quad_integral factors over coordinates.  At n = 2 it runs over one z1
    node row at a time, so memory stays at order^3 points."""
    x, w = hermgauss(order)
    z = (x[:, None] + 1j * x[None, :]).ravel()
    ww = (w[:, None] * w[None, :]).ravel()
    if s.n == 1:
        return (ww * oracle._eval_on_arrays(s, [z])).sum() / np.pi
    total = 0j
    for k in range(0, z.size, order):
        vals = oracle._eval_on_arrays(s, [z[k:k + order, None], z[None, :]])
        total += (ww[k:k + order, None] * ww[None, :] * vals).sum()
    return total / np.pi**2


@pytest.mark.parametrize("n, count", [(1, 40), (2, 6)])
def test_quad_matches_the_dense_grid(n, count):
    # (f + conj(g)) * f * conj(f), as calc-stream's Toeplitz check integrates:
    # degree up to 18, exponential parameters up to modulus 2.  The factored
    # sum reorders the dense one, so only rounding separates them.
    rng = random.Random(19 + n)
    for _ in range(count):
        f, g = (random_holo(rng, n, rng.randint(0, 6), max_terms=2, exp_prob=0.8) for _ in "fg")
        s = (f + g.conj()) * f * f.conj()
        default = oracle.DEFAULT_ORDER[n] + max(0, s.degree() - oracle.DEGREE_BASE)
        for order in (default, 5, 28):
            dense = _dense_quad(s, order)
            assert abs(quad_integral(s, order) - dense) <= 1e-11 * max(1, abs(dense))
        assert quad_integral(s) == quad_integral(s, default)


def test_power_tables_are_bounded_and_read_only():
    oracle._power.cache_clear()
    for order in (5, 24, 28, 40, 60):
        for k in range(19):
            table = oracle._power(order, k)
            assert not table.flags.writeable
    assert oracle._power.cache_info().currsize == oracle.POWER_TABLES


# -- Fourier-route reconstruction ----------------------------------------------


def _lemma_l1_reference(f, g, grid_half_width=8.0, grid_points=256):
    """lemma_l1_check on the dense N x N sample grid, with the 2-D transform
    as two matrix products: the formula the separable transform factors."""
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


def test_separable_transform_matches_the_dense_formula():
    # the three inputs of the lemma-l1 suite, then multi-term inputs of
    # degree up to 4 per side with complex exponential parameters; the
    # separable sum rounds differently, so agreement is to 1e-12
    pairs = [(ONE, ONE), (Z, Z), (exponential(1, c=[1]), Z)]
    pairs.append((parse_symbol("(0.5-0.25i)*z1^4 + 2i*z1 - 1", 1), parse_symbol("z1^3 + (1+1i)", 1)))
    pairs.append((
        parse_symbol("(z1^2 - 0.5i*z1^4)*exp((0.6-0.7i)*z1)", 1),
        parse_symbol("(0.3 + z1^3)*exp(-0.9i*z1)", 1),
    ))
    pairs.append((
        parse_symbol("z1^4*exp(0.8i*z1) + (0.25+0.5i)*z1*exp(-0.5*z1)", 1),
        parse_symbol("z1^2*exp((-0.6+0.6i)*z1) + 0.75*z1^4", 1),
    ))
    for f, g in pairs:
        assert abs(lemma_l1_check(f, g) - _lemma_l1_reference(f, g)) <= 1e-12


def test_fourier_check_stays_off_the_dense_grid():
    # a single 256 x 256 complex grid is 1 MiB; the dense formula peaks near 7.5 MiB
    f = exponential(1, c=[1])
    lemma_l1_check(f, Z)
    tracemalloc.start()
    try:
        lemma_l1_check(f, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_fourier_zero_input():
    assert lemma_l1_check(constant(1, 0), Z) == 0.0


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


NUMPY_FREE = """
import sys
import fockcalc, fockcalc.cli, fockcalc.suites
assert "numpy" not in sys.modules, "loaded by the imports"
for command in ("parse", "berezin"):
    assert fockcalc.cli.main([command, "-s", "(0.5-1i)*z1^2*conj(z1) + exp(z1)", "--n", "1"]) == 0
assert "numpy" not in sys.modules, "loaded by the calculator"
assert abs(fockcalc.quad_integral(fockcalc.constant(1, 2)) - 2) < 1e-12
assert "numpy" in sys.modules
names = {}
exec("from fockcalc import *", names)
assert names["quad_integral"] is fockcalc.oracle.quad_integral
assert names["lemma_l1_check"] is fockcalc.oracle.lemma_l1_check
"""


def test_numpy_loads_only_with_the_oracles():
    src = str(Path(fockcalc.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
