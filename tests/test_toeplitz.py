import math
import random

import pytest

from fockcalc import toeplitz as toeplitz_module
from fockcalc.berezin import berezin, operator_berezin
from fockcalc.gaussian import fock_inner, symbol_integral
from fockcalc.indices import mi_enumerate, mi_factorial
from fockcalc.sharp import sharp
from fockcalc.suites import random_holo, random_polynomial, unit_disc
from fockcalc.symbols import (
    constant,
    coordinate,
    exponential,
    kernel,
    monomial,
    relative_residual,
    zero,
)
from fockcalc.toeplitz import (
    OpChain,
    basis_images,
    brown_halmos_h,
    commutator_defect,
    op_equal_on_basis,
    toeplitz_apply,
)

Z = coordinate(1, 1)


def projection_point_oracle(phi, u, w):
    """T_phi u evaluated at w through Gaussian moments only.

    <phi*u, K_w> integrates the mixed symbol phi*u*exp(conj(z).w) against
    the Gaussian; independent of the term rule in toeplitz_apply.
    """
    weight = exponential(phi.n, d=w)
    return symbol_integral(phi * u * weight)


def test_holomorphic_symbol_multiplies():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 2)
        phi = random_holo(rng, n, 3, exp_prob=0.5)
        u = random_holo(rng, n, 3, exp_prob=0.5)
        assert relative_residual(toeplitz_apply(phi, u), phi * u) <= 1e-12


def test_annihilation_on_monomials():
    # expected coefficients computed with the projection oracle, then frozen:
    # the conj(z) symbol maps z^m to m z^{m-1}
    for m in range(1, 6):
        got = toeplitz_apply(Z.conj(), monomial(1, (m,)))
        assert relative_residual(got, monomial(1, (m - 1,), coef=m)) == 0.0
        w = (0.4 + 0.3j,)
        assert abs(got.eval(w) - projection_point_oracle(Z.conj(), monomial(1, (m,)), w)) < 1e-10
    assert toeplitz_apply(Z.conj(), constant(1, 1)).is_zero


def test_antiholomorphic_exponential_shifts():
    rng = random.Random(5)
    for _ in range(8):
        n = rng.randint(1, 2)
        d = tuple(unit_disc(rng) for _ in range(n))
        phi = exponential(n, d=d)
        u = random_holo(rng, n, 3, exp_prob=0.5)
        got = toeplitz_apply(phi, u)
        expected = u.shift(tuple(-x for x in d))
        assert relative_residual(got, expected) <= 1e-12
        w = tuple(unit_disc(rng, 0.5) for _ in range(n))
        oracle = projection_point_oracle(phi, u, w)
        assert abs(got.eval(w) - oracle) <= 1e-9 * max(1.0, abs(oracle))


def test_apply_matches_projection_oracle_on_mixed_symbols():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 2)
        phi = random_holo(rng, n, 2, exp_prob=0.4) * random_holo(rng, n, 2).conj()
        u = random_holo(rng, n, 2, exp_prob=0.4)
        got = toeplitz_apply(phi, u)
        assert got.is_holomorphic
        for _ in range(3):
            w = tuple(unit_disc(rng, 0.6) for _ in range(n))
            oracle = projection_point_oracle(phi, u, w)
            assert abs(got.eval(w) - oracle) <= 1e-9 * max(1.0, abs(oracle))


def test_adjoint_law():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(1, 2)
        phi = random_holo(rng, n, 2) * random_holo(rng, n, 2).conj()
        u = random_holo(rng, n, 2)
        w = random_holo(rng, n, 2)
        lhs = fock_inner(toeplitz_apply(phi, u), w)
        rhs = fock_inner(u, toeplitz_apply(phi.conj(), w))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_symbol_linearity():
    rng = random.Random(11)
    n = 2
    phi, psi = (random_holo(rng, n, 2) * random_holo(rng, n, 2).conj() for _ in range(2))
    u = random_holo(rng, n, 3)
    alpha, beta = unit_disc(rng), unit_disc(rng)
    lhs = toeplitz_apply(phi.scale(alpha) + psi.scale(beta), u)
    rhs = toeplitz_apply(phi, u).scale(alpha) + toeplitz_apply(psi, u).scale(beta)
    assert relative_residual(lhs, rhs) <= 1e-12


def test_guards():
    with pytest.raises(ValueError):
        toeplitz_apply(Z, coordinate(2, 1))
    with pytest.raises(ValueError):
        toeplitz_apply(Z, Z.conj())
    with pytest.raises(ValueError):
        OpChain([])
    with pytest.raises(ValueError):
        OpChain([Z, coordinate(2, 1)])
    with pytest.raises(ValueError, match="exponential parameter"):
        exponential(1, c=[1e308])
    # each parameter is in range, their sum is not
    big = exponential(1, c=[3000])
    for leaves_range in (
        lambda: toeplitz_apply(big, big),
        lambda: big * big,
        lambda: big.conj() * big.conj(),
    ):
        with pytest.raises(ValueError, match="exponential parameter"):
            leaves_range()
    assert (big * big.conj()).terms[0].c == (3000,)
    with pytest.raises(ValueError, match="exponential factor overflows"):
        toeplitz_apply(exponential(1, d=[30]), exponential(1, c=[30]))


def test_non_holomorphic_result_raises(monkeypatch):
    # a broken step must fail with an error that survives `python -O`
    conj_z = (((0,), (1,), (0j,), (0j,)), 1 + 0j)
    monkeypatch.setattr(
        toeplitz_module, "_expand", lambda items, coef, factors, c, d: items.append(conj_z)
    )
    phi = exponential(1, d=(0.5,))
    with pytest.raises(ValueError, match="non-holomorphic"):
        toeplitz_apply(phi, Z)
    with pytest.raises(ValueError, match="non-holomorphic"):
        operator_berezin(OpChain([phi]), (0.1,))


# -- chain equality on bases --------------------------------------------------


def test_basis_images_are_the_orthonormal_monomials():
    for n, degree in ((1, 6), (2, 4), (3, 3)):
        images = list(basis_images(OpChain([constant(n, 1)]), degree))
        assert [alpha for alpha, _ in images] == mi_enumerate(n, degree)
        for _, e in images:
            assert abs(fock_inner(e, e) - 1.0) <= 1e-12


def test_equal_chains_have_zero_residual():
    rep = op_equal_on_basis(OpChain([Z]), OpChain([Z]), degree=4, tol=1e-9)
    assert rep.max_residual == 0.0
    assert rep.passed


def test_order_matters_for_creation_annihilation():
    rep = op_equal_on_basis(
        OpChain([Z.conj(), Z]), OpChain([Z, Z.conj()]), degree=4, tol=1e-9
    )
    # at alpha = 0: one side gives 1, the other 0
    assert rep.max_residual >= 1.0
    assert rep.worst_alpha == (0,)
    assert not rep.passed


def test_factored_chain_matches_sharp_symbol():
    rng = random.Random(13)
    for _ in range(5):
        n = rng.randint(1, 2)
        f = random_polynomial(rng, n, 3, radius=0.5)
        g = random_polynomial(rng, n, 3, radius=0.5)
        rep = op_equal_on_basis(
            OpChain([f, g.conj()]), OpChain([sharp(f, g)]), degree=6, tol=1e-9
        )
        assert rep.passed, rep


# -- product symbol -------------------------------------------------------------


def test_h_specializes_to_sharp():
    rng = random.Random(17)
    n = 2
    f = random_holo(rng, n, 3, exp_prob=0.5)
    v = random_holo(rng, n, 3, exp_prob=0.5)
    h = brown_halmos_h(f, zero(n), zero(n), v)
    assert relative_residual(h, sharp(f, v)) == 0.0


def test_h_on_constants():
    h = brown_halmos_h(constant(1, 2), constant(1, 1), constant(1, 3), constant(1, 0))
    assert relative_residual(h, constant(1, 9)) <= 1e-15


def test_h_mixed_exponential_differs_from_pointwise_product():
    for n in (1, 2):
        ones = (1 + 0j,) * n
        f = exponential(n, c=ones)
        v = exponential(n, c=ones, coef=math.exp(n))
        h = brown_halmos_h(f, zero(n), zero(n), v)
        expected = exponential(n, c=ones, d=ones)
        assert relative_residual(h, expected) <= 1e-12
        gap = (h - f * v.conj()).coeff_norm()
        assert gap >= (math.exp(n) - 1) * math.exp(-n) * h.coeff_norm()


def test_product_criterion_both_directions():
    rng = random.Random(19)
    for j in range(6):
        n = 1 + j % 2
        f, g, u, v = (random_polynomial(rng, n, 3, radius=0.5) for _ in range(4))
        phi, psi = f + g.conj(), u + v.conj()
        h = brown_halmos_h(f, g, u, v)
        rep = op_equal_on_basis(OpChain([phi, psi]), OpChain([h]), degree=6, tol=1e-9)
        assert rep.passed, rep
        rep2 = op_equal_on_basis(OpChain([phi, psi]), OpChain([h + 1]), degree=6, tol=1e-9)
        assert rep2.max_residual >= 0.5


def test_zero_product_support():
    rng = random.Random(23)
    for j in range(20):
        n = 1 + j % 2
        f, g, u, v = (random_polynomial(rng, n, 3, radius=0.5) for _ in range(4))
        chain = OpChain([f + g.conj(), u + v.conj()])
        biggest = max(
            chain.apply(monomial(n, a, coef=1 / mi_factorial(a) ** 0.5)).coeff_norm()
            for a in mi_enumerate(n, 4)
        )
        assert biggest > 1e-8
    # a vanishing factor annihilates every basis element exactly
    n = 2
    psi = random_polynomial(rng, n, 3) + random_polynomial(rng, n, 3).conj()
    chain = OpChain([zero(n), psi])
    for a in mi_enumerate(n, 4):
        assert chain.apply(monomial(n, a)).is_zero


# -- commutators -----------------------------------------------------------------


def test_defect_constant_for_creation_annihilation():
    defect = commutator_defect(Z, zero(1), zero(1), Z)
    assert defect.is_constant
    assert abs(defect.constant_value() + 1) <= 1e-12


def test_defect_vanishes_for_equal_symbols():
    rng = random.Random(29)
    for _ in range(5):
        n = rng.randint(1, 2)
        f = random_holo(rng, n, 3, exp_prob=0.5)
        g = random_holo(rng, n, 3, exp_prob=0.5)
        assert commutator_defect(f, g, f, g).is_zero


def test_defect_matches_basis_commutation():
    rng = random.Random(31)
    for j in range(8):
        n = 1 + j % 2
        f, g, u, v = (random_polynomial(rng, n, 2, radius=0.5) for _ in range(4))
        if j % 3 == 0:
            u, v = f, g  # commuting instance
        defect = commutator_defect(f, g, u, v)
        phi, psi = f + g.conj(), u + v.conj()
        rep = op_equal_on_basis(OpChain([phi, psi]), OpChain([psi, phi]), degree=6, tol=1e-9)
        assert defect.is_zero == rep.passed


def test_defect_matches_berezin_fixed_point_criterion():
    rng = random.Random(37)
    for j in range(8):
        n = 1 + j % 2
        f, g, u, v = (random_polynomial(rng, n, 2, radius=0.5) for _ in range(4))
        if j % 2 == 0:
            u, v = f, g
        defect = commutator_defect(f, g, u, v)
        s = u * g.conj() - f * v.conj()
        fixed = relative_residual(berezin(s), s)
        assert defect.is_zero == (fixed <= 1e-9)


def test_composite_chain_collapses():
    rng = random.Random(41)
    for n in (1, 2):
        ones = (1 + 0j,) * n
        f = exponential(n, c=ones)
        h, v, g = (random_polynomial(rng, n, 2, radius=0.5) for _ in range(3))
        k = h.conj() * v.shift(ones).conj() * f * g
        rep = op_equal_on_basis(
            OpChain([h.conj() * f, v.conj() * g]), OpChain([k]), degree=5, tol=1e-9
        )
        assert rep.passed, rep


# -- the dimension phenomenon ------------------------------------------------------


def test_high_dim_kernel_pair_commutes_exactly():
    p = coordinate(2, 1)
    f = kernel([0, -2j * math.pi])
    g = kernel([0, 1])
    defect = commutator_defect(p * f, zero(2), zero(2), g)
    assert defect.coeff_norm() <= 1e-12
    rep = op_equal_on_basis(
        OpChain([p * f, g.conj()]), OpChain([p * f * g.conj()]), degree=8, tol=1e-9
    )
    assert rep.passed, rep


def test_one_dim_analog_fails_fixed_point():
    p = coordinate(1, 1)
    f = kernel([-2j * math.pi])
    g = kernel([1])
    pfg = p * f * g.conj()
    moved = berezin(pfg) - pfg
    assert moved.coeff_norm() >= 0.9
    # the polynomial factor shifts from zeta to zeta + 1
    assert relative_residual(berezin(pfg), (p + 1) * f * g.conj()) <= 1e-12
