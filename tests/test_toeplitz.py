import math
import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_toeplitz_reference import _symbol, reference_chain_apply

from fockcalc import suites as suites_module
from fockcalc import symbols as symbols_module
from fockcalc import toeplitz as toeplitz_module
from fockcalc.berezin import berezin, berezin_inverse, operator_berezin, toeplitz_symbol
from fockcalc.gaussian import fock_inner, symbol_integral
from fockcalc.indices import mi_enumerate, mi_factorial
from fockcalc.sharp import sharp
from fockcalc.suites import random_holo, random_polynomial, run_suite, unit_disc
from fockcalc.symbols import (
    Symbol,
    SymbolTerm,
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
    normal_form,
    op_equal,
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
        toeplitz_module, "_expand", lambda out, mass, coef, factors, c, d: out.update([conj_z])
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


def test_a_degree_that_is_not_an_integer_is_rejected():
    with pytest.raises(ValueError, match="order bound must be an integer, got 2.5"):
        op_equal_on_basis(OpChain([Z]), OpChain([Z]), degree=2.5)


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


def _counting(monkeypatch, module, name):
    """The argument tuples of the calls of module.name from now on."""
    calls, orig = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda out, *args: calls.append(args) or orig(out, *args))
    return calls


def test_one_sweep_computes_each_coordinate_factor_once(monkeypatch):
    calls = _counting(monkeypatch, toeplitz_module, "_derivative_at")
    rng = random.Random(29)
    n = 2
    f, g, u, v = (random_polynomial(rng, n, 3, radius=0.5) for _ in range(4))
    chain = OpChain([f + g.conj(), u + v.conj()])
    images = list(basis_images(chain, 6))
    swept = list(calls)
    assert swept and len(swept) == len(set(swept))
    # applied one element at a time, the chain computes the shared factors again
    calls.clear()
    for alpha, image in images:
        e = monomial(n, alpha, coef=1.0 / mi_factorial(alpha) ** 0.5)
        assert chain.apply(e) == image
    assert len(calls) > len(swept)


def test_term_rules_compute_each_coordinate_factor_once_per_call(monkeypatch):
    rng = random.Random(31)
    n = 2
    f, g = (random_holo(rng, n, 4, exp_prob=0.7, blocks=3) for _ in range(2))
    chain = OpChain([f + g.conj(), f * g.conj(), g + f.conj()])
    for module, name, run in (
        (symbols_module, "_leibniz", lambda: berezin(f * g.conj())),
        (symbols_module, "_leibniz", lambda: berezin_inverse(f * g.conj())),
        (symbols_module, "_leibniz", lambda: sharp(f, g)),
        (symbols_module, "_derivative_at", lambda: f.shift([0.5 - 0.25j, 0.75])),
        (toeplitz_module, "_compose_factor", lambda: normal_form(chain)),
    ):
        # each rule adds its factor to the fresh dict it is passed first
        calls = _counting(monkeypatch, module, name)
        first = run()
        once = list(calls)
        assert once and len(once) == len(set(once)), name
        # the memo lives for one call: a repeated call computes every factor again
        calls.clear()
        assert run() == first
        assert calls == once
    # holomorphic and antiholomorphic terms are fixed points, merged without factors
    calls = _counting(monkeypatch, symbols_module, "_leibniz")
    assert berezin(f + g.conj()) == f + g.conj()
    assert calls == []


def test_brown_halmos_builds_each_product_form_once(monkeypatch):
    forms, compared = [], []
    orig_form, orig_equal = toeplitz_module.normal_form, suites_module.op_equal

    def counted_form(*chains):
        out = orig_form(*chains)
        forms.append((chains, out))
        return out

    def counted_equal(a, b, *rest):
        compared.append(a)
        return orig_equal(a, b, *rest)

    for module in (toeplitz_module, suites_module):
        monkeypatch.setattr(module, "normal_form", counted_form)
    monkeypatch.setattr(suites_module, "op_equal", counted_equal)
    report = run_suite("brown-halmos", n=2)
    assert report.passed
    products = [out for chains, out in forms if len(chains[0].symbols) == 2]
    assert len(products) == 5
    # each instance compares its one product form with h and with h + 1
    assert len(compared) == 2 * len(products)
    assert all(x is form for form, x in zip(products, compared[::2]))
    assert all(x is form for form, x in zip(products, compared[1::2]))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9])
def test_a_tolerance_that_is_not_finite_and_non_negative_is_rejected(tol):
    # nan or a negative tol would fail every pair, inf would pass every pair
    a, b = OpChain([Z]), OpChain([Z + 1])
    for compare in (op_equal, op_equal_on_basis):
        with pytest.raises(ValueError, match="tolerance must be non-negative and finite"):
            compare(a, b, tol=tol)
    assert op_equal(a, a, tol=0.0).passed and op_equal_on_basis(a, a, tol=0.0).passed


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


# -- normal forms -----------------------------------------------------------------


def normal_form_apply(form, u):
    """sum of g_{beta,e}(z) (D^beta u)(z + e) over the entries of form, through
    Symbol products, derivatives and shifts only."""
    n = u.n
    zero_n, czero = (0,) * n, (0j,) * n
    out = zero(n)
    entries: dict = {}
    for (a, beta, c, e), x in form.items():
        entries.setdefault((beta, e), []).append(SymbolTerm(x, a, zero_n, c, czero))
    for (beta, e), terms in entries.items():
        g = Symbol(n, terms)
        du = u
        for k, order in enumerate(beta):
            for _ in range(order):
                du = du.dz(k + 1)
        out = out + g * du.shift(tuple(-x for x in e))
    return out


def _composed(left, right):
    """The normal form of left o right, from the two normal forms."""
    pairs = product(left.items(), right.items())
    return toeplitz_module._compose(pairs, {})


@st.composite
def _chain_case(draw):
    """A chain of the reference test's random mixed symbols and a holomorphic input.

    A form grows with the product of its symbols' forms (a chain of three such
    symbols at n = 3 has about 2e4 entries), so chains are shorter at larger n.
    """
    n = draw(st.integers(1, 3))
    chain = OpChain([draw(_symbol(n, False)) for _ in range(draw(st.integers(1, 4 - n)))])
    return chain, draw(_symbol(n, True))


@settings(max_examples=40, deadline=None)
@given(_chain_case())
def test_normal_form_applies_like_the_chain(case):
    chain, u = case
    got = normal_form_apply(normal_form(chain), u)
    assert relative_residual(got, chain.apply(u)) <= 1e-12
    assert relative_residual(got, reference_chain_apply(chain, u)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(_chain_case())
def test_the_identity_form_is_a_unit_of_composition(case):
    # a chain's form starts from its rightmost symbol's own form, with no identity seed
    chain, _ = case
    form = normal_form(chain)
    zero, czero = (0,) * chain.n, (0j,) * chain.n
    identity = {(zero, zero, czero, czero): 1}
    for composed in (_composed(form, identity), _composed(identity, form)):
        assert composed == form and list(composed) == list(form)


_dyadic = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda p: complex(*p) / 4)


@settings(max_examples=40, deadline=None)
@given(_chain_case(), st.data())
def test_the_normal_form_is_the_berezin_symbol_of_the_chain(case, data):
    # two routes to B(T_chain)(zeta): the chain applied to the kernel K_zeta (toeplitz._image),
    # and the form read as a symbol (Wick products of the factors' own forms, symbols._leibniz)
    chain, _ = case
    wick = Symbol._of(chain.n, dict(normal_form(chain)))
    for _ in range(6):
        zeta = data.draw(st.tuples(*[_dyadic] * chain.n))
        expected = operator_berezin(chain, zeta)
        assert abs(wick.eval(zeta) - expected) <= 1e-12 * max(1.0, abs(expected)), zeta


@settings(max_examples=40, deadline=None)
@given(_chain_case())
def test_a_chain_is_the_toeplitz_operator_of_its_symbol(case):
    chain, _ = case
    rep = op_equal(OpChain([toeplitz_symbol(chain)]), chain)
    assert rep.passed, (rep.max_residual, rep.where)


def test_the_symbol_of_a_pluriharmonic_pair_is_the_brown_halmos_h():
    rng = random.Random(61)
    for n in (1, 2, 3):
        for _ in range(6):
            f, g, u, v = (random_holo(rng, n, 3, exp_prob=0.5) for _ in range(4))
            h = toeplitz_symbol(OpChain([f + g.conj(), u + v.conj()]))
            assert relative_residual(h, brown_halmos_h(f, g, u, v)) <= 1e-12


def test_a_chain_with_a_zero_factor_has_the_zero_symbol():
    # the trivial case of the zero-product question: a zero factor makes the whole product 0
    rng = random.Random(67)
    for n in (1, 2, 3):
        phi = random_holo(rng, n, 3) + random_holo(rng, n, 3).conj()
        psi = random_holo(rng, n, 3, exp_prob=1.0)
        for symbols in ([zero(n)], [zero(n), phi], [phi, zero(n)], [phi, zero(n), psi]):
            assert toeplitz_symbol(OpChain(symbols)) == zero(n)


def test_a_form_with_a_non_finite_coefficient_raises():
    # the Wick product of conj(z)^3 and z^3 overflows to inf terms, whose sums are nan
    chain = OpChain([monomial(1, [0], 1e200, b=[3]), monomial(1, [3], 1e200)])
    with pytest.raises(ValueError, match="non-finite coefficient"):
        normal_form(chain)


def test_pure_pairs_compose_as_one_item(monkeypatch):
    calls = _counting(monkeypatch, toeplitz_module, "_compose_factor")
    rng = random.Random(53)
    n = 2
    f, g, u, v = (random_polynomial(rng, n, 3, radius=0.5) for _ in range(4))
    # a multiplier on the left, or a constant function part on the right, is one Leibniz term
    forms = [
        (normal_form(OpChain([f, u + v.conj()])), brown_halmos_h(f, zero(n), u, v)),
        (normal_form(OpChain([f + g.conj(), v.conj()])), brown_halmos_h(f, g, zero(n), v)),
    ]
    assert calls == []
    # T_{f + conj g} T_{u + conj v} expands only the pairs of a conj(g) entry and a u entry
    forms.append((normal_form(OpChain([f + g.conj(), u + v.conj()])), brown_halmos_h(f, g, u, v)))
    expected = {
        (0, ua, 0j, ga, 0j, 0)
        for gt, ut in product(g.terms, u.terms)
        for ga, ua in zip(gt.a, ut.a)
    }
    assert calls and set(calls) <= expected
    for form, h in forms:
        assert op_equal(form, OpChain([h])).max_residual == 0


def test_a_multiplier_acts_without_the_derivative_rule(monkeypatch):
    calls = _counting(monkeypatch, toeplitz_module, "_derivative_at")
    rng = random.Random(59)
    for n in (1, 2, 3):
        f, u = (random_holo(rng, n, 4, exp_prob=0.7, blocks=2) for _ in range(2))
        assert OpChain([f]).apply(u) == f * u
    assert calls == []


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(*[_symbol(n, False)] * 3)))
def test_composition_is_associative(symbols):
    x, y, w = (normal_form(OpChain([phi])) for phi in symbols)
    rep = op_equal(_composed(_composed(x, y), w), _composed(x, _composed(y, w)))
    assert rep.max_residual <= 1e-12


@settings(max_examples=40, deadline=None)
@given(_chain_case(), st.data())
def test_every_entry_is_checked(case, data):
    chain, _ = case
    form = normal_form(chain)
    assume(form)
    keys = list(form)
    for index in data.draw(st.lists(st.integers(0, len(keys) - 1), min_size=1, max_size=3)):
        key, x = keys[index], form[keys[index]]
        entry = (key[1], key[3])
        deleted = {k: y for k, y in form.items() if k != key}
        perturbed = {**form, key: x + 1e-6}
        for changed in (deleted, perturbed):
            for rep in (op_equal(form, changed), op_equal(changed, form)):
                assert rep.max_residual > 0 and rep.worst_key == entry


def _identity_and_non_identity_pairs(rng, n):
    """(expected to be equal, chain, chain) instances of the suites' identities."""
    f, g, u, v = (random_polynomial(rng, n, 3, radius=0.5) for _ in range(4))
    phi, psi = f + g.conj(), u + v.conj()
    h = brown_halmos_h(f, g, u, v)
    yield True, OpChain([phi, psi]), OpChain([h])
    yield False, OpChain([phi, psi]), OpChain([h + 1])
    yield True, OpChain([f, g.conj()]), OpChain([sharp(f, g)])
    z1 = coordinate(n, 1)
    yield False, OpChain([z1, z1.conj()]), OpChain([z1.conj(), z1])
    commute = commutator_defect(f, zero(n), zero(n), g).is_zero
    yield commute, OpChain([f, g.conj()]), OpChain([g.conj(), f])
    ones = (1 + 0j,) * n
    e1 = exponential(n, c=ones)
    h, v, g = (random_polynomial(rng, n, 2, radius=0.5) for _ in range(3))
    k = h.conj() * v.shift(ones).conj() * e1 * g
    yield True, OpChain([h.conj() * e1, v.conj() * g]), OpChain([k])


def test_normal_form_decides_as_the_basis_sweep():
    rng = random.Random(43)
    for n in (1, 2, 3):
        for _ in range(2):
            for equal, a, b in _identity_and_non_identity_pairs(rng, n):
                rep = op_equal(a, b)
                assert rep.passed == op_equal_on_basis(a, b, 6).passed == equal
                assert rep.passed == (rep.worst_key is None)


def test_a_vanishing_factor_gives_the_empty_form():
    rng = random.Random(47)
    for n in (1, 2, 3):
        phi = random_holo(rng, n, 2, exp_prob=0.5) * random_holo(rng, n, 2).conj()
        for chain in (OpChain([zero(n), phi]), OpChain([phi, zero(n)])):
            assert normal_form(chain) == {}
            assert op_equal({}, chain).max_residual == 0.0
        assert normal_form(OpChain([phi])) != {}


def test_a_sum_of_chains_is_one_form():
    rng = random.Random(53)
    f, g, u, v = (random_polynomial(rng, 2, 2, radius=0.5) for _ in range(4))
    chains = OpChain([f, g.conj()]), OpChain([u, v.conj()])
    assert op_equal(normal_form(*chains), OpChain([sharp(f, g) + sharp(u, v)])).max_residual == 0.0
    w = random_holo(rng, 2, 3, exp_prob=0.5)
    expected = chains[0].apply(w) + chains[1].apply(w)
    assert relative_residual(normal_form_apply(normal_form(*chains), w), expected) <= 1e-12
    with pytest.raises(ValueError, match="one dimension"):
        normal_form(OpChain([f]), OpChain([coordinate(1, 1)]))


def test_op_equal_checks_the_dimension_of_forms_too():
    chain1, chain2 = OpChain([coordinate(1, 1)]), OpChain([coordinate(2, 1)])
    for a, b in ((normal_form(chain2), chain1), (chain1, normal_form(chain2)), (chain2, chain1)):
        with pytest.raises(ValueError, match="dimension mismatch: . vs ."):
            op_equal(a, b)
    # the empty form is the zero operator, whatever n
    for chain in (chain1, chain2):
        assert op_equal({}, OpChain([zero(chain.n)])).passed
        assert op_equal(chain, {}).max_residual == 1.0


def test_a_failing_comparison_names_its_entry():
    rep = op_equal(OpChain([Z.conj(), Z]), OpChain([Z, Z.conj()]))
    # T_conj(z) T_z u = u + z u' and T_z T_conj(z) u = z u': the identity entry differs
    assert (rep.max_residual, rep.worst_key, rep.terms) == (1.0, ((0,), (0j,)), (1, 0))
    assert not rep.passed
    assert rep.where == "worst entry beta=(0) e=(0+0j): 1 vs 0 terms"
    assert op_equal(OpChain([Z]), OpChain([Z])).where == ""


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
