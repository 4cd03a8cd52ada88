import cmath
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockcalc.symbols import (
    COEF_FLOOR,
    PARAM_TOL,
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
from fockcalc.symbols import _canonicalize, _vec_close, _vec_sort_key

Z = coordinate(1, 1)


def term(coef, a, b=None, c=None, d=None):
    n = len(a)
    b = b or (0,) * n
    c = tuple(c) if c else (0j,) * n
    d = tuple(d) if d else (0j,) * n
    return SymbolTerm(complex(coef), tuple(a), tuple(b), c, d)


def random_symbol(rng, n, degree=4, terms=6, exp_prob=0.4):
    raw = []
    for _ in range(rng.randint(1, terms)):
        a = tuple(rng.randint(0, degree) for _ in range(n))
        b = tuple(rng.randint(0, degree) for _ in range(n))
        coef = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if rng.random() < exp_prob:
            c = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n))
            d = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n))
        else:
            c = d = (0j,) * n
        raw.append(SymbolTerm(coef, a, b, c, d))
    return Symbol(n, raw)


def random_holo(rng, n, degree=3):
    s = zero(n)
    for _ in range(rng.randint(1, 4)):
        a = tuple(rng.randint(0, degree) for _ in range(n))
        s = s + monomial(n, a, coef=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    if rng.random() < 0.5:
        s = s * exponential(
            n, c=[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        )
    return s


def random_point(rng, n):
    return tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n))


# -- canonical form -----------------------------------------------------------


def test_canon_exact_cancellation():
    s = Symbol(1, [term(1, (1,)), term(-1, (1,))])
    assert s.is_zero
    assert s.terms == ()


def test_canon_merges_equal_keys():
    s = Symbol(2, [term(1, (1, 0), (0, 1)), term(2, (1, 0), (0, 1))])
    assert len(s.terms) == 1
    assert s.terms[0].coef == 3


def test_canon_drops_below_floor():
    # with a unit-size term present, 1e-15 sits below the 1e-12 relative floor
    s = Symbol(1, [term(1e-15, (1,)), term(1, (0,))])
    assert len(s.terms) == 1
    assert s.terms[0].a == (0,)


def test_canon_groups_close_exponential_parameters():
    c = 0.3 + 0.7j
    bump = 1e-13
    s = Symbol(1, [term(1, (0,), c=(c,)), term(1, (0,), c=(c + bump,))])
    assert len(s.terms) == 1
    assert abs(s.terms[0].coef - 2) < 1e-12


def test_canon_idempotent():
    rng = random.Random(5)
    for _ in range(30):
        s = random_symbol(rng, rng.randint(1, 3))
        again = Symbol(s.n, s.terms)
        assert again == s


def test_canon_dimension_mismatch():
    with pytest.raises(ValueError):
        Symbol(2, [term(1, (1,))])


def test_term_order_is_graded_lex():
    s = monomial(2, (0, 1)) + monomial(2, (2, 0)) + constant(2, 5) + monomial(2, (1, 0))
    degrees = [t.degree for t in s.terms]
    assert degrees == sorted(degrees)
    assert s.terms[1].a == (1, 0) and s.terms[2].a == (0, 1)


def test_canon_rejects_non_finite_coefficients():
    for coef in (math.inf, -math.inf, math.nan, complex(0, math.inf)):
        with pytest.raises(ValueError, match="non-finite coefficient"):
            Symbol(1, [term(coef, (1,))])
    with pytest.raises(ValueError, match="non-finite coefficient"):
        constant(1, 1e308) * 10
    with pytest.raises(ValueError, match="overflows"):
        Symbol(1, [term(complex(1.5e308, 1.5e308), (1,))])
    # finite moduli whose sum overflows are still a valid symbol
    s = Symbol(1, [term(1e308, (0,)), term(1e308, (1,))])
    assert [t.coef for t in s.terms] == [1e308, 1e308]


# -- canonical form against the sort-twice reference ----------------------------


def _reference_term_sort_key(entry):
    a, b, c, d = entry
    return (
        sum(a) + sum(b),
        tuple(-k for k in a),
        tuple(-k for k in b),
        _vec_sort_key(c),
        _vec_sort_key(d),
    )


def _reference_canonicalize(n, raw):
    """Canonicalization by one global sort of all keys and a second sort of
    the result; kept as the oracle whose output must be reproduced exactly."""
    exact = {}
    for t in raw:
        key = (t.a, t.b, t.c, t.d)
        exact[key] = exact.get(key, 0j) + complex(t.coef)
    groups = []
    by_ab = {}
    for key in sorted(exact, key=_reference_term_sort_key):
        a, b, c, d = key
        coef = exact[key]
        merged = False
        for gi in by_ab.get((a, b), ()):
            g = groups[gi]
            if _vec_close(g[2], c) and _vec_close(g[3], d):
                g[4] += coef
                merged = True
                break
        if not merged:
            by_ab.setdefault((a, b), []).append(len(groups))
            groups.append([a, b, c, d, coef])
    if not groups:
        return ()
    biggest = max(abs(g[4]) for g in groups)
    floor = COEF_FLOOR * max(1.0, biggest)
    terms = [
        SymbolTerm(g[4], g[0], g[1], g[2], g[3]) for g in groups if abs(g[4]) >= floor
    ]
    terms.sort(key=lambda t: _reference_term_sort_key((t.a, t.b, t.c, t.d)))
    return tuple(terms)


# parameter parts at, just inside and just outside the merge tolerance; 0 and
# 1.2e-9 do not merge, but each merges with 0.6e-9
_PARAM_PARTS = [0.0, -0.0, 0.6e-9, -0.6e-9, 1.2e-9, -1.2e-9, PARAM_TOL, -PARAM_TOL, 0.25]
# moduli on both sides of the 1e-12 floor, for a largest modulus of 1 and of 3
_COEF_PARTS = [0.0, -0.0, 1.0, -1.0, 3.0, 1e-12, 0.999e-12, 1.001e-12, -2.99e-12, 3.01e-12, 1e-13]


@st.composite
def _raw_terms(draw):
    n = draw(st.integers(1, 3))
    part = st.sampled_from(_PARAM_PARTS)
    param = st.builds(complex, part, part)
    vec = st.tuples(*[param] * n)
    expo = st.tuples(*[st.integers(0, 1)] * n)
    # few monomials and many parameter vectors: several keys per (a, b)
    monomials = draw(st.lists(st.tuples(expo, expo), min_size=1, max_size=3))
    keys = draw(
        st.lists(st.tuples(st.sampled_from(monomials), vec, vec), min_size=1, max_size=8)
    )
    coef_part = st.one_of(st.sampled_from(_COEF_PARTS), st.floats(-3, 3))
    # drawing terms from a short key list repeats exact keys
    raw = draw(
        st.lists(
            st.tuples(st.sampled_from(keys), st.builds(complex, coef_part, coef_part)),
            max_size=16,
        )
    )
    return n, [SymbolTerm(coef, a, b, c, d) for ((a, b), c, d), coef in raw]


@settings(max_examples=200, deadline=None)
@given(_raw_terms())
@example((1, [term(1, (0,)), term(COEF_FLOOR, (1,))]))  # a modulus exactly at the floor
def test_canon_matches_sort_twice_reference_exactly(case):
    n, raw = case
    got = [repr(t) for t in _canonicalize(n, raw)]
    assert got == [repr(t) for t in _reference_canonicalize(n, raw)]


# -- products -----------------------------------------------------------------


def test_mul_examples():
    zzbar = Z * Z.conj()
    assert zzbar.terms[0].a == (1,) and zzbar.terms[0].b == (1,)

    e1 = exponential(1, c=[0.5])
    e2 = exponential(1, c=[0.25])
    prod = e1 * e2
    assert len(prod.terms) == 1
    assert prod.terms[0].c == (0.75 + 0j,)

    p = (1 + Z) * (1 - Z)
    assert relative_residual(p, 1 - Z**2) == 0.0


def test_mul_commutative_associative():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 3)
        s, t, u = (random_symbol(rng, n) for _ in range(3))
        assert relative_residual(s * t, t * s) <= 1e-12
        assert relative_residual((s * t) * u, s * (t * u)) <= 1e-12


def test_eval_is_ring_homomorphism():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 3)
        s, t = random_symbol(rng, n), random_symbol(rng, n)
        zeta = random_point(rng, n)
        lhs = (s * t).eval(zeta)
        rhs = s.eval(zeta) * t.eval(zeta)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


# -- conjugation / reflection ----------------------------------------------------


def test_conj_examples():
    s = monomial(1, (2,)) * exponential(1, c=[0.5 + 1j])
    sc = s.conj()
    t = sc.terms[0]
    assert t.a == (0,) and t.b == (2,)
    assert t.d == ((0.5 - 1j),) and t.c == (0j,)

    assert constant(1, 1j).conj().terms[0].coef == -1j


def test_conj_is_involution():
    rng = random.Random(31)
    for _ in range(20):
        s = random_symbol(rng, rng.randint(1, 3))
        assert s.conj().conj() == s


def test_conj_matches_pointwise_conjugate():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(1, 2)
        s = random_symbol(rng, n)
        zeta = random_point(rng, n)
        assert abs(s.conj().eval(zeta) - s.eval(zeta).conjugate()) < 1e-10


def test_reflect_examples():
    f = coordinate(1, 1).scale(1j)
    assert f.reflect().terms[0].coef == -1j
    e = exponential(1, c=[0.2 + 0.4j])
    assert e.reflect().terms[0].c == ((0.2 - 0.4j),)


def test_reflect_involution_and_guard():
    rng = random.Random(41)
    for _ in range(20):
        f = random_holo(rng, rng.randint(1, 3))
        assert f.reflect().reflect() == f
    with pytest.raises(ValueError):
        (Z * Z.conj()).reflect()


# -- shift ------------------------------------------------------------------------


def test_shift_examples():
    assert relative_residual(Z.shift([1]), Z - 1) == 0.0
    e = exponential(1, c=[0.5])
    shifted = e.shift([2])
    assert abs(shifted.terms[0].coef - cmath.exp(-1.0)) < 1e-14
    assert shifted.terms[0].c == (0.5 + 0j,)


def test_shift_matches_evaluation_oracle():
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(1, 3)
        f = random_holo(rng, n)
        eta = random_point(rng, n)
        zeta = random_point(rng, n)
        expected = f.eval(tuple(z - e for z, e in zip(zeta, eta)))
        got = f.shift(eta).eval(zeta)
        assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))


def test_shift_guard():
    with pytest.raises(ValueError):
        (Z.conj()).shift([1])
    with pytest.raises(ValueError):
        Z.shift([1, 2])


# -- Wirtinger derivative ----------------------------------------------------------


def test_dz_examples():
    assert relative_residual((Z**3).dz(1), 3 * Z**2) == 0.0
    e = exponential(1, c=[0.7 - 0.2j])
    assert relative_residual(e.dz(1), e.scale(0.7 - 0.2j)) == 0.0
    assert Z.conj().dz(1).is_zero


def test_dz_product_rule():
    rng = random.Random(47)
    for _ in range(20):
        n = rng.randint(1, 3)
        s, t = random_symbol(rng, n), random_symbol(rng, n)
        k = rng.randint(1, n)
        lhs = (s * t).dz(k)
        rhs = s.dz(k) * t + s * t.dz(k)
        assert relative_residual(lhs, rhs) <= 1e-12


def test_dz_index_guard():
    with pytest.raises(ValueError):
        Z.dz(2)
    with pytest.raises(ValueError):
        Z.dz(0)


# -- evaluation ---------------------------------------------------------------------


def test_eval_examples():
    assert abs((Z * Z.conj()).eval([2j]) - 4) < 1e-14
    assert exponential(1, c=[0.3]).eval([0]) == 1
    w = (0.4 + 0.9j, -0.2j)
    kw = kernel(w)
    norm2 = sum(abs(x) ** 2 for x in w)
    assert abs(kw.eval(w) - cmath.exp(norm2)) < 1e-12


def test_degree_and_zero_reporting():
    assert zero(2).degree() == -1
    assert (Z * Z.conj()).degree() == 2
    assert zero(1).coeff_norm() == 0.0


def test_immutability():
    with pytest.raises(AttributeError):
        Z.n = 3
