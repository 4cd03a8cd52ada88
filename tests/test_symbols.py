import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockcalc import berezin, fock_inner, sharp, symbol_integral, toeplitz_apply
from fockcalc.dsl import SymbolSyntaxError, format_symbol, parse_symbol
from fockcalc.symbols import (
    COEF_FLOOR,
    PARAM_MAX,
    PARAM_STEP,
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
from fockcalc.symbols import _finish, _vec_sort_key

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
    # a lone term is kept however small it is next to the others
    s = Symbol(1, [term(1e-15, (1,)), term(1e6, (0,))])
    assert [t.coef for t in s.terms] == [1e6, 1e-15]
    assert Symbol(1, [term(0, (1,)), term(0j, (2,))]).is_zero
    # a merged coefficient at most 1e-12 of its summands' moduli is cancellation noise
    noise = [term(0.1, (1,)), term(0.2, (1,)), term(-0.3, (1,))]
    assert 0 < abs(0.1 + 0.2 - 0.3) <= COEF_FLOOR * 0.6
    assert Symbol(1, noise).is_zero
    # just above the floor a merged coefficient stays
    s = Symbol(1, [term(1, (1,)), term(-1 + 4e-12, (1,))])
    assert len(s.terms) == 1 and abs(s.terms[0].coef - 4e-12) < 1e-15


def test_canon_groups_close_exponential_parameters():
    g = 0.3125 + 0.6875j  # a grid point
    near = [g - 0.4 * PARAM_STEP, g + 0.4j * PARAM_STEP, g]
    s = Symbol(1, [term(1, (0,), c=(x,)) for x in near])
    assert [(t.coef, t.c) for t in s.terms] == [(3, (g,))]
    # one grid step apart, keys stay apart
    s = Symbol(1, [term(1, (0,), c=(g + PARAM_STEP,)), term(1, (0,), c=(g,))])
    assert [t.c for t in s.terms] == [(g,), (g + PARAM_STEP,)]
    # a half step rounds to the even grid point, in either direction
    s = Symbol(1, [term(1, (0,), d=(x * PARAM_STEP,)) for x in (0.5, -0.5, 1.5)])
    assert [(t.coef, t.d) for t in s.terms] == [(2, (0j,)), (1, (2 * PARAM_STEP + 0j,))]


def test_canon_rejects_parameters_out_of_range():
    edge = Symbol(1, [term(1, (0,), c=(complex(PARAM_MAX, -PARAM_MAX),))])
    assert edge.terms[0].c == (complex(PARAM_MAX, -PARAM_MAX),)
    for part in (math.nan, math.inf, -math.inf, 4096.5, -1e308):
        for c in (complex(part, 0), complex(0, part)):
            with pytest.raises(ValueError, match="exponential parameter"):
                Symbol(1, [term(1, (0,), c=(c,))])
            with pytest.raises(ValueError, match="exponential parameter"):
                Symbol(2, [term(1, (0, 1), d=(0j, c))])


def test_canon_idempotent():
    rng = random.Random(5)
    for _ in range(30):
        s = random_symbol(rng, rng.randint(1, 3))
        again = Symbol(s.n, s.terms)
        assert again == s


def test_canon_dimension_mismatch():
    with pytest.raises(ValueError):
        Symbol(2, [term(1, (1,))])


@pytest.mark.parametrize("n", [2.5, "2", math.nan, None])
def test_a_dimension_that_is_not_an_integer_is_rejected(n):
    # int() would truncate 2.5 to a symbol on C^2
    with pytest.raises(ValueError, match="dimension must be an integer"):
        Symbol(n)
    s = Symbol(2.0, [term(1, (1, 0))])
    assert type(s.n) is int and s == coordinate(2, 1)


@pytest.mark.parametrize("a, b", [((-1,), (0,)), ((1.5,), (0,)), ((0,), (-2,)), ((0,), ("1",))])
def test_canon_rejects_exponents_that_are_not_non_negative_integers(a, b):
    with pytest.raises(ValueError, match="multi-index entries must be"):
        Symbol(1, [SymbolTerm(1, a, b, (0j,), (0j,))])


def test_canon_stores_integral_exponents_as_ints():
    s = Symbol(2, [SymbolTerm(1, (2.0, True), (0, 1.0), (0j, 0j), (0j, 0j))])
    assert s == monomial(2, (2, 1), b=(0, 1))
    assert all(type(k) is int for key in s._map for k in key[0] + key[1])


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


# -- canonical form against the snap-then-sort reference ---------------------------


def _reference_snap(v):
    # round half to even on the exact binary value, through Fraction
    return tuple(
        complex(*(math.ldexp(round(Fraction(p) * 2**40), -40) for p in (x.real, x.imag)))
        for x in v
    )


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
    """Canonicalization by snapping every raw key and one global sort; kept as
    the oracle whose output must be reproduced exactly.

    A parameter vector already on the grid keeps its own parts (a -0.0
    stays), and the coefficients of one grid key add up in input order.
    """
    sums = {}  # grid key -> [sum, sum of the summands' moduli or None]
    for t in raw:
        c, d = (v if _reference_snap(v) == v else _reference_snap(v) for v in (t.c, t.d))
        key, x = (t.a, t.b, c, d), complex(t.coef)
        if key in sums:
            g = sums[key]
            g[1] = (abs(g[0]) if g[1] is None else g[1]) + abs(x)
            g[0] += x
        else:
            sums[key] = [x, None]
    terms = [
        SymbolTerm(x, *key)
        for key, (x, m) in sums.items()
        if x != 0 and (m is None or abs(x) > COEF_FLOOR * m)
    ]
    terms.sort(key=lambda t: _reference_term_sort_key((t.a, t.b, t.c, t.d)))
    return tuple(terms)


# parameter parts that tolerance clustering merged by summation order (0 and
# 1.2e-9 apart, each within 1e-9 of 0.6e-9), half grid steps and a grid value
_PARAM_PARTS = [0.0, -0.0, 0.6e-9, -0.6e-9, 1.2e-9, -1.2e-9, 1e-9, -1e-9, 0.25]
_PARAM_PARTS += [k * 2.0**-41 for k in (1, -1, 3, -3)] + [0.25 + 2.0**-41]
# sums on both sides of the floor for summands of modulus about 1 and 3
_COEF_PARTS = [0.0, -0.0, 1.0, -1.0, 3.0, -3.0, 1e-12, 1e-13, -0.999999999999, -2.99999999999]


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


_MOVED_NOISE = [term(x, (0,), c=(0.6e-9,)) for x in (1, -1 + 1e-13)]


@settings(max_examples=200, deadline=None)
@given(_raw_terms())
@example((1, [term(1, (0,), c=(x,)) for x in (1.2e-9, 0.6e-9, 0.0)]))
@example((1, [term(1, (0,), c=(2.0**-41,)), term(1, (0,), c=(0.6e-9,)), term(-1, (0,))]))
# the moduli of summands that cancel count for a key off the grid, whether or
# not it lands on a key already there
@example((1, _MOVED_NOISE))
@example((1, _MOVED_NOISE + [term(1e-13, (0,), c=(660 * PARAM_STEP,))]))
def test_canon_matches_sort_twice_reference_exactly(case):
    n, raw = case
    got = [repr(t) for t in Symbol(n, raw).terms]
    assert got == [repr(t) for t in _reference_canonicalize(n, raw)]


# -- relative residual against the symbol difference --------------------------------


def _reference_residual(s, ref):
    return (s - ref).coeff_norm() / max(1.0, ref.coeff_norm())


@st.composite
def _residual_pairs(draw):
    """(s, ref) sharing keys: split from one raw list, equal, or equal up to a
    relative change on both sides of the floor."""
    n, raw = draw(_raw_terms())
    k = draw(st.integers(0, len(raw)))
    s = Symbol(n, raw[:k])
    kind = draw(st.sampled_from(["split", "same", "near"]))
    if kind == "split":
        return s, Symbol(n, raw[k:])
    if kind == "same":
        return s, Symbol(n, s.terms)
    eps = draw(st.sampled_from([1e-13, -1e-13, 5e-13, 1e-12, 2e-12, 1e-9]))
    return s, s.scale(1 + eps)


@settings(max_examples=200, deadline=None)
@given(_residual_pairs())
@example((Z + 1, Z + 1))
@example((Z * (1 + 1e-12) + 1, Z + 1 + 1e-13))
# canonical order sums the squares as (1.574^2 + 2.357^2) + 1.611^2; the
# order of the merged map, (1.574^2 + 1.611^2) + 2.357^2, rounds differently
@example((constant(1, 1.574) + monomial(1, (2,), coef=1.611), monomial(1, (1,), coef=2.357)))
def test_relative_residual_equals_the_norm_of_the_difference_exactly(pair):
    s, ref = pair
    assert relative_residual(s, ref) == _reference_residual(s, ref)


def test_relative_residual_rejects_an_overflowing_difference():
    s, ref = constant(1, 1e308), constant(1, -1e308)
    for compute in (relative_residual, _reference_residual):
        with pytest.raises(ValueError, match="non-finite coefficient"):
            compute(s, ref)
    with pytest.raises(ValueError, match="dimension mismatch"):
        relative_residual(Z, constant(2, 1))


# -- laws on canonical keys ------------------------------------------------------------


def _same_keys_close_coefs(s, t):
    assert [(x.a, x.b, x.c, x.d) for x in s.terms] == [(x.a, x.b, x.c, x.d) for x in t.terms]
    scale = max([abs(x.coef) for x in s.terms + t.terms], default=0.0)
    for x, y in zip(s.terms, t.terms):
        assert abs(x.coef - y.coef) <= 1e-12 * scale


def _symbols(n):
    part = st.one_of(st.sampled_from(_PARAM_PARTS), st.floats(-2, 2))
    vec = st.tuples(*[st.builds(complex, part, part)] * n)
    zero = (0j,) * n
    # coefficient parts of one scale: the laws hold on keys only away from
    # sums that cancel to within the floor
    coef_part = st.one_of(st.just(0.0), st.floats(0.125, 2), st.floats(-2, -0.125))
    expo = st.tuples(*[st.integers(0, 2)] * n)
    raw = st.lists(
        st.builds(
            SymbolTerm,
            st.builds(complex, coef_part, coef_part),
            expo,
            expo,
            st.one_of(st.just(zero), vec),
            st.one_of(st.just(zero), vec),
        ),
        max_size=3,
    )
    return raw.map(lambda terms: Symbol(n, terms))


_symbol_triples = st.integers(1, 2).flatmap(lambda n: st.tuples(*[_symbols(n)] * 3))
# parameters that tolerance clustering merged in some summation orders only
_CLUSTER_TRIPLE = tuple(exponential(1, c=[x]) for x in (0.0, 0.6e-9, 1.2e-9))


@settings(max_examples=150, deadline=None)
@given(_symbol_triples)
@example(_CLUSTER_TRIPLE)
def test_add_and_mul_are_associative_and_commutative_on_keys(triple):
    s, t, u = triple
    _same_keys_close_coefs(s + t, t + s)
    _same_keys_close_coefs((s + t) + u, s + (t + u))
    _same_keys_close_coefs(s * t, t * s)
    _same_keys_close_coefs((s * t) * u, s * (t * u))


@settings(max_examples=150, deadline=None)
@given(_symbol_triples)
def test_mul_distributes_over_add(triple):
    s, t, u = triple
    assert relative_residual((s + t) * u, s * u + t * u) <= 1e-12
    assert relative_residual(u * (s + t), u * s + u * t) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(_symbols))
def test_conj_is_an_exact_involution(s):
    assert s.conj().conj() == s


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(_symbols))
def test_format_parse_round_trip_keeps_every_key(s):
    back = parse_symbol(format_symbol(s), s.n)
    assert [(t.a, t.b, t.c, t.d) for t in back.terms] == [(t.a, t.b, t.c, t.d) for t in s.terms]
    assert relative_residual(back, s) <= 1e-12


def _holomorphic_part(s):
    return Symbol(s.n, [t for t in s.terms if t.is_holomorphic])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(*[_symbols(n)] * 2)))
def test_no_operation_writes_an_operands_term_map(pair):
    # a Symbol is immutable only as long as no operation writes the dict it holds
    s, t = pair
    f, g = (_holomorphic_part(x) for x in pair)
    operations = {
        "+": lambda: s + t,
        "-": lambda: s - t,
        "*": lambda: s * t,
        "scale": lambda: s.scale(0.5j),
        "conj": lambda: s.conj(),
        "shift": lambda: f.shift([0.5 - 0.25j] * s.n),
        "dz": lambda: s.dz(s.n),
        "berezin": lambda: berezin(s),
        "sharp": lambda: sharp(f, g),
        "toeplitz_apply": lambda: toeplitz_apply(s, f),
        "relative_residual": lambda: relative_residual(s, t),
        "fock_inner": lambda: fock_inner(f, g),
        "symbol_integral": lambda: symbol_integral(s),
        "format_symbol": lambda: format_symbol(s),
    }

    def snapshot():
        return [list(x._map.items()) for x in (s, t, f, g)]

    before = snapshot()
    for name, operation in operations.items():
        operation()
        assert snapshot() == before, name


# parts that print and parse back exactly
_EXACT_PARTS = [0.0, -0.0, 0.5, -0.25, 1.0, -1.5, 3.0]


@st.composite
def _exact_symbols(draw):
    n = draw(st.integers(1, 3))
    part = st.sampled_from(_EXACT_PARTS)
    number = st.builds(complex, part, part)
    vec = st.tuples(*[number] * n)
    expo = st.tuples(*[st.integers(0, 2)] * n)
    return Symbol(n, draw(st.lists(st.builds(SymbolTerm, number, expo, expo, vec, vec), max_size=4)))


@settings(max_examples=150, deadline=None)
@given(_exact_symbols(), st.randoms(use_true_random=False))
# the text of a -0.0 parameter part parses back to 0.0: equal, so the same hash
@example(Symbol(1, [term(1, (1,), c=(complex(-0.0, 0.5),)), term(-1.5, (0,))]), random.Random(0))
def test_equality_and_hash_do_not_depend_on_construction_order(s, rng):
    terms = list(s.terms)  # canonical terms have distinct keys
    rng.shuffle(terms)
    for other in (Symbol(s.n, terms), Symbol(s.n, s.terms), parse_symbol(format_symbol(s), s.n)):
        assert other == s
        assert hash(other) == hash(s)


_BAD_PARTS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(min_value=PARAM_MAX, exclude_min=True, allow_infinity=False),
    st.floats(max_value=-PARAM_MAX, exclude_max=True, allow_infinity=False),
)


@settings(max_examples=100, deadline=None)
@given(_BAD_PARTS, st.booleans())
def test_parameters_out_of_range_raise(part, imaginary):
    x = complex(0, part) if imaginary else complex(part, 0)
    for build in (
        lambda: exponential(1, c=[x]),
        lambda: exponential(2, d=[0, x]),
        lambda: kernel([x]),
        lambda: Symbol(1, [term(1, (0,), c=(x,))]),
    ):
        with pytest.raises(ValueError):
            build()
    if math.isfinite(part):
        text = repr(abs(part)) + ("i" if imaginary else "")
        for source in (f"z1 + exp({text}*conj(z1))", f"z1 + K({text})"):
            with pytest.raises(SymbolSyntaxError, match="exponential parameter") as err:
                parse_symbol(source, 1)
            assert err.value.position == 5


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


def test_power_cap():
    assert Z**20 == monomial(1, (20,))
    for k in (21, 99999999):
        with pytest.raises(ValueError, match="above the cap 20"):
            (1 + Z) ** k


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


# -- conjugation ----------------------------------------------------------------


def test_conj_examples():
    s = monomial(1, (2,)) * exponential(1, c=[0.5 + 1j])
    sc = s.conj()
    t = sc.terms[0]
    assert t.a == (0,) and t.b == (2,)
    assert t.d == ((0.5 - 1j),) and t.c == (0j,)

    assert constant(1, 1j).conj().terms[0].coef == -1j


def test_conjugation_leaves_no_negative_zero():
    # conjugating 0.0 gives -0.0; the canonical map must not depend on it
    f = exponential(1, c=[0.5])
    for s in (Z.conj(), f.conj(), kernel([0.5]), sharp(Z, f), parse_symbol("conj(z1)", 1)):
        values = [x for (_, _, c, d), coef in s._map.items() for x in (*c, *d, coef)]
        parts = [p for x in values for p in (x.real, x.imag)]
        assert all(p or math.copysign(1, p) > 0 for p in parts), repr(s._map)
    assert repr(parse_symbol("conj(z1)", 1)._map) == repr(parse_symbol("conj(z1)^1", 1)._map)


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
    # (-eta)^2 = 1e310 overflows complex ** inside the binomial expansion
    with pytest.raises(ValueError, match="coefficient overflows the float range"):
        (Z**2).shift([1e155])
    # exp(-eta.c) = exp(-900) underflows: the shifted term may not vanish
    with pytest.raises(ValueError, match="exponential factor underflows the float range"):
        exponential(1, c=[30]).shift([30])


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
    with pytest.raises(ValueError, match="coordinate index must be an integer"):
        Z.dz(0.5)
    with pytest.raises(ValueError, match="coordinate index must be an integer"):
        coordinate(2, 1.5)
    assert Z.dz(1.0) == Z.dz(1) == constant(1, 1) and coordinate(2, 2.0) == coordinate(2, 2)


# -- evaluation ---------------------------------------------------------------------


def test_eval_examples():
    assert abs((Z * Z.conj()).eval([2j]) - 4) < 1e-14
    assert exponential(1, c=[0.3]).eval([0]) == 1
    w = (0.375 + 0.875j, -0.25j)  # on the parameter grid, so conj(w) is exact
    kw = kernel(w)
    norm2 = sum(abs(x) ** 2 for x in w)
    assert abs(kw.eval(w) - cmath.exp(norm2)) < 1e-12


def test_eval_rejects_a_value_beyond_the_float_range():
    # cmath.exp raises OverflowError here, and the power is (nan+nanj) without an error
    for s, at in ((exponential(1, c=[4000]), [1]), (monomial(1, (20,)), [1e300])):
        with pytest.raises(ValueError, match="overflows the float range"):
            s.eval(at)


def test_canonical_order_drops_a_zero_coefficient_of_a_lone_key():
    key = ((1,), (0,), (0j,), (0j,))
    assert list(_finish({key: 0j}, {})) == []
    assert list(_finish({key: 2j}, {})) == [key]
    assert list(_finish({}, {})) == []
    assert monomial(1, (1,), coef=0).is_zero
    assert monomial(1, (1,)).scale(0).is_zero


def test_finish_hands_back_a_map_in_order_and_orders_the_others():
    keys = [  # canonical order: degree, then a descending, then the parameters
        ((0,), (0,), (0j,), (0j,)),
        ((1,), (0,), (0j,), (0j,)),
        ((1,), (0,), (1j,), (0j,)),
        ((0,), (1,), (0j,), (0j,)),
        ((2,), (0,), (0j,), (0j,)),
    ]
    ordered = {key: complex(k + 1) for k, key in enumerate(keys)}
    assert _finish(ordered, {}) is ordered
    for m in ({key: ordered[key] for key in reversed(keys)}, {keys[2]: 3j, keys[1]: 2j}):
        out = _finish(dict(m), {})
        assert out == m and list(out) == [key for key in keys if key in m]
    # a zero is dropped, also from a map in order and from a lone monomial's keys
    with_zero = {**ordered, keys[3]: 0j}
    assert list(_finish(with_zero, {})) == keys[:3] + keys[4:]
    for m in ({keys[0]: 0j, keys[3]: 0j}, {keys[1]: 0j, keys[2]: 0j}, {keys[4]: 0j}, {}):
        assert _finish(m, {}) == {}


def test_degree_and_zero_reporting():
    assert zero(2).degree() == -1
    assert (Z * Z.conj()).degree() == 2
    assert zero(1).coeff_norm() == 0.0


def test_immutability():
    with pytest.raises(AttributeError):
        Z.n = 3
