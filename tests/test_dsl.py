import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcalc import berezin, dsl, sharp, symbols
from fockcalc.dsl import (
    MAX_NESTING,
    SymbolSyntaxError,
    format_symbol,
    parse_complex,
    parse_symbol,
)
from fockcalc.suites import random_holo
from fockcalc.symbols import (
    Symbol,
    SymbolTerm,
    coordinate,
    exponential,
    kernel,
    monomial,
    relative_residual,
    zero,
)


def test_parse_basic_monomials():
    s = parse_symbol("z1*conj(z1)", 1)
    assert s == coordinate(1, 1) * coordinate(1, 1).conj()


def test_parse_exponential():
    s = parse_symbol("3*exp(z1)", 1)
    assert relative_residual(s, exponential(1, c=[1], coef=3)) == 0.0


def test_parse_kernel():
    s = parse_symbol("K(1,0)", 2)
    assert s == kernel([1, 0])
    t = parse_symbol("K(-6.283185307179586i, 1+2i)", 2)
    assert t == kernel([-6.283185307179586j, 1 + 2j])


def test_parse_powers_and_sums():
    s = parse_symbol("z1^3 - 2*z1 + (0.5-0.25i)", 1)
    z = coordinate(1, 1)
    assert relative_residual(s, z**3 - 2 * z + (0.5 - 0.25j)) == 0.0


def test_parse_exponent_cap():
    assert parse_symbol("z1^20", 1) == monomial(1, (20,))
    for text in ("z1^21", "(z1 + 1)^99999999", "z1^99999999"):
        start = time.perf_counter()
        with pytest.raises(SymbolSyntaxError, match="above the cap 20") as err:
            parse_symbol(text, 1)
        assert err.value.position == text.index("^")
        assert time.perf_counter() - start < 1.0


def test_parse_nonlinear_exp_rejected():
    with pytest.raises(SymbolSyntaxError) as err:
        parse_symbol("exp(z1^2)", 1)
    assert err.value.position == 0
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("exp(exp(z1))", 1)


def test_parse_exp_constant_folds():
    s = parse_symbol("exp(1 + z1)", 1)
    import math

    assert abs(s.terms[0].coef - math.e) < 1e-14
    assert s.terms[0].c == (1 + 0j,)


def test_structured_diagnostics_carry_positions():
    cases = [
        ("", 0),
        ("z1 +", 4),
        ("z1 * * z1", 5),
        ("q + 1", 0),
        ("z0", 0),
        ("z3", 0),  # out of range at n = 2
        ("conj(z1", 7),
        ("K(1)", 0),  # arity at n = 2
        ("1 @ 2", 2),
        ("(1+2i", 5),
        ("1e400 - 1e400 + z1", 0),  # inf - inf must not cancel to z1
        ("1e400*z1", 0),
        ("z1 + 2e400i", 5),
    ]
    for text, pos in cases:
        with pytest.raises(SymbolSyntaxError) as err:
            parse_symbol(text, 2)
        assert err.value.position == pos, (text, err.value.position)


def test_arithmetic_overflow_rejected():
    # every literal is finite; the product or sum is not.  A product raises
    # before the rest of the text is read, and x^0 does not drop an overflowed x.
    for text in (
        "1e308*10",
        "1e308*10*0",
        "1e200*z1 * 1e200*conj(z1)",
        "1e308*10 + exp(z1^2)",
        "(1e308*10)^0",
        "(1e308 + 1e308)^0",
    ):
        with pytest.raises(ValueError, match="non-finite coefficient"):
            parse_symbol(text, 1)


def test_parameter_overflow_rejected():
    # an exp or K parameter part above 2^12 in magnitude is a syntax error at its position
    for text, pos in (
        ("exp(1e308*z1)^2", 0),
        ("z1 + exp(5000i*conj(z1))", 5),
        ("z1*K(4096.5)", 3),
        ("exp(0.5*z1 - 1e308*z1)", 0),
        ("exp(5000*z1) + exp(5000*z1)", 0),  # a repeated argument fails at its first
    ):
        with pytest.raises(SymbolSyntaxError, match="exponential parameter") as err:
            parse_symbol(text, 1)
        assert err.value.position == pos, text
    assert parse_symbol("exp(4096*z1 - 4096i*conj(z1))", 1).terms[0].c == (4096,)
    # a product whose parameters leave the range is a syntax error at its operator,
    # before a later product can add parameters above 2^13, where sums are inexact
    e, m = "exp(3740.3862791*z1)", "exp(-3740.3862791*z1)"
    for text, pos in (
        ("exp(3000*z1)^2", 12),
        ("exp(3000*conj(z1))*exp(3000*conj(z1))", 18),
        ("*".join([e] * 3 + [m] * 3), len(e)),
    ):
        with pytest.raises(SymbolSyntaxError, match="exponential parameter") as err:
            parse_symbol(text, 1)
        assert err.value.position == pos, text
    assert parse_symbol(f"exp(2000*z1)^2*{m}*exp(3740.3862791*z1)", 1).terms[0].c == (4000,)
    with pytest.raises(ValueError, match="finite"):
        exponential(1, c=[float("nan")])
    with pytest.raises(ValueError, match="finite"):
        kernel([complex(0, float("inf"))])


def test_parameters_are_exact_on_the_grid():
    # the parameters of a product add exactly, so they cancel to an exact 0
    text = "exp(0.1*conj(z1))*exp(0.2*conj(z1))*exp(-0.3*conj(z1))"
    assert parse_symbol(text, 1) == parse_symbol("1", 1)
    # a parameter prints as the shortest decimal that parses back to it
    assert format_symbol(parse_symbol("exp(0.2*z1)", 1)) == "exp(0.2*z1)"
    assert format_symbol(kernel([0.1 - 1234.5678j])) == "exp((0.1+1234.5678i)*z1)"
    # at the edge of the range a shorter decimal would leave it (4.1e+03 > 2^12)
    text = "exp(4096*z1 - 4095.99*conj(z1))"
    assert format_symbol(parse_symbol(text, 1)) == text


def test_parse_drops_only_cancellation_noise():
    # 0.1 + 0.2 - 0.3 and 0.1*3 - 0.3 leave float noise; 1e-13 is a value
    assert format_symbol(parse_symbol("0.1*z1 + 0.2*z1 - 0.3*z1 + 1e-13", 1)) == "1e-13"
    assert format_symbol(parse_symbol("(0.1*z1 + 0.3)*(3 - z1)", 1)) == "0.9 - 0.1*z1^2"


def test_parse_does_not_depend_on_term_order():
    # the relative floor applies once, to the whole result, not to each partial sum
    for text in ("1e20*z1 + 1e5*z2 - 1e20*z1", "1e20*z1 - 1e20*z1 + 1e5*z2"):
        assert format_symbol(parse_symbol(text, 2)) == "100000*z2"


def count_canonicalizations(monkeypatch, text, n):
    calls = []
    finish = symbols._finish

    def counting(*args):
        calls.append(None)
        return finish(*args)

    monkeypatch.setattr(symbols, "_finish", counting)
    parse_symbol(text, n)
    return len(calls)


def test_parse_canonicalizes_once(monkeypatch):
    poly = " + ".join(f"{k}*z1^{k % 7}*conj(z2)^{k % 5}" for k in range(1, 501))
    assert count_canonicalizations(monkeypatch, poly, 2) == 1
    # an exp argument is lowered from its term map, without canonicalization
    exps = " - ".join(f"{k}*z2*exp({k}*z1 - 0.5*conj(z2))" for k in range(1, 41))
    assert count_canonicalizations(monkeypatch, exps, 2) == 1


#: the parser's tokens, some repeated so that exp arguments recur; no exponent
#: of 20, whose nested powers would be slow to multiply out
FUZZ_TOKENS = [
    "z1", "z2", "z3", "conj", "exp", "K", "(", ")", "+", "-", "*", "^", ",", " ",
    "0", "1", "2", "3", "21", "0.5", "2.5e3", "1e400", "0.25i", "i", "@", ".", "exp(z1)",
    "exp(", "(1-2i)", "5000",
]


@settings(max_examples=400, deadline=500)
@given(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=24).map("".join), st.integers(1, 3))
def test_parse_fuzz_raises_only_value_errors_with_positions(text, n):
    try:
        parse_symbol(text, n)
    except SymbolSyntaxError as exc:
        assert 0 <= exc.position <= len(text), (text, exc.position)
    except ValueError:
        pass


@pytest.mark.parametrize(
    "text, pos",
    [
        ("(" * 2000 + "1" + ")" * 2000, 101),
        ("conj(" * 600 + "z1" + ")" * 600, 505),
        ("exp(" * 2000 + "z1" + ")" * 2000, 404),
    ],
    ids=["parentheses", "conj", "exp"],
)
def test_deep_nesting_is_a_syntax_error(text, pos):
    with pytest.raises(SymbolSyntaxError, match=f"nested deeper than {MAX_NESTING}") as err:
        parse_symbol(text, 1)
    assert err.value.position == pos


def test_nesting_up_to_the_cap_parses():
    # each of these nests its brackets MAX_NESTING deep, through the most frames per level
    for open_, close in (("(", ")"), ("1*(", ")"), ("conj(-2*", ")"), ("K(0*", ")")):
        text = open_ * MAX_NESTING + "0" + close * MAX_NESTING
        parse_symbol(text, 1)
        with pytest.raises(SymbolSyntaxError, match="nested deeper"):
            parse_symbol(open_ + text + close, 1)


def _best_parse_time(text: str, n: int) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        parse_symbol(text, n)
        times.append(time.perf_counter() - start)
    return min(times)


def _long_affine_sum() -> str:
    # 20,000 affine terms; the signs of each coordinate's terms alternate, so its
    # parameter stays in range
    terms = "".join(
        f"{' - ' if k // 2 % 2 else ' + '}(0.{k}-1i)*conj(z{1 + k % 2})" for k in range(20000)
    )
    return terms[3:]


def test_long_exp_argument_parses_in_linear_time():
    body = _long_affine_sum()
    assert len(body) > 400_000
    assert _best_parse_time(f"exp({body})", 2) < 3 * _best_parse_time(f"({body})", 2)


def test_exp_memo_lookup_scans_no_further_than_its_longest_argument(monkeypatch):
    windows = []  # characters each lookup may scan for its closing ")"

    def counting(text, start, stop):
        windows.append(min(stop, len(text)) - start)
        return closing(text, start, stop)

    closing = dsl._closing
    monkeypatch.setattr(dsl, "_closing", counting)
    body = _long_affine_sum()
    # every "exp(" is entered before any argument is stored: no lookup scans
    with pytest.raises(SymbolSyntaxError) as got:
        parse_symbol("exp(" * 99 + body + ")" * 99, 2)
    assert (got.value.message, got.value.position) == ("exp argument must not contain exp", 388)
    assert windows == []
    # "z1" is stored first, so each later lookup scans at most len("z1)") characters
    with pytest.raises(SymbolSyntaxError) as got:
        parse_symbol("exp(z1)*" + "conj(exp(" * 49 + body + "))" * 49, 2)
    assert (got.value.message, got.value.position) == ("exp argument must not contain exp", 436)
    assert len(windows) == 49 and sum(windows) == 49 * 3
    # a hit still skips the argument
    windows.clear()
    assert parse_symbol(f"exp({body})*exp({body})", 2) == parse_symbol(f"exp({body})^2", 2)
    assert len(windows) == 1 and windows[0] == len(body) + 1


def test_parse_peak_memory_stays_small():
    rng = random.Random(31)
    f, g = (random_holo(rng, 3, 6, max_terms=3, blocks=3) for _ in range(2))
    text = format_symbol(sharp(f, g) * f)
    assert len(text) > 75_000
    parse_symbol(text, 3)  # warm-up: state built once per process is not the parse's
    tracemalloc.start()
    try:
        parse_symbol(text, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 500_000


def _outcome(text: str, n: int):
    """The parsed map's repr, which shows the sign of every zero, or the error."""
    try:
        return repr(list(parse_symbol(text, n)._map.items()))
    except SymbolSyntaxError as exc:
        return exc.message, exc.position
    except ValueError as exc:
        return type(exc).__name__, str(exc)


E = "exp(0.5*z1 + 0.25i*z2)"  # conj of it has d parameters, with zero parts 0.0 (not -0.0)
F, G = "exp((0.25+0.5i)*z2)", "exp(-0.5i*conj(z2))"


@pytest.mark.parametrize(
    "read, declined",
    [
        # coordinate powers: a space, a bracket or a further "^" leaves them to factor()
        ("(0.5-0.25i)*z1^3*z2", "(0.5-0.25i)*(z1)^3*(z2)"),
        ("z1^2*conj(z2)^3 - z2", "z1 ^ 2*conj(z2) ^ 3 - (z2)"),
        (f"conj({E})*z1", f"conj({E})*z1 ^ 1"),
        (f"conj({E})*conj(z1)", f"conj({E})*conj( z1)"),
        (f"conj({E})*conj(z2)^0*z1^0", f"conj({E})*conj( z2)^0*z1 ^ 0"),
        ("conj(2)*conj(z1)^2*conj(z2)", "conj(2)*conj( z1)^2*conj( z2)"),
        ("-z1^20*z1^20*z2^0", "-(z1)^20*(z1)^20*(z2)^0"),
        # a repeated exp factor: "exp (" or a bracket leaves it to base()
        ("exp(z1)*exp(z1)", "exp(z1)*exp (z1)"),
        ("exp(z1)*exp(z1)^2", "exp(z1)*(exp(z1))^2"),
        (f"0.5*z1*{F} - 0.5i*z2^2*{F}*{F}", f"0.5*z1*{F} - 0.5i*z2^2*{F}*exp {F[3:]}"),
        (f"conj(2)*{G}*{G}", f"conj(2)*{G}*exp {G[3:]}"),
        # complex literals: a bracketed part leaves them to expr()
        ("(0.5-0.25i)*z1", "(0.5-(0.25i))*z1"),
        ("(-0-0i)*z1 + (-0.5+0i) + (1i+2)", "(-0-(0i))*z1 + (-0.5+(0i)) + (1i+(2))"),
        ("(1-0.9999999999999)*z1 + z2", "(1-(0.9999999999999))*z1 + z2"),
        ("(1e308 + 1e308)^0", "(1e308 + (1e308))^0"),
        ("(1e308 + 1e308i)*z1", "(1e308 + (1e308i))*z1"),
    ],
)
def test_one_step_reads_give_the_bits_of_the_general_path(read, declined):
    assert _outcome(read, 2) == _outcome(declined, 2)


@pytest.mark.parametrize(
    "text, n, message, pos",
    [
        ("z1^2.5", 1, "expected a non-negative integer", 3),
        ("z1^2^3", 1, "unexpected trailing input '^'", 4),
        ("z1^21", 1, "exponent 21 is above the cap 20", 2),
        ("2*z1*z0", 2, "coordinate z0 out of range 1..2", 5),
        ("2*conj(z3)^2", 2, "coordinate z3 out of range 1..2", 7),
        ("z3", 2, "coordinate z3 out of range 1..2", 0),
        ("z12^2.5", 2, "coordinate z12 out of range 1..2", 0),
        ("(" * 100 + "1*conj(z1)" + ")" * 100, 1, "brackets nested deeper than 100", 107),
        (
            "exp(3000*z1)*exp(3000*z1)", 1,
            "exponential parameter part 6000.0 is not finite or above 2^12 in magnitude", 12,
        ),
        ("exp(z1)*exp(z1)^21", 1, "exponent 21 is above the cap 20", 15),
    ],
)
def test_one_step_reads_leave_diagnostics_to_the_general_path(text, n, message, pos):
    with pytest.raises(SymbolSyntaxError) as err:
        parse_symbol(text, n)
    assert (err.value.message, err.value.position) == (message, pos)


def test_literal_sum_that_overflows_is_not_dropped_as_noise():
    # inf is no cancellation noise of two finite summands: x^0 checks it and raises
    with pytest.raises(ValueError, match=r"non-finite coefficient \(inf\+0j\)"):
        parse_symbol("(1e308 + 1e308)^0", 1)


def test_trailing_input_rejected():
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("z1 z1", 1)


def test_format_zero():
    assert format_symbol(zero(3)) == "0"


def test_format_merges_canonically():
    assert format_symbol(parse_symbol("z1 + z1", 1)) == "2*z1"


def test_format_splits_exponents_above_the_cap():
    z = coordinate(1, 1)
    assert format_symbol(z**20 * z) == "z1^20*z1"
    assert format_symbol(z**20 * z**20 * z.conj() ** 20 * z.conj() ** 3) == (
        "z1^20*z1^20*conj(z1)^20*conj(z1)^3"
    )
    assert format_symbol(z**20) == "z1^20"
    s = coordinate(2, 2) ** 20 * coordinate(2, 2) ** 5 * coordinate(2, 1).conj() ** 20
    s = s * coordinate(2, 1).conj() * exponential(2, c=[0.5, 0], coef=2)
    assert format_symbol(s) == "2*z2^20*z2^5*conj(z1)^20*conj(z1)*exp(0.5*z1)"
    assert parse_symbol(format_symbol(s), 2) == s
    for t in (z**20 * z, z**20 * z * z.conj() ** 20 * z.conj() ** 2):
        assert parse_symbol(format_symbol(t), 1) == t
    # berezin of z^25 conj(z)^25 has the terms z^k conj(z)^k, k = 0..25
    b = berezin(monomial(1, (25,), b=(25,)))
    back = parse_symbol(format_symbol(b), 1)
    assert list(back._map) == list(b._map)
    assert relative_residual(back, b) <= 1e-12


def test_format_renders_each_term_its_own_exponential():
    # terms share c, d or both with other terms
    text = "3 + 2*exp(z1) + exp(z1 + conj(z1)) - z1*exp(z1) + z1*exp(z1 + conj(z1))"
    assert format_symbol(parse_symbol(text, 1)) == text


def test_format_signs_and_complex_coefficients():
    s = parse_symbol("-z1 + (1-2i)*z2 - 0.5i", 2)
    text = format_symbol(s)
    assert format_symbol(parse_symbol(text, 2)) == text
    assert relative_residual(parse_symbol(text, 2), s) <= 1e-12


def random_symbol(rng, n):
    raw = []
    for _ in range(rng.randint(1, 5)):
        a = tuple(rng.randint(0, 3) for _ in range(n))
        b = tuple(rng.randint(0, 2) for _ in range(n))
        coef = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if rng.random() < 0.5:
            c = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n))
            d = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n))
        else:
            c = d = (0j,) * n
        raw.append(SymbolTerm(coef, a, b, c, d))
    return Symbol(n, raw)


def test_round_trip_100_random_symbols():
    rng = random.Random(0xF0CC)
    for _ in range(100):
        n = rng.randint(1, 3)
        s = random_symbol(rng, n)
        back = parse_symbol(format_symbol(s), n)
        assert relative_residual(back, s) <= 1e-12


def test_format_parse_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 2)
        text = format_symbol(random_symbol(rng, n))
        once = format_symbol(parse_symbol(text, n))
        twice = format_symbol(parse_symbol(once, n))
        assert once == twice


def test_parse_complex_values():
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-0.5i") == -0.5j
    assert parse_complex("3") == 3
    with pytest.raises(SymbolSyntaxError):
        parse_complex("z1")
