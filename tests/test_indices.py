import math
import random

import pytest

from fockcalc.indices import (
    MAX_EXPONENT,
    as_multi_index,
    grlex_key,
    mi_binomial,
    mi_enumerate,
    mi_factorial,
)


def pascal_table(size):
    """Brute-force Pascal triangle, the independent oracle for binomials."""
    t = [[0] * (size + 1) for _ in range(size + 1)]
    for n in range(size + 1):
        t[n][0] = 1
        for k in range(1, n + 1):
            t[n][k] = t[n - 1][k - 1] + t[n - 1][k]
    return t


PASCAL = pascal_table(20)


def count_bounded(n, max_order):
    """Exhaustive count of multi-indices with |alpha| <= max_order."""
    if n == 1:
        return max_order + 1
    return sum(count_bounded(n - 1, max_order - k) for k in range(max_order + 1))


def test_binomial_examples():
    assert mi_binomial((2, 1), (1, 1)) == 2
    assert mi_binomial((3,), (0,)) == 1
    # oracle: product of Pascal entries C(4,2)*C(2,2)*C(1,0) = 6*1*1
    expected = PASCAL[4][2] * PASCAL[2][2] * PASCAL[1][0]
    assert expected == 6
    assert mi_binomial((4, 2, 1), (2, 2, 0)) == 6


def test_binomial_matches_pascal_oracle():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 4)
        i = tuple(rng.randint(0, 8) for _ in range(n))
        l = tuple(rng.randint(0, ik) for ik in i)
        expected = 1
        for ik, lk in zip(i, l):
            expected *= PASCAL[ik][lk]
        assert mi_binomial(i, l) == expected


def test_binomial_errors():
    with pytest.raises(ValueError):
        mi_binomial((1, 2), (1,))
    with pytest.raises(ValueError):
        mi_binomial((1, 2), (2, 0))


def test_binomial_edge_identities():
    rng = random.Random(11)
    for _ in range(50):
        i = tuple(rng.randint(0, 6) for _ in range(rng.randint(1, 3)))
        assert mi_binomial(i, i) == 1
        assert mi_binomial(i, (0,) * len(i)) == 1


def test_binomial_row_sums():
    # sum over l <= i of C(i, l) is 2^{|i|}
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 3)
        i = tuple(rng.randint(0, 4) for _ in range(n))
        if sum(i) > 12:
            continue
        total = 0
        for alpha in mi_enumerate(n, sum(i)):
            if all(ak <= ik for ak, ik in zip(alpha, i)):
                total += mi_binomial(i, alpha)
        assert total == 2 ** sum(i)


def test_factorial_examples():
    assert mi_factorial((0, 0)) == 1
    assert mi_factorial((3, 2)) == 12
    assert mi_factorial((5,)) == 120


def test_factorial_cap():
    assert mi_factorial((MAX_EXPONENT,)) == math.factorial(MAX_EXPONENT)
    with pytest.raises(ValueError):
        mi_factorial((MAX_EXPONENT + 1,))


def test_factorial_survives_float_round_trip():
    for k in range(MAX_EXPONENT + 1):
        v = mi_factorial((k,))
        assert int(float(v)) == v


def test_enumerate_examples():
    assert mi_enumerate(2, 1) == [(0, 0), (1, 0), (0, 1)]
    assert len(mi_enumerate(2, 2)) == 6
    # stars-and-bars oracle: C(3+4, 3) = 35 by exhaustive recursion
    assert count_bounded(3, 4) == 35
    assert len(mi_enumerate(3, 4)) == 35


def test_enumerate_count_and_uniqueness():
    for n in (1, 2, 3):
        for deg in (0, 1, 3, 5):
            out = mi_enumerate(n, deg)
            assert len(out) == math.comb(n + deg, n)
            assert len(set(out)) == len(out)
            assert all(sum(a) <= deg for a in out)


def test_enumerate_graded_lex_order():
    out = mi_enumerate(2, 2)
    assert out == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert out == sorted(out, key=grlex_key)


def test_enumerate_returns_a_new_list_each_call():
    out = mi_enumerate(2, 2)
    out.append((9, 9))
    out[0] = (5, 5)
    assert mi_enumerate(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert mi_enumerate(2, 2) is not mi_enumerate(2, 2)


def test_enumerate_errors():
    with pytest.raises(ValueError):
        mi_enumerate(0, 2)
    with pytest.raises(ValueError):
        mi_enumerate(2, -1)


@pytest.mark.parametrize("n, max_order", [(2, 2.5), (2.5, 2), ("2", 2), (2, math.nan)])
def test_enumerate_rejects_sizes_that_are_not_integers(n, max_order):
    with pytest.raises(ValueError, match="must be an integer"):
        mi_enumerate(n, max_order)
    assert mi_enumerate(2.0, True) == mi_enumerate(2, 1)


@pytest.mark.parametrize("entries", [(1.5,), (0, 0.5), (math.nan,), (math.inf,), ("1",), (None,)])
def test_as_multi_index_rejects_entries_that_are_not_integers(entries):
    with pytest.raises(ValueError, match="multi-index entries must be integers"):
        as_multi_index(entries)


def test_as_multi_index_normalizes_integral_entries_to_ints():
    t = as_multi_index([2.0, True, 0])
    assert t == (2, 1, 0) and all(type(k) is int for k in t)
    with pytest.raises(ValueError, match="non-negative"):
        as_multi_index([-1])
    with pytest.raises(ValueError, match="at least one entry"):
        as_multi_index([])
