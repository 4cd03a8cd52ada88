"""Multi-index arithmetic: exponent tuples for C^n.

A multi-index is a tuple of non-negative integers, one entry per complex
coordinate.  Everything downstream (monomials, derivatives, binomial
expansions, basis enumeration) is driven by the three functions here.
All arithmetic is exact integer arithmetic; single exponents are capped
at 20 so every factorial and binomial stays losslessly convertible to a
double.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import Iterable

MultiIndex = tuple[int, ...]

#: largest single exponent for which i! still converts losslessly to float
MAX_EXPONENT = 20


def as_multi_index(i: Iterable[int]) -> MultiIndex:
    """Validate and normalize to a tuple of non-negative ints; ValueError for an
    entry that is not an integer (1.5, "1", nan), where int() would truncate."""
    raw = tuple(i)
    try:
        t = tuple(map(int, raw))
    except (TypeError, ValueError, OverflowError):
        t = None
    if t != raw:  # 1.5 != 1 and "1" != 1, but 2.0 == 2 and True == 1
        raise ValueError(f"multi-index entries must be integers: {raw}")
    if len(t) < 1:
        raise ValueError("multi-index must have at least one entry")
    if any(k < 0 for k in t):
        raise ValueError(f"multi-index entries must be non-negative: {t}")
    return t


def _as_int(k, name: str) -> int:
    """k as an int, by the rule of as_multi_index: ValueError naming the argument for a
    value that is not an integer (2.5, "2", nan), which int() would truncate or parse."""
    try:
        if int(k) == k:
            return int(k)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be an integer, got {k!r}")


def mi_order(i: MultiIndex) -> int:
    """Total order |i| = sum of entries."""
    return sum(i)


def mi_binomial(i: MultiIndex, l: MultiIndex) -> int:
    """Componentwise product of binomial coefficients, prod_k C(i_k, l_k).

    Requires l <= i componentwise; callers always enumerate l below i, so a
    violation indicates a caller bug rather than bad user input.
    """
    if len(i) != len(l):
        raise ValueError(f"dimension mismatch: {len(i)} vs {len(l)}")
    if any(lk < 0 or lk > ik for ik, lk in zip(i, l)):
        raise ValueError(f"lower index {l} not componentwise <= {i}")
    out = 1
    for ik, lk in zip(i, l):
        out *= math.comb(ik, lk)
    return out


def mi_factorial(i: MultiIndex) -> int:
    """Componentwise factorial product, prod_k i_k!.

    Exponents above MAX_EXPONENT are rejected: beyond that the exact integer
    no longer survives the round trip through double precision that the
    numeric layers rely on.
    """
    if any(k > MAX_EXPONENT for k in i):
        raise ValueError(
            f"exponent above {MAX_EXPONENT} in {i}; exact-arithmetic cap exceeded"
        )
    out = 1
    for k in i:
        out *= math.factorial(k)
    return out


def mi_enumerate(n: int, max_order: int) -> list[MultiIndex]:
    """All multi-indices of length n with |alpha| <= max_order, graded-lex.

    Graded-lex: ascending total order, then z_1-major lexicographic within
    each order (so for n=2: (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), ...).
    The order is the canonical basis order for every report in the package.
    Each call returns a new list; the enumeration itself is cached.
    """
    return list(_enumerate(_as_int(n, "dimension"), _as_int(max_order, "order bound")))


@lru_cache(maxsize=64)
def _enumerate(n: int, max_order: int) -> tuple[MultiIndex, ...]:
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if max_order < 0:
        raise ValueError("order bound must be >= 0")
    out = [
        alpha
        for alpha in product(range(max_order + 1), repeat=n)
        if sum(alpha) <= max_order
    ]
    out.sort(key=grlex_key)
    return tuple(out)


def grlex_key(alpha: MultiIndex):
    """Sort key implementing the graded-lex order used by mi_enumerate."""
    return (sum(alpha), tuple(-k for k in alpha))
