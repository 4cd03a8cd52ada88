"""Canonical algebra of polynomial-times-exponential symbols on C^n.

A term denotes the function

    z |-> coef * z^a * conj(z)^b * exp(z.c + conj(z).d)

with z.c = sum_k z_k c_k bilinear (no conjugation).  A Symbol is a finite
canonical sum of such terms.  The class is closed under products, Wirtinger
derivatives, conjugation, argument shifts and every operator computed by
this package, which is what makes all the operator identities exactly
checkable.

Holomorphic symbols are plain Symbols whose terms all have b = 0 and d = 0
(`is_holomorphic`); operations that only make sense there (shift) enforce
it at runtime.

Canonical form: each real and imaginary part of an exponential parameter
is a multiple of PARAM_STEP = 2^-40 of magnitude at most PARAM_MAX = 2^12,
so term keys (a, b, c, d) compare exactly with ==.  Parameters are snapped
to this grid only where they enter: in Symbol(n, terms), which keeps a
vector already on the grid as it is (a -0.0 stays), in the exp and K of
the parser, and in gaussian_moment; a part that is not finite or out of
range raises ValueError.  Inside, parameters are only added, negated and
conjugated, which is exact below 2^13, so only the two rules that add them
check the range: `_product` and the t.c + s.c of toeplitz_apply.  Terms
with equal keys merge.  A merged coefficient is dropped when it is 0, or
when two or more summands met at its key and its modulus is at most
COEF_FLOOR = 1e-12 times the sum of theirs: only cancellation noise goes,
however small a term is next to the others.  Terms are ordered graded-lex
on (a, b), then lexicographically on the real/imaginary parts of (c, d);
the zero symbol has no terms.  A coefficient that is not finite, or whose
modulus overflows, raises ValueError.

A Symbol holds n and its canonical term map {(a, b, c, d): coef}, in
canonical order; `terms`, the public tuple of SymbolTerm, is built from it
on each access.  The package's own operations read these maps, merge each
result once into a term map (`_merge`, `_expand`), hand it to the private
constructor Symbol._of to finish, and never write a symbol's map.
`_product` is the one product rule, for Symbol.__mul__ and for `dsl`.

Only this closed class is representable: no power series, no essential
singularities.  General symbols of at-most-Gaussian growth exist beyond it,
but every formula the package verifies restricts exactly to this class.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import add
from typing import Iterable

from .indices import MAX_EXPONENT, MultiIndex, as_multi_index

#: exponential parameter parts are rounded to multiples of this grid step
PARAM_STEP = 2.0**-40

#: largest magnitude of an exponential parameter part
PARAM_MAX = 2.0**12

#: a merged coefficient at most this times its summands' moduli is cancellation noise
COEF_FLOOR = 1e-12

ComplexVector = tuple[complex, ...]


@dataclass(frozen=True)
class SymbolTerm:
    """One canonical term coef * z^a * conj(z)^b * exp(z.c + conj(z).d)."""

    coef: complex
    a: MultiIndex
    b: MultiIndex
    c: ComplexVector
    d: ComplexVector

    @property
    def degree(self) -> int:
        return sum(self.a) + sum(self.b)

    @property
    def is_holomorphic(self) -> bool:
        return all(k == 0 for k in self.b) and all(x == 0 for x in self.d)


def _as_cvector(v, n: int) -> ComplexVector:
    if v is None:
        return (0j,) * n
    t = tuple(complex(x) for x in v)
    if len(t) != n:
        raise ValueError(f"expected a length-{n} complex vector, got length {len(t)}")
    if not all(map(cmath.isfinite, t)):
        raise ValueError(f"expected finite complex entries, got {t}")
    return t


def _in_range(v: ComplexVector) -> ComplexVector:
    """v; ValueError if a part of it is not finite or above PARAM_MAX in magnitude."""
    for x in v:
        for p in (x.real, x.imag):
            if not abs(p) <= PARAM_MAX:  # also rejects nan
                raise ValueError(
                    f"exponential parameter part {p!r} is not finite or above 2^12 in magnitude"
                )
    return v


def _snap(v: Iterable[complex]) -> ComplexVector:
    """v with each part rounded to the grid; ValueError for a part out of range."""
    return tuple(
        complex(round(x.real / PARAM_STEP) * PARAM_STEP, round(x.imag / PARAM_STEP) * PARAM_STEP)
        for x in _in_range(tuple(v))
    )


def _exp_factor(u: ComplexVector, v: ComplexVector) -> complex:
    """exp(u.v), the constant factor of a closed term rule; ValueError if it is not finite
    or 0, which would drop a nonzero term."""
    try:
        out = cmath.exp(sum(x * y for x, y in zip(u, v)))
    except OverflowError:
        out = math.inf
    if not cmath.isfinite(out):
        raise ValueError("exponential factor overflows the float range")
    if not out:
        raise ValueError("exponential factor underflows the float range")
    return out


def _vec_sort_key(v: ComplexVector):
    return tuple(p for x in v for p in (x.real, x.imag))


def _ab_sort_key(ab):
    # Sorted in reverse, this is the graded-lex order: ascending degree, then
    # descending a, then descending b.  No two monomials tie, so reversing
    # cannot reorder equal keys.
    return (-sum(ab[0]) - sum(ab[1]), ab)


def _param_sort_key(key):
    return (_vec_sort_key(key[2]), _vec_sort_key(key[3]))


def _checked(m: dict) -> dict:
    """The term map m; ValueError if a coefficient is not finite or its modulus overflows.

    Finite moduli can still sum to inf, so only a failed sum pays for the per-term test.
    """
    try:
        total = sum(map(abs, m.values()))
    except OverflowError:  # finite parts, modulus beyond the float range
        raise ValueError("coefficient modulus overflows the float range") from None
    if not math.isfinite(total) and not all(map(cmath.isfinite, m.values())):
        (a, b, _, _), x = next((key, x) for key, x in m.items() if not cmath.isfinite(x))
        raise ValueError(f"non-finite coefficient {x} at z^{a} conj(z)^{b}")
    return m


def _merge(out: dict, mass: dict, items: Iterable[tuple]) -> dict:
    """Add each (key, coef) of items into the term map out; mass[key] sums the moduli
    of the summands of each key that receives two or more (a lone one is no noise)."""
    for key, x in items:
        y = out.get(key)
        if y is None:
            out[key] = x
        else:
            out[key] = y + x
            try:
                mass[key] = mass.get(key, abs(y)) + abs(x)
            except OverflowError:  # finite parts, modulus beyond the float range
                mass[key] = math.inf
    return out


def _drop_noise(m: dict, mass: dict) -> dict:
    """m without the keys whose coefficient is at most COEF_FLOOR times mass[key]
    (see _merge); a key whose mass overflows stays."""
    for key, s in mass.items():
        if COEF_FLOOR * s < math.inf and abs(m[key]) <= COEF_FLOOR * s:
            del m[key]
    return m


def _tidy(m: dict, mass: dict) -> dict:
    """The merged term map m (see _merge for mass), without cancellation noise or zeros."""
    return {key: x for key, x in _drop_noise(m, mass).items() if x}


def _on_grid(v: ComplexVector) -> ComplexVector:
    """v if it is on the grid already (a -0.0 stays), else v snapped to it."""
    w = _snap(v) if any(v) else v
    return v if w == v else w


def _keyed(n: int, raw: Iterable[SymbolTerm]):
    """The items of the public terms raw: exponents as ints, parameters on the grid."""
    for t in raw:
        if len(t.a) != n or len(t.b) != n or len(t.c) != n or len(t.d) != n:
            raise ValueError(f"term dimension mismatch (expected n={n}): {t}")
        a, b = as_multi_index(t.a), as_multi_index(t.b)
        yield (a, b, _on_grid(t.c), _on_grid(t.d)), complex(t.coef)


def _canonical_order(m: dict) -> list[tuple]:
    """The keys of the term map m whose coefficient is nonzero, in canonical order."""
    if len(m) < 2:
        return [key for key, x in m.items() if x]
    by_ab: dict[tuple, list[tuple]] = {}
    for key, x in m.items():
        if x:
            by_ab.setdefault(key[:2], []).append(key)
    out = []
    for ab in sorted(by_ab, key=_ab_sort_key, reverse=True) if len(by_ab) > 1 else by_ab:
        keys = by_ab[ab]
        if len(keys) > 1:  # sort each monomial's keys on their own
            keys.sort(key=_param_sort_key)
        out += keys
    return out


def _finish(m: dict, mass: dict) -> dict:
    """The term map m, merged with mass (see _merge), checked, without noise, in order."""
    m = _drop_noise(_checked(m), mass)
    order = _canonical_order(m)
    return m if order == list(m) else {key: m[key] for key in order}


class Symbol:
    """Finite canonical sum of polynomial-times-exponential terms on C^n.

    Immutable after construction; all operations return new symbols and are
    safe for unrestricted concurrent use.
    """

    __slots__ = ("n", "_map")

    def __init__(self, n: int, terms: Iterable[SymbolTerm] = ()):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        object.__setattr__(self, "n", int(n))
        mass: dict = {}
        object.__setattr__(self, "_map", _finish(_merge({}, mass, _keyed(int(n), terms)), mass))

    @classmethod
    def _of(cls, n: int, m: dict, mass: dict | None = None) -> "Symbol":
        """The canonical symbol of the term map m on C^n, which it takes over, merged
        with mass as _merge keeps it (None: m has no noise); for the package's own
        results: keys of length n, parameters on the grid, complex coefficients."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_map", _finish(m, mass or {}))
        return self

    @property
    def terms(self) -> tuple[SymbolTerm, ...]:
        """The canonical terms, built from the term map on each access."""
        return tuple([SymbolTerm(x, *key) for key, x in self._map.items()])

    def __setattr__(self, name, value):
        raise AttributeError("Symbol is immutable")

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._map

    @property
    def is_holomorphic(self) -> bool:
        return not any(any(b) or any(d) for _, b, _, d in self._map)

    @property
    def is_constant(self) -> bool:
        return not any(any(a) or any(b) or any(c) or any(d) for a, b, c, d in self._map)

    def degree(self) -> int:
        """Largest total monomial order; -1 for the zero symbol."""
        return max((sum(a) + sum(b) for a, b, _, _ in self._map), default=-1)

    def constant_value(self) -> complex:
        """Value of a constant symbol (see is_constant)."""
        if not self.is_constant:
            raise ValueError("symbol is not constant")
        return sum(self._map.values(), 0j)

    # -- ring structure ------------------------------------------------------

    def _check_dim(self, other: "Symbol") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = constant(self.n, other)
        if not isinstance(other, Symbol):
            return NotImplemented
        self._check_dim(other)
        mass: dict = {}
        return Symbol._of(self.n, _merge(dict(self._map), mass, other._map.items()), mass)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = constant(self.n, other)
        if not isinstance(other, Symbol):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, factor: complex) -> "Symbol":
        factor = complex(factor)
        return Symbol._of(self.n, {key: x * factor for key, x in self._map.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        if not isinstance(other, Symbol):
            return NotImplemented
        self._check_dim(other)
        return Symbol._of(self.n, _product(self._map, other._map))

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("symbol powers must be non-negative integers")
        if k > MAX_EXPONENT:
            raise ValueError(f"symbol power {k} is above the cap {MAX_EXPONENT}")
        out = constant(self.n, 1)
        for _ in range(k):
            out = out * self
        return out

    # -- conjugation and holomorphic-only maps --------------------------------

    def conj(self) -> "Symbol":
        """Pointwise complex conjugate: (coef,a,b,c,d) -> (coef*,b,a,d*,c*)."""
        return Symbol._of(self.n, _conj(self._map))

    def shift(self, eta) -> "Symbol":
        """Argument shift z |-> z - eta for holomorphic symbols.

        Monomials expand by the binomial theorem (_derivative_at of order 0 at
        -eta, memoized per call); exp(z.c) picks up the constant factor exp(-eta.c).
        """
        if not self.is_holomorphic:
            raise ValueError("shift is defined for holomorphic symbols only")
        meta = tuple(-e for e in _as_cvector(eta, self.n))
        zero, czero = (0,) * self.n, (0j,) * self.n
        out, mass, memo = {}, {}, {}
        for (a, _, c, _), x in self._map.items():
            factors = _factors(memo, _derivative_at, zip(a, czero, zero, meta))
            _expand(out, mass, x * _exp_factor(meta, c), factors, c, czero)
        return Symbol._of(self.n, out, mass)

    def dz(self, k: int) -> "Symbol":
        """Wirtinger derivative d/dz_k (1-based k); conj(z) is a constant."""
        if not 1 <= k <= self.n:
            raise ValueError(f"coordinate index {k} out of range 1..{self.n}")
        i = k - 1
        items = []
        for key, x in self._map.items():
            a, b, c, d = key
            if a[i] > 0:
                a2 = list(a)
                a2[i] -= 1
                items.append(((tuple(a2), b, c, d), x * a[i]))
            if c[i] != 0:
                items.append((key, x * c[i]))
        mass: dict = {}
        return Symbol._of(self.n, _merge({}, mass, items), mass)

    # -- evaluation and size ---------------------------------------------------

    def eval(self, zeta) -> complex:
        """Numeric value at the point zeta in C^n; ValueError if it overflows."""
        zeta = _as_cvector(zeta, self.n)
        zbar = tuple(x.conjugate() for x in zeta)
        total = 0j
        try:
            for (a, b, c, d), v in self._map.items():
                for zk, ak in zip(zeta, a):
                    if ak:
                        v *= zk**ak
                for wk, bk in zip(zbar, b):
                    if bk:
                        v *= wk**bk
                ex = sum(z * ck for z, ck in zip(zeta, c)) + sum(
                    w * dk for w, dk in zip(zbar, d)
                )
                if ex != 0:
                    v *= cmath.exp(ex)
                total += v
        except OverflowError:
            total = math.inf
        if not cmath.isfinite(total):
            raise ValueError(f"the value at {zeta} overflows the float range")
        return total

    def __call__(self, zeta) -> complex:
        return self.eval(zeta)

    def coeff_norm(self) -> float:
        """Euclidean norm of the canonical coefficient vector."""
        return math.sqrt(sum(abs(x) ** 2 for x in self._map.values()))

    # -- comparison / display ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Symbol):
            return NotImplemented
        return self.n == other.n and self._map == other._map

    def __hash__(self):
        return hash((self.n, tuple(self._map.items())))

    def __repr__(self):
        return f"Symbol(n={self.n}, {len(self._map)} terms)"

    def __str__(self):
        from . import dsl  # local import: dsl depends on this module

        return dsl.format_symbol(self)


# -- term maps {(a, b, c, d): coef} ------------------------------------------------


def _product(s: dict, t: dict) -> dict:
    """Term map of the product of the term maps s and t, without cancellation noise.

    The coefficients of one key add up in the order of the term pairs; grid
    parameters add exactly below 2^13, and ValueError is raised for a sum out of
    range.  Coefficients are not checked here.
    """
    mass: dict = {}
    pairs = (
        (
            (
                tuple(map(add, a, a2)),
                tuple(map(add, b, b2)),
                tuple(map(add, c, c2)),
                tuple(map(add, d, d2)),
            ),
            x * y,
        )
        for (a, b, c, d), x in s.items()
        for (a2, b2, c2, d2), y in t.items()
    )
    out = _drop_noise(_merge({}, mass, pairs), mass)
    for v in {key[2] for key in out} | {key[3] for key in out}:
        _in_range(v)
    return out


def _conj(m: dict) -> dict:
    """Term map of the pointwise conjugate: (coef,a,b,c,d) -> (coef*,b,a,d*,c*), each
    conjugate plus 0j, so that no -0.0 part records that it was conjugated."""
    return {
        (b, a, tuple(x.conjugate() + 0j for x in d), tuple(x.conjugate() + 0j for x in c)): (
            coef.conjugate() + 0j
        )
        for (a, b, c, d), coef in m.items()
    }


# -- constructors ----------------------------------------------------------------


def zero(n: int) -> Symbol:
    return Symbol(n, ())


def constant(n: int, value: complex = 1) -> Symbol:
    value = complex(value)
    if value == 0:
        return zero(n)
    z = (0,) * n
    cz = (0j,) * n
    return Symbol(n, [SymbolTerm(value, z, z, cz, cz)])


def coordinate(n: int, k: int) -> Symbol:
    """The coordinate function z_k (1-based k)."""
    if not 1 <= k <= n:
        raise ValueError(f"coordinate index {k} out of range 1..{n}")
    a = tuple(1 if j == k - 1 else 0 for j in range(n))
    return monomial(n, a)


def monomial(n: int, a=None, coef: complex = 1, b=None) -> Symbol:
    """coef * z^a * conj(z)^b."""
    a = (0,) * n if a is None else as_multi_index(a)
    b = (0,) * n if b is None else as_multi_index(b)
    if len(a) != n or len(b) != n:
        raise ValueError("exponent length does not match dimension")
    cz = (0j,) * n
    return Symbol(n, [SymbolTerm(complex(coef), a, b, cz, cz)])


def exponential(n: int, c=None, d=None, coef: complex = 1) -> Symbol:
    """coef * exp(z.c + conj(z).d)."""
    z = (0,) * n
    return Symbol(
        n, [SymbolTerm(complex(coef), z, z, _as_cvector(c, n), _as_cvector(d, n))]
    )


def kernel(w) -> Symbol:
    """Reproducing kernel K_w: z |-> exp(z . conj(w))."""
    w = tuple(complex(x) for x in w)
    return exponential(len(w), c=tuple(x.conjugate() + 0j for x in w))


# -- closed term rules of berezin and its inverse, sharp, shift, toeplitz_apply, composition --


def _binomial(q: int, s: complex) -> list[tuple[int, complex]]:
    """(w + s)^q as [(i, coefficient of w^i)]."""
    return [(q, 1)] if s == 0 else [(i, math.comb(q, i) * s ** (q - i)) for i in range(q + 1)]


def _derivative_at(out: dict, m: int, e: complex, p: int, s: complex) -> dict:
    """Add D^p[w^m exp(w e)] at w + s, over exp((w + s) e), to out, which maps (i, 0)
    to the coefficient of w^i: the factor of toeplitz_apply, and of Symbol.shift at p = 0."""
    for j in range(min(p, m) + 1):
        x = math.comb(p, j) * math.perm(m, j) * e ** (p - j)
        if x:
            for i, y in _binomial(m - j, s):
                out[i, 0] = out.get((i, 0), 0) + x * y
    return out


def _leibniz(out: dict, m: int, e: complex, p: int, s: complex, sign: int, tag: int) -> dict:
    """Add sum_k C(p, k) sign^(p-k) D^(p-k)[w^m exp(w e)] at w + s, over exp((w + s) e),
    times conj(w)^(tag + k) to out, in the closed form sum_j sign^j C(m, j) C(p, j) j!
    (w + s)^(m-j) (conj(w) + sign e)^(p-j) conj(w)^tag: the one coordinate factor of
    _transform (berezin at sign +1, berezin_inverse and sharp at sign -1) and composition
    (sign +1, tag kappa)."""
    right_e = e if sign > 0 else -e
    for j in range(min(m, p) + 1):
        x = sign**j * math.comb(m, j) * math.comb(p, j) * math.factorial(j)
        right = _binomial(p - j, right_e)
        for i, y in _binomial(m - j, s):
            for l, z in right:
                out[i, tag + l] = out.get((i, tag + l), 0) + x * y * z
    return out


def _factors(memo: dict, rule, coordinates, *extra) -> list[dict]:
    """[rule({}, *args, *extra) for args in coordinates], each computed once per memo;
    ValueError if a factor overflows the float range."""
    try:
        return [
            memo[k] if k in memo else memo.setdefault(k, rule({}, *k, *extra)) for k in coordinates
        ]
    except OverflowError:  # complex ** or an int too large for a float
        raise ValueError("coefficient overflows the float range") from None


def _expand(out: dict, mass: dict, coef: complex, factors: list[dict], c, d) -> None:
    """Merge the items of coef * prod_k factors[k] * exp(z.c + conj(z).d) into the term
    map out, as _merge(out, mass, items) does.

    factors[k] maps (a_k, b_k) to the coefficient of z_k^a_k conj(z_k)^b_k.
    """
    acc = [(coef, (), ())]
    for f in factors:
        acc = [(w * x, a + (i,), b + (j,)) for w, a, b in acc for (i, j), x in f.items()]
    _merge(out, mass, [((a, b, c, d), w) for w, a, b in acc])


def _transform(items: Iterable[tuple], sign: int) -> tuple[dict, dict]:
    """(out, mass) of _merge for the Berezin transform (sign +1) or its inverse (sign -1)
    of the terms ((a, b, c, d), coef) of items, each expanded straight into out (see
    berezin.py); a term with b = 0 and d = 0, or a = 0 and c = 0, is a fixed point."""
    out, mass, memo = {}, {}, {}
    for (a, b, c, d), x in items:
        sd = d if sign > 0 else tuple(-y for y in d)
        x *= _exp_factor(c, sd)
        if not (any(b) or any(d)) or not (any(a) or any(c)):
            _merge(out, mass, [((a, b, c, d), x)])
        else:
            _expand(out, mass, x, _factors(memo, _leibniz, zip(a, c, b, sd), sign, 0), c, d)
    return out, mass


def relative_residual(s: Symbol, ref: Symbol) -> float:
    """Coefficient-norm of (s - ref), relative to max(1, coefficient-norm of ref).

    The difference is a term map, summed in canonical order: the same bits as
    through the symbol s - ref, and ValueError if a coefficient overflows.
    """
    s._check_dim(ref)
    return _residual(s._map, ref._map)


def _residual(s: dict, ref: dict) -> float:
    """relative_residual of the term maps s and ref."""
    mass: dict = {}
    diff = _finish(_merge(dict(s), mass, [(key, -x) for key, x in ref.items()]), mass)
    norm = math.sqrt(sum(abs(x) ** 2 for x in diff.values()))
    return norm / max(1.0, math.sqrt(sum(abs(x) ** 2 for x in ref.values())))
