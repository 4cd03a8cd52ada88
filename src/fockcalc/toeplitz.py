"""Exact Toeplitz operator actions, operator chains, and product criteria.

A Toeplitz operator multiplies by its symbol and projects back onto the
holomorphic subspace.  On the polynomial-times-exponential class the
projection has a closed term rule: for a symbol term

    coef * w^a * conj(w)^b * exp(w.c + conj(w).d)

acting on a holomorphic u,

    T u (z) = coef * (D^b v)(z + d),   v(w) = w^a exp(w.c) u(w),

i.e. multiply by the holomorphic part, differentiate b times, then shift
the argument by the anti-holomorphic exponential parameter.

Actions keep this rule, since an action needs only the terms of its
input, which is cheaper than building the operator first.  T_phi is linear,
so an image T_phi u expands each pair of a term of u and a term of phi per
coordinate (a multiplier term, b = 0 and d = 0, as one item) into its
exponential group (c + c_u, 0) of one grouped term map, canonicalized once.
toeplitz_apply, OpChain.apply and basis_images take this one path, the factors
(symbols._derivative_at) memoized per call or sweep.

Chain identities are decided on the normal form instead, since it is exact
on the whole class.  By Leibniz's rule each operator of the class is

    T u (z) = sum over (beta, e) of g_{beta,e}(z) (D^beta u)(z + e),

with g_{beta,e} holomorphic in the class; `normal_form` keeps it as one
term map keyed (a, beta, c, e), for the terms z^a exp(z.c) of g_{beta,e}.
The form is unique (T exp(z.l) = exp(z.l) sum g_{beta,e}(z) l^beta
exp(e.l), and the l^beta exp(e.l) are independent), so two operators agree
on the class exactly when their forms agree (`op_equal`), and a product
vanishes exactly when its form is empty.  The monomial sweep
op_equal_on_basis, a necessary condition only, stays as a second check.

Read as a symbol (entry (a, beta, c, e) as z^a conj(z)^beta exp(z.c + conj(z).e)), the
form is the operator's Berezin transform.  As B(T_phi) = B(phi), a chain's form starts
from berezin of its rightmost symbol and composes the others onto it (a Wick product).  A
pair whose Leibniz rule has one term (a multiplier on the left, a pure shifted derivative
on the right) is one entry, so T_{f + conj g} T_{u + conj v} expands conj(g)-u pairs only.
Other pairs take berezin's coordinate factor, symbols._leibniz at sign +1.  Entries merge
per exponential group (c + c2, d + e), and every form is finished as a Symbol is
(symbols._finish): it is the canonical term map of B(T_chain), in canonical order, so
Symbol._of(n, form) keeps it as it is.  berezin.toeplitz_symbol reads a form back:
berezin_inverse of it is the one symbol phi with T_phi equal to the chain.

Unboundedness of these operators is an analytic matter deliberately
ignored here: computations are the densely-defined actions on the
invariant class.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import add
from typing import Iterator, Sequence

from .indices import MultiIndex, mi_enumerate, mi_factorial
from .sharp import sharp
from .symbols import Symbol, _derivative_at, _exp_factor, _expand, _factors, _finish, _group
from .symbols import _in_range, _leibniz, _merge, _residual, _transform, relative_residual


def _image(phi: Symbol, u: Symbol, factors: dict) -> Symbol:
    """T_phi u, expanded from each pair of a term of u and a term of phi into its group.

    factors maps the arguments (m, e, p, s) of the per-coordinate rule
    _derivative_at to its result, and gains the ones this image needs.
    """
    czero = (0j,) * phi.n
    out, mass = {}, {}
    for (ua, _, uc, _), y in u._map.items():
        for (a, b, c, d), x in phi._map.items():
            e = _in_range(tuple(map(add, c, uc)))
            if not (any(b) or any(d)):  # a multiplier: one item
                _merge(*_group(out, mass, e, czero), [((tuple(map(add, a, ua)), b), x * y)])
                continue
            coordinate_factors = _factors(factors, _derivative_at, zip(map(add, a, ua), e, b, d))
            _expand(out, mass, x * y * _exp_factor(d, e), coordinate_factors, e, czero)
    image = Symbol._of(phi.n, out, mass)
    if not image.is_holomorphic:
        raise ValueError("toeplitz_apply produced a non-holomorphic result")
    return image


def toeplitz_apply(phi: Symbol, u: Symbol) -> Symbol:
    """Apply the Toeplitz operator with symbol phi to a holomorphic u."""
    return OpChain([phi]).apply(u)


@dataclass(frozen=True)
class OpChain:
    """Composition T_{phi_1} .. T_{phi_m}; the leftmost symbol applies last."""

    symbols: tuple[Symbol, ...]

    def __init__(self, symbols: Sequence[Symbol]):
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("operator chain must be nonempty")
        n = symbols[0].n
        if any(s.n != n for s in symbols):
            raise ValueError("operator chain symbols must share one dimension")
        object.__setattr__(self, "symbols", symbols)

    @property
    def n(self) -> int:
        return self.symbols[0].n

    def apply(self, u: Symbol) -> Symbol:
        if self.n != u.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {u.n}")
        if not u.is_holomorphic:
            raise ValueError("toeplitz_apply acts on holomorphic symbols only")
        factors: dict = {}
        for phi in reversed(self.symbols):
            u = _image(phi, u, factors)
        return u


@dataclass(frozen=True)
class BasisEqualityReport:
    """Outcome of comparing two chains on a monomial basis."""

    max_residual: float
    worst_alpha: MultiIndex
    degree: int
    tol: float
    passed: bool

    @property
    def where(self) -> str:
        """The worst basis element as text."""
        return f"worst basis element alpha=({', '.join(map(str, self.worst_alpha))})"


def basis_images(chain: OpChain, degree: int) -> Iterator[tuple[MultiIndex, Symbol]]:
    """Yield (alpha, chain applied to z^alpha / sqrt(alpha!)) for |alpha| <= degree.

    The normalized monomials are the orthonormal Fock basis elements of
    degree at most `degree`; alpha runs in `mi_enumerate(chain.n, degree)`
    order.  All elements share one memo of per-coordinate factors.
    """
    n = chain.n
    zero, czero = (0,) * n, (0j,) * n
    factors: dict = {}
    for alpha in mi_enumerate(n, degree):
        coef = complex(1.0 / mi_factorial(alpha) ** 0.5)
        u = Symbol._of(n, {(alpha, zero, czero, czero): coef})
        for phi in reversed(chain.symbols):
            u = _image(phi, u, factors)
        yield alpha, u


def op_equal_on_basis(
    a: OpChain, b: OpChain, degree: int = 6, tol: float = 1e-9
) -> BasisEqualityReport:
    """Compare two chains on the normalized monomials z^alpha / sqrt(alpha!).

    The per-basis-element residual is the coefficient norm of the difference
    of the two images, relative to max(1, coefficient norm of the first
    chain's image); the report carries the worst element.
    """
    _check_tol(tol)
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    worst, worst_alpha = 0.0, (0,) * a.n
    for (alpha, ra), (_, rb) in zip(basis_images(a, degree), basis_images(b, degree)):
        res = relative_residual(rb, ra)
        if res > worst:
            worst, worst_alpha = res, alpha
    return BasisEqualityReport(worst, worst_alpha, degree, tol, worst <= tol)


def _compose(pairs, memo: dict) -> dict:
    """The canonical term map (see _finish) of the sum of A o B over the pairs of entries
    ((a, beta, c, d), x) of A and ((a2, gamma, c2, e), y) of B: by Leibniz's rule, for
    each kappa <= beta, (gamma + kappa, d + e) -> x z^a exp(z.c) C(beta, kappa)
    (D^(beta-kappa) h)(z + d) with h(w) = y w^a2 exp(w.c2); one item, x y, when beta = 0
    and d = 0, or a2 = 0 and c2 = 0.  Items merge per group (c + c2, d + e).  memo maps
    the arguments of _compose_factor to its result."""
    out, mass = {}, {}
    for ((a, beta, c, d), x), ((a2, gamma, c2, e), y) in pairs:
        params = _in_range(tuple(map(add, c, c2))), _in_range(tuple(map(add, d, e)))
        if not (any(beta) or any(d)) or not (any(a2) or any(c2)):  # one Leibniz term
            key = tuple(map(add, a, a2)), tuple(map(add, beta, gamma))
            _merge(*_group(out, mass, *params), [(key, x * y)])
        else:
            factors = _factors(memo, _compose_factor, zip(a, a2, c2, beta, d, gamma))
            _expand(out, mass, x * y * _exp_factor(d, c2), factors, *params)
    return _finish(out, mass)


def _compose_factor(out: dict, m: int, m2: int, c2k: complex, p: int, s: complex, g: int):
    """out plus one coordinate's factor {(i, g + kappa): coefficient of z^i} of _compose."""
    out.update(((i + m, k), v) for (i, k), v in _leibniz({}, m2, c2k, p, s, 1, g).items())
    return out


def normal_form(*chains: OpChain) -> dict:
    """The normal form {(a, beta, c, e): coef} of the sum of the chains' operators: the
    canonical term map of its Berezin transform (see _finish; ValueError for a coefficient
    that is not finite).  A symbol's own form is berezin(phi)._map; a chain composes its
    symbols' forms from the right, starting from the rightmost one's own form.  The zero
    operator has the empty map.  All compositions of one call share one memo of
    coordinate factors."""
    if len({chain.n for chain in chains}) > 1:
        raise ValueError("the chains of a sum must share one dimension")
    out, mass, memo = {}, {}, {}
    for chain in chains:
        form = None
        for phi in reversed(chain.symbols):
            own = _finish(*_transform(phi._map.items(), 1))
            form = own if form is None else _compose(product(own.items(), form.items()), memo)
        _merge(out, mass, form.items())
    return _finish(out, mass)


@dataclass(frozen=True)
class OperatorEqualityReport:
    """Outcome of comparing two operators on their normal forms.

    worst_key is the (beta, e) of the entry with the largest residual, None
    when every entry agrees; terms holds the term counts of both entries there.
    """

    max_residual: float
    worst_key: tuple | None
    terms: tuple[int, int]
    tol: float
    passed: bool

    @property
    def where(self) -> str:
        """The worst entry as text; empty when every entry agrees."""
        if self.worst_key is None:
            return ""
        beta, e = (", ".join(format(x, "g") for x in v) for v in self.worst_key)
        return f"worst entry beta=({beta}) e=({e}): {self.terms[0]} vs {self.terms[1]} terms"


def op_equal(a: OpChain | dict, b: OpChain | dict, tol: float = 1e-9) -> OperatorEqualityReport:
    """Decide T_a = T_b on the whole class; a and b are chains or normal forms.

    The residual of an entry (beta, e) is relative_residual(b's entry, a's entry),
    a missing entry being the zero symbol; the report carries the largest.  Entries
    are visited in a fixed order (a's keys, then b's others), so it is reproducible.
    a and b must share one n: a form's is its keys', and the empty form fits any n.
    """
    _check_tol(tol)
    dims = [x.n if isinstance(x, OpChain) else len(next(iter(x))[0]) for x in (a, b) if x]
    if len(set(dims)) > 1:
        raise ValueError(f"dimension mismatch: {dims[0]} vs {dims[1]}")
    ea: dict = {}
    eb: dict = {}
    for x, entries in ((a, ea), (b, eb)):
        for key, y in (x if isinstance(x, dict) else normal_form(x)).items():
            entries.setdefault((key[1], key[3]), {})[key] = y
    worst, worst_key, terms = 0.0, None, (0, 0)
    for key in {**ea, **eb}:
        x, y = ea.get(key, {}), eb.get(key, {})
        res = _residual(y, x)
        if res > worst:
            worst, worst_key, terms = res, key, (len(x), len(y))
    return OperatorEqualityReport(worst, worst_key, terms, tol, worst <= tol)


def _check_tol(tol: float) -> None:
    """ValueError for a tol under which no residual passes (nan, < 0) or every one (inf)."""
    if not 0 <= tol < float("inf"):
        raise ValueError(f"tolerance must be non-negative and finite, got {tol!r}")


def brown_halmos_h(f: Symbol, g: Symbol, u: Symbol, v: Symbol) -> Symbol:
    """The unique product symbol h with T_{f+conj g} T_{u+conj v} = T_h.

    h = u*conj(g) + f*u + conj(g)*conj(v) + sharp(f, v).
    """
    _check_quad(f, g, u, v)
    return u * g.conj() + f * u + g.conj() * v.conj() + sharp(f, v)


def commutator_defect(f: Symbol, g: Symbol, u: Symbol, v: Symbol) -> Symbol:
    """Obstruction to [T_{f+conj g}, T_{u+conj v}] = 0.

    Returns (u*conj(g) - f*conj(v)) - (sharp(u, g) - sharp(f, v)); the
    commutator vanishes exactly when this symbol is zero.
    """
    _check_quad(f, g, u, v)
    return (u * g.conj() - f * v.conj()) - (sharp(u, g) - sharp(f, v))


def _check_quad(f: Symbol, g: Symbol, u: Symbol, v: Symbol) -> None:
    n = f.n
    for s in (g, u, v):
        if s.n != n:
            raise ValueError("dimension mismatch among symbol arguments")
    if not all(s.is_holomorphic for s in (f, g, u, v)):
        raise ValueError("arguments must be holomorphic symbols")
