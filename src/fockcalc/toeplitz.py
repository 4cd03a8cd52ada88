"""Exact Toeplitz operator actions, operator chains, and product criteria.

A Toeplitz operator multiplies by its symbol and projects back onto the
holomorphic subspace.  On the polynomial-times-exponential class the
projection has a closed term rule: for a symbol term

    coef * w^a * conj(w)^b * exp(w.c + conj(w).d)

acting on a holomorphic u,

    T u (z) = coef * (D^b v)(z + d),   v(w) = w^a exp(w.c) u(w),

i.e. multiply by the holomorphic part, differentiate b times, then shift
the argument by the anti-holomorphic exponential parameter.  toeplitz_apply
expands this per pair of terms and per coordinate, and canonicalizes once.
The class is invariant, so operator equalities are checked exactly on
monomial bases: no finite-section truncation is ever involved.

Unboundedness of these operators is an analytic matter deliberately
ignored here: computations are the densely-defined actions on the
invariant class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .indices import MultiIndex, mi_enumerate, mi_factorial
from .sharp import sharp
from .symbols import Symbol, _derivative_at, _exp_factor, _expand, _in_range, monomial
from .symbols import relative_residual


def toeplitz_apply(phi: Symbol, u: Symbol) -> Symbol:
    """Apply the Toeplitz operator with symbol phi to a holomorphic u."""
    if phi.n != u.n:
        raise ValueError(f"dimension mismatch: {phi.n} vs {u.n}")
    if not u.is_holomorphic:
        raise ValueError("toeplitz_apply acts on holomorphic symbols only")
    czero = (0j,) * phi.n
    items = []
    for (a, b, c, d), x in phi._map.items():
        for (ua, _, uc, _), y in u._map.items():
            e = tuple(p + q for p, q in zip(c, uc))
            factors = [
                _derivative_at({}, ak + sk, ek, bk, dk)
                for ak, sk, ek, bk, dk in zip(a, ua, e, b, d)
            ]
            _expand(items, x * y * _exp_factor(d, e), factors, _in_range(e), czero)
    out = Symbol._of(phi.n, items)
    if not out.is_holomorphic:
        raise ValueError("toeplitz_apply produced a non-holomorphic result")
    return out


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
        for phi in reversed(self.symbols):
            u = toeplitz_apply(phi, u)
        return u


@dataclass(frozen=True)
class BasisEqualityReport:
    """Outcome of comparing two chains on a monomial basis."""

    max_residual: float
    worst_alpha: MultiIndex
    degree: int
    tol: float
    passed: bool


def basis_images(chain: OpChain, degree: int) -> Iterator[tuple[MultiIndex, Symbol]]:
    """Yield (alpha, chain applied to z^alpha / sqrt(alpha!)) for |alpha| <= degree.

    The normalized monomials are the orthonormal Fock basis elements of
    degree at most `degree`; alpha runs in `mi_enumerate(chain.n, degree)`
    order.
    """
    n = chain.n
    for alpha in mi_enumerate(n, degree):
        yield alpha, chain.apply(monomial(n, alpha, coef=1.0 / mi_factorial(alpha) ** 0.5))


def op_equal_on_basis(
    a: OpChain, b: OpChain, degree: int = 6, tol: float = 1e-9
) -> BasisEqualityReport:
    """Compare two chains on the normalized monomials z^alpha / sqrt(alpha!).

    The per-basis-element residual is the coefficient norm of the difference
    of the two images, relative to max(1, coefficient norm of the first
    chain's image); the report carries the worst element.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    worst = 0.0
    worst_alpha: MultiIndex = (0,) * a.n
    for (alpha, ra), (_, rb) in zip(basis_images(a, degree), basis_images(b, degree)):
        res = relative_residual(rb, ra)
        if res > worst:
            worst = res
            worst_alpha = alpha
    return BasisEqualityReport(worst, worst_alpha, degree, tol, worst <= tol)


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
