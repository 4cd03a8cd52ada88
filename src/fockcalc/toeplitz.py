"""Exact Toeplitz operator actions, operator chains, and product criteria.

A Toeplitz operator multiplies by its symbol and projects back onto the
holomorphic subspace.  On the polynomial-times-exponential class the
projection has a closed term rule: for a symbol term

    coef * w^a * conj(w)^b * exp(w.c + conj(w).d)

acting on a holomorphic u,

    T u (z) = coef * (D^b v)(z + d),   v(w) = w^a exp(w.c) u(w),

i.e. multiply by the holomorphic part, differentiate b times, then shift
the argument by the anti-holomorphic exponential parameter.  T_phi is
linear, so it is built one column per input key (a, c): T_phi applied to
z^a exp(z.c), expanded from phi's terms per coordinate and merged into one
term map.  An image T_phi u sums u's coefficients times the columns of its
keys and is canonicalized once.  Columns, and the per-coordinate factors
they are built from, are tabulated per comparison: one toeplitz_apply,
OpChain.apply, basis_images pass or op_equal_on_basis call, whose basis
elements and chains share them.  The class is invariant, so operator
equalities are checked exactly on monomial bases: no finite-section
truncation is ever involved.

Unboundedness of these operators is an analytic matter deliberately
ignored here: computations are the densely-defined actions on the
invariant class.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Iterator, Sequence

from .indices import MultiIndex, mi_enumerate, mi_factorial
from .sharp import sharp
from .symbols import Symbol, _derivative_at, _drop_noise, _exp_factor, _expand, _in_range, _merge
from .symbols import relative_residual


def _column(phi: Symbol, key: tuple, factors: dict) -> dict:
    """The term map of T_phi applied to z^a exp(z.c), for the input key (a, c).

    factors maps the arguments (m, e, p, s) of the per-coordinate rule
    _derivative_at to its result, and gains the ones this column needs.
    """
    ua, uc = key
    czero = (0j,) * phi.n
    items: list = []
    for (a, b, c, d), x in phi._map.items():
        e = _in_range(tuple(map(add, c, uc)))
        coordinate_factors = []
        for args in zip(map(add, a, ua), e, b, d):
            f = factors.get(args)
            if f is None:
                f = factors[args] = _derivative_at({}, *args)
            coordinate_factors.append(f)
        _expand(items, x * _exp_factor(d, e), coordinate_factors, e, czero)
    mass: dict = {}
    out = _drop_noise(_merge({}, mass, items), mass)
    if any(any(b) or any(d) for _, b, _, d in out):
        raise ValueError("toeplitz_apply produced a non-holomorphic result")
    return out


def _image(phi: Symbol, u: Symbol, columns: dict, factors: dict) -> Symbol:
    """T_phi u from columns, phi's table of columns by input key, which gains u's keys."""
    items: list = []
    for (a, _, c, _), y in u._map.items():
        col = columns.get((a, c))
        if col is None:
            col = columns[a, c] = _column(phi, (a, c), factors)
        items += [(key, y * x) for key, x in col.items()]
    return Symbol._of(phi.n, items)


def _check_input(phi: Symbol, u: Symbol) -> None:
    if phi.n != u.n:
        raise ValueError(f"dimension mismatch: {phi.n} vs {u.n}")
    if not u.is_holomorphic:
        raise ValueError("toeplitz_apply acts on holomorphic symbols only")


def toeplitz_apply(phi: Symbol, u: Symbol) -> Symbol:
    """Apply the Toeplitz operator with symbol phi to a holomorphic u."""
    _check_input(phi, u)
    return _image(phi, u, {}, {})


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
        _check_input(self.symbols[-1], u)
        columns: dict = {}
        factors: dict = {}
        for phi in reversed(self.symbols):
            u = _image(phi, u, columns.setdefault(phi, {}), factors)
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
    order.  All elements share one table of columns per symbol.
    """
    return _images(chain, degree, {}, {})


def _images(chain: OpChain, degree: int, columns: dict, factors: dict):
    """basis_images on the tables columns, {symbol: its columns by input key}, and
    factors (see _column), which gain what the images need."""
    steps = [(phi, columns.setdefault(phi, {})) for phi in reversed(chain.symbols)]
    n = chain.n
    zero, czero = (0,) * n, (0j,) * n
    for alpha in mi_enumerate(n, degree):
        coef = complex(1.0 / mi_factorial(alpha) ** 0.5)
        u = Symbol._of(n, [((alpha, zero, czero, czero), coef)])
        for phi, table in steps:
            u = _image(phi, u, table, factors)
        yield alpha, u


def op_equal_on_basis(
    a: OpChain, b: OpChain | Sequence[OpChain], degree: int = 6, tol: float = 1e-9
) -> BasisEqualityReport | tuple[BasisEqualityReport, ...]:
    """Compare two chains on the normalized monomials z^alpha / sqrt(alpha!).

    The per-basis-element residual is the coefficient norm of the difference
    of the two images, relative to max(1, coefficient norm of the first
    chain's image); the report carries the worst element.  For a sequence b
    of chains, a's images are computed once and compared with each, and the
    result is the tuple of their reports.  The chains share one table of
    columns per symbol.
    """
    others = (b,) if isinstance(b, OpChain) else tuple(b)
    for other in others:
        if a.n != other.n:
            raise ValueError(f"dimension mismatch: {a.n} vs {other.n}")
    columns: dict = {}
    factors: dict = {}
    worst = [0.0] * len(others)
    worst_alpha: list[MultiIndex] = [(0,) * a.n] * len(others)
    images = [_images(c, degree, columns, factors) for c in (a, *others)]
    for (alpha, ra), *rest in zip(*images):
        for i, (_, rb) in enumerate(rest):
            res = relative_residual(rb, ra)
            if res > worst[i]:
                worst[i] = res
                worst_alpha[i] = alpha
    reports = tuple(
        BasisEqualityReport(w, alpha, degree, tol, w <= tol) for w, alpha in zip(worst, worst_alpha)
    )
    return reports[0] if isinstance(b, OpChain) else reports


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
