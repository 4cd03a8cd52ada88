"""Independent numerical cross-checks: quadrature and a Fourier inversion.

Nothing on the main computational path calls into this module; it exists
so that the closed forms in `gaussian`, `berezin` and `sharp` can be
checked against numerics that share no code with them.

quad_integral integrates a symbol against the normalized Gaussian by
tensor Gauss-Hermite quadrature on R^{2n}.  Exponential parameters must
stay below modulus 2 so the Gaussian still dominates the integrand on the
quadrature range.  The rule of each order is computed once and cached, as
read-only arrays.

lemma_l1_check reconstructs the sharp product of holomorphic f, g through
the inverse Fourier transform route: with Q(z, w) = f(z) * g-reflected(w),
the function exp(|zeta|^2) * Finv[exp(-|z|^2/4) Q(iz/2, i conj(z)/2)](zeta)
must reproduce sharp(f, g).  The forward transform convention is
pi^{-n} * integral of exp(i Re(z . conj(zeta))), whose inverse is
(4 pi)^{-n} * integral of exp(-i Re(z . conj(zeta))); the discrete version
is a plain midpoint sum over a square grid.  Defaults (half-width 8, 256
points per axis at n = 1) keep the discretization error below the 1e-3 /
1e-4 tolerances the verification suites use.  The 2-D transform is
phase @ samples @ phase.T with phase of shape M x N (kept frequencies by
grid points), so that the left operand of each product is C-contiguous;
written with a transposed N x M phase on the left, the same products in
the same order give the same bits.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .sharp import sharp
from .symbols import Symbol

DEFAULT_ORDER = {1: 40, 2: 24}
PARAM_BOUND = 2.0
MIN_GRID_POINTS = 64


def _eval_on_arrays(s: Symbol, coords: list[np.ndarray]) -> np.ndarray:
    """Vectorized symbol evaluation; coords holds one broadcastable array per z_k."""
    conj = [np.conj(z) for z in coords]
    total = np.zeros(np.broadcast(*coords).shape, dtype=complex)
    for (a, b, c, d), x in s._map.items():
        v = np.full(total.shape, x, dtype=complex)
        for k in range(s.n):
            if a[k]:
                v = v * coords[k] ** a[k]
            if b[k]:
                v = v * conj[k] ** b[k]
        ex = 0
        for k in range(s.n):
            if c[k] != 0:
                ex = ex + coords[k] * c[k]
            if d[k] != 0:
                ex = ex + conj[k] * d[k]
        if not np.isscalar(ex) or ex != 0:
            v = v * np.exp(ex)
        total = total + v
    return total


def _check_params(s: Symbol, bound: float) -> None:
    for _, _, c, d in s._map:
        if any(abs(x) > bound for x in c) or any(abs(x) > bound for x in d):
            raise ValueError(
                f"exponential parameter modulus above {bound}; quadrature not dominated"
            )


@lru_cache(maxsize=None)
def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Hermite nodes and weights of an order, read-only since they are shared."""
    x, w = hermgauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def quad_integral(s: Symbol, order: int | None = None) -> complex:
    """Gauss-Hermite approximation of the Gaussian integral of a symbol."""
    n = s.n
    if n > 2:
        raise ValueError("quadrature oracle is limited to n <= 2")
    if order is None:
        order = DEFAULT_ORDER[n]
    if not 1 <= order <= 64:
        raise ValueError("quadrature order must be between 1 and 64")
    _check_params(s, PARAM_BOUND)

    x, w = _rule(order)
    if n == 1:
        z = x[:, None] + 1j * x[None, :]
        vals = _eval_on_arrays(s, [z])
        return complex((w[:, None] * w[None, :] * vals).sum() / np.pi)

    # n == 2: sum slices along the first axis to bound memory at order 64
    total = 0j
    wy = w[:, None, None]
    wu = w[None, :, None]
    wv = w[None, None, :]
    for i in range(order):
        z1 = x[i] + 1j * x[:, None, None]
        z2 = x[None, :, None] + 1j * x[None, None, :]
        vals = _eval_on_arrays(s, [z1 * np.ones_like(z2), z2 * np.ones_like(z1)])
        total += w[i] * (wy * wu * wv * vals).sum()
    return complex(total / np.pi**2)


def lemma_l1_check(
    f: Symbol,
    g: Symbol,
    grid_half_width: float = 8.0,
    grid_points: int = 256,
) -> float:
    """Max residual of the Fourier-route reconstruction of sharp(f, g) (n = 1).

    Discretizes exp(-|z|^2/4) Q(iz/2, i conj(z)/2) on a uniform midpoint
    grid over the square of the given half-width, applies the discrete
    inverse transform, multiplies by exp(|zeta|^2) and compares with
    sharp(f, g) on the interior points |zeta| <= half-width / 4.
    """
    if f.n != 1 or g.n != 1:
        raise ValueError("the Fourier cross-check is implemented for n = 1 only")
    if not (f.is_holomorphic and g.is_holomorphic):
        raise ValueError("inputs must be holomorphic symbols")
    _check_params(f, 1.0)
    _check_params(g, 1.0)
    if grid_points < MIN_GRID_POINTS:
        raise ValueError(f"grid too coarse: need at least {MIN_GRID_POINTS} points")
    if grid_half_width <= 0:
        raise ValueError("grid half-width must be positive")

    L = float(grid_half_width)
    N = int(grid_points)
    h = 2.0 * L / N
    x = -L + (np.arange(N) + 0.5) * h
    z = x[:, None] + 1j * x[None, :]

    # Q(iz/2, i conj(z)/2) with the second slot fed through the reflection:
    # g-reflected(w) = conj(g(conj(w))), so at w = i conj(z)/2 this is
    # conj(g(-i z / 2)).
    samples = (
        np.exp(-np.abs(z) ** 2 / 4.0)
        * _eval_on_arrays(f, [0.5j * z])
        * np.conj(_eval_on_arrays(g, [-0.5j * z]))
    )

    inner = np.abs(x) <= L / 4.0
    xi = x[inner]
    phase = np.exp(-1j * np.outer(xi, x))  # M x N, shared by both real axes
    transform = phase @ samples @ phase.T * (h * h / (4.0 * np.pi))

    zeta = xi[:, None] + 1j * xi[None, :]
    numeric = np.exp(np.abs(zeta) ** 2) * transform
    exact = _eval_on_arrays(sharp(f, g), [zeta])
    mask = np.abs(zeta) <= L / 4.0
    return float(np.max(np.abs(numeric - exact)[mask]))
