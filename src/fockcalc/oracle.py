"""Independent numerical cross-checks: quadrature and a Fourier inversion.

Nothing on the main computational path calls into this module; it exists
so that the closed forms in `gaussian`, `berezin` and `sharp` can be
checked against numerics that share no code with them.  It is the only
user of numpy, and it is imported on first use: by `fockcalc.quad_integral`
and `fockcalc.lemma_l1_check`, by the suites that call it and by the CLI's
`oracle` command.  So the calculator commands never load numpy, and
`verify` loads it when its first oracle case runs.

quad_integral integrates a symbol against the normalized Gaussian by
tensor Gauss-Hermite quadrature on R^{2n}.  Exponential parameters must
stay below modulus 2 so the Gaussian still dominates the integrand on the
quadrature range.  Without an explicit order, the order is DEFAULT_ORDER[n]
up to degree DEGREE_BASE and grows by one per degree above it, up to 64: a
degree-18 integrand with parameters near 2 is off by 1.9e-9 at order 24 and
by 8e-14 at order 28.  The measure and every term z^a conj(z)^b
exp(z.c + conj(z).d) factor over coordinates, so the tensor rule is, reordered,
a sum over terms of the coefficient times one order x order sum per
coordinate; the order^(2n) grid is never formed.  There, at z = x_i + i x_j,
exp(c z + d conj(z)) = exp((c + d) x_i) exp(i (c - d) x_j) folds into the
weights, u = w exp((c + d) x) and v = w exp(i (c - d) x), and the sum is
u^T P v / pi with P = z^a conj(z)^b.  The read-only tables of z^k are cached
per (order, k), at most POWER_TABLES of them; conj(z)^k is the conjugate.
Powers stay on the 2-D grid: expanding (x + iy)^a (x - iy)^b into one-axis
sums with binomial coefficients could amplify rounding by 2^((a + b) / 2).
The rule of each order is computed once and cached, as read-only arrays.

lemma_l1_check reconstructs the sharp product of holomorphic f, g through
the inverse Fourier transform route: with Q(z, w) = f(z) * g-reflected(w),
the function exp(|zeta|^2) * Finv[exp(-|z|^2/4) Q(iz/2, i conj(z)/2)](zeta)
must reproduce sharp(f, g).  The forward transform convention is
pi^{-n} * integral of exp(i Re(z . conj(zeta))), whose inverse is
(4 pi)^{-n} * integral of exp(-i Re(z . conj(zeta))); the discrete version
is a plain midpoint sum over a square grid.  Defaults (half-width 8, 256
points per axis at n = 1) keep the discretization error below the 1e-3 /
1e-4 tolerances the verification suites use.  The samples are never
formed on the N x N grid: each pair of terms of f and g factors into a
short sum of products u(x) v(y) of one-axis functions, so the 2-D
transform is a sum of outer products of one-axis transforms, each a
product with the M x N phase (kept frequencies by grid points).  These
contractions run through np.einsum without its optimizer, which never
calls BLAS: a threaded BLAS product of this size can spin for tens of
milliseconds on work that takes well under one.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .sharp import sharp
from .symbols import Symbol

DEFAULT_ORDER = {1: 40, 2: 24}
#: the highest integrand degree that the default orders are kept for
DEGREE_BASE = 14
MAX_ORDER = 64
#: z^k tables kept at once, one per (order, k)
POWER_TABLES = 32
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


@lru_cache(maxsize=POWER_TABLES)
def _power(order: int, k: int) -> np.ndarray:
    """z^k on the order x order grid z = x_i + i x_j, read-only since it is shared."""
    x, _ = _rule(order)
    p = (x[:, None] + 1j * x[None, :]) ** k
    p.flags.writeable = False
    return p


def _factor(order: int, a: int, b: int, c: complex, d: complex) -> complex:
    """pi^-1 sum_ij w_i w_j z^a conj(z)^b exp(c z + d conj(z)) at z = x_i + i x_j."""
    x, w = _rule(order)
    u = w * np.exp((c + d) * x)
    v = w * np.exp(1j * (c - d) * x)
    p = _power(order, a) * np.conj(_power(order, b)) if b else _power(order, a)
    # u^T (P v): two sums of order terms round like the dense grid's pairwise
    # sum, where one running sum of order^2 terms rounds a little worse
    pv = np.einsum("ij,j->i", p, v, optimize=False)
    return complex(np.einsum("i,i->", u, pv, optimize=False)) / math.pi


def quad_integral(s: Symbol, order: int | None = None) -> complex:
    """Gauss-Hermite approximation of the Gaussian integral of a symbol."""
    n = s.n
    if n > 2:
        raise ValueError("quadrature oracle is limited to n <= 2")
    if order is None:
        order = min(MAX_ORDER, DEFAULT_ORDER[n] + max(0, s.degree() - DEGREE_BASE))
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"quadrature order must be between 1 and {MAX_ORDER}")
    _check_params(s, PARAM_BOUND)

    # the measure and each term factor over coordinates
    total = 0j
    for key, x in s._map.items():
        for a, b, c, d in zip(*key):
            x *= _factor(order, a, b, c, d)
        total += x
    return total


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
    gauss = np.exp(-x * x / 4.0)

    # The samples exp(-|z|^2/4) Q(iz/2, i conj(z)/2) at z = x + iy, where the
    # reflection conj(g(conj(w))) in Q's second slot gives conj(g(-iz/2)): a
    # term pair cf z^a exp(c z), cg z^b exp(d z) contributes
    # K z^a conj(z)^b exp(p z + q conj(z)) exp(-|z|^2/4) with p = ic/2,
    # q = i conj(d)/2 and K = cf conj(cg) (i/2)^(a+b), which is
    # sum_m K C_m u_m(x) v_m(y) for the rows below.  The empty first rows
    # keep the sums defined when f or g is zero.
    us, vs, weights = [np.empty((0, N))], [np.empty((0, N))], [np.empty(0)]
    for ((a,), _, (c,), _), cf in f._map.items():
        for ((b,), _, (d,), _), cg in g._map.items():
            p, q = 0.5j * c, 0.5j * d.conjugate()
            powers = x ** np.arange(a + b + 1)[:, None]  # row m: x^m
            us.append(powers * (np.exp((p + q) * x) * gauss))
            vs.append(powers[::-1] * (np.exp(1j * (p - q) * x) * gauss))
            # C_m: the coefficient of x^m y^(a+b-m) in (x + iy)^a (x - iy)^b
            C = np.convolve(
                [math.comb(a, j) * 1j ** (a - j) for j in range(a + 1)],
                [math.comb(b, j) * (-1j) ** (b - j) for j in range(b + 1)],
            )
            weights.append(cf * cg.conjugate() * 0.5j ** (a + b) * C)

    inner = np.abs(x) <= L / 4.0
    xi = x[inner]
    phase = np.exp(-1j * np.outer(xi, x))  # M x N, shared by both real axes
    pu = np.einsum("kn,rn->kr", phase, np.concatenate(us), optimize=False)
    pv = np.einsum("kn,rn->kr", phase, np.concatenate(vs), optimize=False)
    transform = np.einsum(
        "kr,r,lr->kl", pu, np.concatenate(weights), pv, optimize=False
    ) * (h * h / (4.0 * np.pi))

    zeta = xi[:, None] + 1j * xi[None, :]
    numeric = np.exp(np.abs(zeta) ** 2) * transform
    exact = _eval_on_arrays(sharp(f, g), [zeta])
    mask = np.abs(zeta) <= L / 4.0
    return float(np.max(np.abs(numeric - exact)[mask]))
