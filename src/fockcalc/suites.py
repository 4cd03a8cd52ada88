"""Named verification suites with deterministic JSON reports.

Each suite checks one operator identity (or its advertised failure mode)
on seeded random data plus the fixed witness instances, and returns a
report whose cases carry (name, residual, tol, pass).  Two kinds of case
appear: identity cases pass when the residual is at most the tolerance,
and separation cases (named "...expect-residual-at-least") pass when the
residual is at least the recorded threshold -- those assert that a claimed
failure really fails.

Reports are deterministic: given (suite, n, degree, seed, tol) the case
list and every residual are reproduced bit for bit; only duration_ms
varies between runs.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass

from .berezin import berezin, operator_berezin
from .gaussian import gaussian_moment
from .indices import mi_enumerate
from .oracle import lemma_l1_check, quad_integral
from .sharp import sharp
from .symbols import (
    Symbol,
    constant,
    coordinate,
    exponential,
    kernel,
    monomial,
    relative_residual,
    zero,
)
from .toeplitz import OpChain, basis_images, brown_halmos_h, commutator_defect, op_equal_on_basis

DEFAULT_SEED = 0xF0CC
DEFAULT_N = 2
DEFAULT_DEGREE = 6
DEFAULT_TOL = 1e-9

#: coefficient disc radius for chain-comparison test symbols.  Kept at 1/2
#: rather than 1 so that chain images of the constant monomial stay below
#: coefficient norm ~2, which keeps the "perturbed symbol is detected"
#: separation margin at residual >= 0.5.
CHAIN_COEF_RADIUS = 0.5


#: positive stand-in for "must be exactly zero": any nonzero canonical
#: coefficient norm is astronomically larger than this
EXACT_TOL = 1e-300


@dataclass(frozen=True)
class CaseResult:
    name: str
    residual: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    n: int
    degree: int
    seed: int
    tol: float
    cases: tuple[CaseResult, ...]
    passed: bool
    duration_ms: int


@dataclass(frozen=True)
class SuiteConfig:
    n: int
    degree: int
    seed: int
    tol: float


def _case_le(name: str, residual: float, tol: float) -> CaseResult:
    return CaseResult(name, float(residual), float(tol), residual <= tol)


def _case_ge(name: str, residual: float, threshold: float) -> CaseResult:
    return CaseResult(
        name + "-expect-residual-at-least", float(residual), float(threshold),
        residual >= threshold,
    )


# -- seeded random symbols ----------------------------------------------------


def unit_disc(rng: random.Random, radius: float = 1.0) -> complex:
    r = radius * math.sqrt(rng.random())
    t = 2.0 * math.pi * rng.random()
    return complex(r * math.cos(t), r * math.sin(t))


def random_polynomial(
    rng: random.Random,
    n: int,
    degree: int,
    max_terms: int = 3,
    radius: float = 1.0,
    min_degree: int = 0,
) -> Symbol:
    """Random nonzero holomorphic polynomial, sparse support."""
    idx = mi_enumerate(n, degree)
    out = zero(n)
    while out.is_zero or out.degree() < min_degree:
        out = zero(n)
        for _ in range(rng.randint(1, max_terms)):
            out = out + monomial(n, rng.choice(idx), coef=unit_disc(rng, radius))
    return out


def random_holo(
    rng: random.Random,
    n: int,
    degree: int,
    max_terms: int = 3,
    radius: float = 1.0,
    exp_prob: float = 0.5,
    blocks: int = 1,
) -> Symbol:
    """Random holomorphic symbol: sum of up to `blocks` polynomial*exp pieces."""
    out = zero(n)
    while out.is_zero:
        for _ in range(rng.randint(1, blocks)):
            p = random_polynomial(rng, n, degree, max_terms, radius)
            if rng.random() < exp_prob:
                p = p * exponential(n, c=[unit_disc(rng) for _ in range(n)])
            out = out + p
    return out


def ones_vector(n: int) -> tuple[complex, ...]:
    return (1 + 0j,) * n


# -- the suites ----------------------------------------------------------------


def _suite_berezin_fixed_point(cfg: SuiteConfig) -> list[CaseResult]:
    rng = random.Random(cfg.seed)
    cases = []

    f = random_holo(rng, cfg.n, 4, exp_prob=1.0)
    cases.append(
        _case_le("holomorphic-symbol-fixed", relative_residual(berezin(f), f), cfg.tol)
    )
    cases.append(
        _case_le(
            "antiholomorphic-symbol-fixed",
            relative_residual(berezin(f.conj()), f.conj()),
            cfg.tol,
        )
    )

    s = coordinate(cfg.n, 1) * coordinate(cfg.n, 1).conj()
    cases.append(
        _case_le("mixed-monomial-gains-unit", relative_residual(berezin(s), s + 1), cfg.tol)
    )

    for d in range(1, min(cfg.n, 3) + 1):
        for j in range(4):
            f = random_holo(rng, d, 4, max_terms=2, exp_prob=0.7, blocks=3)
            g = random_holo(rng, d, 4, max_terms=2, exp_prob=0.7, blocks=3)
            res = relative_residual(berezin(sharp(f, g)), f * g.conj())
            cases.append(_case_le(f"sharp-round-trip-n{d}-{j}", res, cfg.tol))

    f = random_holo(rng, cfg.n, 3, exp_prob=0.5)
    g = random_holo(rng, cfg.n, 3, exp_prob=0.5)
    mixed = f * g.conj()
    alpha, beta = unit_disc(rng), unit_disc(rng)
    lin = berezin(mixed.scale(alpha) + f.scale(beta)) - (
        berezin(mixed).scale(alpha) + berezin(f).scale(beta)
    )
    cases.append(_case_le("linearity", lin.coeff_norm(), cfg.tol))
    cases.append(
        _case_le(
            "conjugation-commutes",
            relative_residual(berezin(mixed.conj()), berezin(mixed).conj()),
            cfg.tol,
        )
    )

    # pointwise agreement with the quadrature oracle at n = 1
    rng1 = random.Random(cfg.seed + 1)
    s1 = random_holo(rng1, 1, 3, exp_prob=1.0) * random_holo(rng1, 1, 3).conj()
    worst = 0.0
    for _ in range(3):
        zeta = unit_disc(rng1)
        weight = exponential(1, c=[zeta.conjugate()], d=[zeta])
        quad = math.exp(-abs(zeta) ** 2) * quad_integral(s1 * weight)
        worst = max(worst, abs(berezin(s1).eval([zeta]) - quad))
    cases.append(_case_le("pointwise-quadrature-consistency", worst, 1e-5))

    nonzero_ok = 0.0
    for _ in range(100):
        t = random_holo(rng, cfg.n, 3) * random_holo(rng, cfg.n, 2).conj()
        if berezin(t).is_zero:
            nonzero_ok = 1.0
    cases.append(_case_le("nonzero-symbols-map-to-nonzero", nonzero_ok, EXACT_TOL))
    return cases


def _random_pluriharmonic_parts(rng, n, degree=3):
    return tuple(
        random_polynomial(rng, n, degree, max_terms=3, radius=CHAIN_COEF_RADIUS)
        for _ in range(4)
    )


def _suite_brown_halmos(cfg: SuiteConfig) -> list[CaseResult]:
    rng = random.Random(cfg.seed)
    cases = []
    for j in range(5):
        d = 1 + j % min(cfg.n, 2)
        f, g, u, v = _random_pluriharmonic_parts(rng, d)
        phi, psi = f + g.conj(), u + v.conj()
        h = brown_halmos_h(f, g, u, v)
        rep = op_equal_on_basis(OpChain([phi, psi]), OpChain([h]), cfg.degree, cfg.tol)
        cases.append(_case_le(f"product-chain-matches-h-{j}", rep.max_residual, cfg.tol))
        rep2 = op_equal_on_basis(OpChain([phi, psi]), OpChain([h + 1]), cfg.degree, cfg.tol)
        cases.append(_case_ge(f"perturbed-h-detected-{j}", rep2.max_residual, 0.5))

    u, v = (random_polynomial(rng, cfg.n, 3, radius=CHAIN_COEF_RADIUS) for _ in range(2))
    h0 = brown_halmos_h(zero(cfg.n), zero(cfg.n), u, v)
    cases.append(_case_le("zero-first-factor-gives-zero-h", h0.coeff_norm(), EXACT_TOL))
    return cases


def _suite_zero_product(cfg: SuiteConfig) -> list[CaseResult]:
    rng = random.Random(cfg.seed)
    cases = []
    for j in range(10):
        d = 1 + j % min(cfg.n, 2)
        f, g, u, v = _random_pluriharmonic_parts(rng, d)
        chain = OpChain([f + g.conj(), u + v.conj()])
        biggest = max(img.coeff_norm() for _, img in basis_images(chain, 4))
        cases.append(_case_ge(f"nonzero-pair-survives-{j}", biggest, 1e-8))

    f, g, u, v = _random_pluriharmonic_parts(rng, cfg.n)
    for name, chain in (
        ("zero-first-factor-annihilates", OpChain([zero(cfg.n), u + v.conj()])),
        ("zero-second-factor-annihilates", OpChain([f + g.conj(), zero(cfg.n)])),
    ):
        biggest = max(img.coeff_norm() for _, img in basis_images(chain, 4))
        cases.append(_case_le(name, biggest, EXACT_TOL))
    return cases


def _suite_sharp_operator_law(cfg: SuiteConfig) -> list[CaseResult]:
    rng = random.Random(cfg.seed)
    cases = []
    for j in range(5):
        d = 1 + j % min(cfg.n, 3)
        f = random_holo(rng, d, 3, radius=CHAIN_COEF_RADIUS, exp_prob=0.5)
        g = random_holo(rng, d, 3, radius=CHAIN_COEF_RADIUS, exp_prob=0.5)
        rep = op_equal_on_basis(
            OpChain([f, g.conj()]), OpChain([sharp(f, g)]), cfg.degree, cfg.tol
        )
        cases.append(_case_le(f"factored-chain-matches-symbol-{j}", rep.max_residual, cfg.tol))

    # finite sums handled by linearity of the symbol map
    pairs = [
        (
            random_polynomial(rng, cfg.n, 2, radius=CHAIN_COEF_RADIUS),
            random_polynomial(rng, cfg.n, 2, radius=CHAIN_COEF_RADIUS),
        )
        for _ in range(2)
    ]
    total = sharp(pairs[0][0], pairs[0][1]) + sharp(pairs[1][0], pairs[1][1])
    chains = [OpChain([f, g.conj()]) for f, g in pairs] + [OpChain([total])]
    worst = 0.0
    for (_, r1), (_, r2), (_, rhs) in zip(*(basis_images(c, 4) for c in chains)):
        worst = max(worst, relative_residual(rhs, r1 + r2))
    cases.append(_case_le("two-term-sum-linearity", worst, cfg.tol))
    return cases


def _suite_shift_identity(cfg: SuiteConfig) -> list[CaseResult]:
    rng = random.Random(cfg.seed)
    n = cfg.n
    cases = []

    ones = ones_vector(n)
    f1 = exponential(n, c=ones)
    g = random_polynomial(rng, n, 3)
    expected = g.shift(ones).conj() * f1
    cases.append(
        _case_le(
            "ones-vector-shift-symbol", relative_residual(sharp(f1, g), expected), cfg.tol
        )
    )
    cases.append(
        _case_le(
            "ones-vector-berezin-roundtrip",
            relative_residual(berezin(expected), f1 * g.conj()),
            cfg.tol,
        )
    )

    for j in range(3):
        eta = tuple(unit_disc(rng) for _ in range(n))
        fe = exponential(n, c=tuple(x.conjugate() for x in eta))
        gj = random_polynomial(rng, n, 3)
        expect_j = gj.shift(eta).conj() * fe
        cases.append(
            _case_le(
                f"general-shift-symbol-{j}",
                relative_residual(sharp(fe, gj), expect_j),
                cfg.tol,
            )
        )

    eta = tuple(unit_disc(rng, CHAIN_COEF_RADIUS) for _ in range(n))
    fe = exponential(n, c=tuple(x.conjugate() for x in eta))
    gj = random_polynomial(rng, n, 2, radius=CHAIN_COEF_RADIUS)
    rep = op_equal_on_basis(
        OpChain([fe, gj.conj()]),
        OpChain([gj.shift(eta).conj() * fe]),
        cfg.degree,
        cfg.tol,
    )
    cases.append(_case_le("shift-operator-on-basis", rep.max_residual, cfg.tol))
    return cases


def _suite_prop_l3(cfg: SuiteConfig) -> list[CaseResult]:
    n = cfg.n
    ones = ones_vector(n)
    f = exponential(n, c=ones)
    v = exponential(n, c=ones, coef=math.exp(n))  # v(z) = exp((z + ones).ones)
    h = exponential(n, c=ones, d=ones)
    cases = [
        _case_le("sharp-gives-mixed-exponential", relative_residual(sharp(f, v), h), cfg.tol)
    ]
    rep = op_equal_on_basis(OpChain([f, v.conj()]), OpChain([h]), cfg.degree, cfg.tol)
    cases.append(_case_le("chain-matches-mixed-exponential", rep.max_residual, cfg.tol))

    separation = (math.exp(n) - 1.0) * math.exp(-n) * h.coeff_norm()
    cases.append(
        _case_ge("h-differs-from-pointwise-product", (h - f * v.conj()).coeff_norm(), separation)
    )

    zeta = tuple(0.3 + 0.1j for _ in range(n))
    ob = operator_berezin(OpChain([f, v.conj()]), zeta)
    cases.append(
        _case_le(
            "operator-berezin-pointwise",
            abs(ob - berezin(h).eval(zeta)) / max(1.0, abs(ob)),
            1e-9,
        )
    )
    return cases


def _suite_prop_p1(cfg: SuiteConfig) -> list[CaseResult]:
    rng = random.Random(cfg.seed)
    cases = []
    for j in range(10):
        d = 1 + j % min(cfg.n, 2)
        ones = ones_vector(d)
        f = exponential(d, c=ones)
        h, v, g = (
            random_polynomial(rng, d, 2, radius=CHAIN_COEF_RADIUS) for _ in range(3)
        )
        k = h.conj() * v.shift(ones).conj() * f * g
        rep = op_equal_on_basis(
            OpChain([h.conj() * f, v.conj() * g]), OpChain([k]), cfg.degree, cfg.tol
        )
        cases.append(_case_le(f"composite-chain-collapses-{j}", rep.max_residual, cfg.tol))
    return cases


def _commutator_families(cfg: SuiteConfig):
    """(name, f, g, u, v, should_commute) instances for the commutator suite."""
    rng = random.Random(cfg.seed)
    n = cfg.n
    out = []
    f, g = (random_polynomial(rng, n, 3, radius=CHAIN_COEF_RADIUS) for _ in range(2))
    out.append(("equal-symbols", f, g, f, g, True))
    c = unit_disc(rng)
    out.append(("scaled-symbol", f, g, f.scale(c), g.scale(c.conjugate()), True))
    out.append(("constant-symbol", f, g, constant(n, unit_disc(rng)), zero(n), True))
    if n >= 2:
        p = coordinate(n, 1)
        fk = kernel([0] * (n - 1) + [-2j * math.pi])
        gk = kernel([0] * (n - 1) + [1])
        out.append(("high-dim-kernel-pair", p * fk, zero(n), zero(n), gk, True))
    z1 = coordinate(n, 1)
    out.append(("creation-annihilation", z1, zero(n), zero(n), z1, False))
    for j in range(3):
        # every part involves z_1: constant parts or disjoint variable
        # support would make the pair genuinely commute
        f2, g2, u2, v2 = (_random_poly_in_z1(rng, n) for _ in range(4))
        out.append((f"random-pair-{j}", f2, g2, u2, v2, False))
    return out


def _random_poly_in_z1(rng: random.Random, n: int) -> Symbol:
    while True:
        p = random_polynomial(rng, n, 3, radius=CHAIN_COEF_RADIUS, min_degree=1)
        if any(a[0] >= 1 for a, _, _, _ in p._map):
            return p


def _suite_commutator(cfg: SuiteConfig) -> list[CaseResult]:
    cases = []
    n = cfg.n
    z1 = coordinate(n, 1)
    defect = commutator_defect(z1, zero(n), zero(n), z1)
    cases.append(
        _case_le(
            "annihilator-defect-is-unit-constant",
            abs(abs(defect.constant_value()) - 1.0),
            1e-12,
        )
    )

    for name, f, g, u, v, should in _commutator_families(cfg):
        dfct = commutator_defect(f, g, u, v)
        phi, psi = f + g.conj(), u + v.conj()
        rep = op_equal_on_basis(
            OpChain([phi, psi]), OpChain([psi, phi]), min(cfg.degree, 6), cfg.tol
        )
        fixed = relative_residual(berezin(u * g.conj() - f * v.conj()), u * g.conj() - f * v.conj())
        if should:
            cases.append(_case_le(f"defect-vanishes-{name}", dfct.coeff_norm(), EXACT_TOL))
            cases.append(_case_le(f"chains-commute-{name}", rep.max_residual, cfg.tol))
            cases.append(_case_le(f"berezin-fixed-point-{name}", fixed, cfg.tol))
        else:
            cases.append(_case_ge(f"defect-nonzero-{name}", dfct.coeff_norm(), 1e-8))
            cases.append(_case_ge(f"chains-differ-{name}", rep.max_residual, 1e-8))
            cases.append(_case_ge(f"berezin-moves-symbol-{name}", fixed, 1e-8))
    return cases


def _suite_cor_c4(cfg: SuiteConfig) -> list[CaseResult]:
    cases = []
    # dimension >= 2: a non-constant polynomial factor survives
    p = coordinate(2, 1)
    f = kernel([0, -2j * math.pi])
    g = kernel([0, 1])
    defect = commutator_defect(p * f, zero(2), zero(2), g)
    cases.append(_case_le("high-dim-defect-vanishes", defect.coeff_norm(), 1e-12))
    rep = op_equal_on_basis(
        OpChain([p * f, g.conj()]), OpChain([p * f * g.conj()]), 8, cfg.tol
    )
    cases.append(_case_le("high-dim-chain-matches-on-basis", rep.max_residual, cfg.tol))

    # dimension 1: the same data is NOT a Berezin fixed point
    p1 = coordinate(1, 1)
    f1 = kernel([-2j * math.pi])
    g1 = kernel([1])
    pfg = p1 * f1 * g1.conj()
    moved = (berezin(pfg) - pfg).coeff_norm()
    cases.append(_case_ge("one-dim-fixed-point-fails", moved, 0.9))
    shifted = (p1 + 1) * f1 * g1.conj()
    cases.append(
        _case_le("one-dim-polynomial-factor-shifts", relative_residual(berezin(pfg), shifted), cfg.tol)
    )
    return cases


def _moment_samples(seed: int):
    rng = random.Random(seed)
    out = []
    for _ in range(50):
        a = (rng.randint(0, 6),)
        b = (rng.randint(0, 6),)
        lam = (unit_disc(rng),)
        mu = (unit_disc(rng),)
        out.append((a, b, lam, mu))
    return out


def _suite_moments_oracle(cfg: SuiteConfig) -> list[CaseResult]:
    worst_closed = 0.0
    worst_orders = 0.0
    for a, b, lam, mu in _moment_samples(cfg.seed):
        s = monomial(1, a, b=b) * exponential(1, c=lam, d=mu)
        closed = gaussian_moment(a, b, lam, mu)
        q40 = quad_integral(s, 40)
        worst_closed = max(worst_closed, abs(closed - q40))
        worst_orders = max(worst_orders, abs(q40 - quad_integral(s, 60)))
    return [
        _case_le("closed-form-matches-quadrature", worst_closed, 1e-6),
        _case_le("quadrature-order-self-consistency", worst_orders, 1e-8),
    ]


def _suite_lemma_l1(cfg: SuiteConfig) -> list[CaseResult]:
    one = constant(1, 1)
    z = coordinate(1, 1)
    ez = exponential(1, c=[1])
    return [
        _case_le("constant-pair", lemma_l1_check(one, one), 1e-4),
        _case_le("linear-pair", lemma_l1_check(z, z), 1e-4),
        _case_le("exponential-pair", lemma_l1_check(ez, z), 1e-3),
    ]


SUITES = {
    "berezin-fixed-point": _suite_berezin_fixed_point,
    "brown-halmos": _suite_brown_halmos,
    "zero-product": _suite_zero_product,
    "sharp-operator-law": _suite_sharp_operator_law,
    "shift-identity": _suite_shift_identity,
    "prop-l3": _suite_prop_l3,
    "prop-p1": _suite_prop_p1,
    "commutator": _suite_commutator,
    "cor-c4": _suite_cor_c4,
    "moments-oracle": _suite_moments_oracle,
    "lemma-l1": _suite_lemma_l1,
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suite(
    name: str,
    n: int = DEFAULT_N,
    degree: int = DEFAULT_DEGREE,
    seed: int = DEFAULT_SEED,
    tol: float = DEFAULT_TOL,
    workers: int | None = None,
) -> VerificationReport:
    """Run one named suite (or "all"); deterministic given the configuration.

    "all" runs the entries of SUITES in order on the calling thread.
    `workers` is accepted and ignored, so that callers which still pass it
    keep working.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    if not 1 <= n <= 3:
        raise ValueError("suite dimension must be between 1 and 3")
    if not 0 <= degree <= 10:
        raise ValueError("basis degree bound must be between 0 and 10")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be positive and finite")
    cfg = SuiteConfig(n=n, degree=degree, seed=seed, tol=tol)

    start = time.perf_counter()
    if name == "all":
        cases = tuple(
            CaseResult(f"{sname}/{c.name}", c.residual, c.tol, c.passed)
            for sname, fn in SUITES.items()
            for c in fn(cfg)
        )
    else:
        cases = tuple(SUITES[name](cfg))
    duration_ms = int(round((time.perf_counter() - start) * 1000.0))
    return VerificationReport(
        suite=name,
        n=n,
        degree=degree,
        seed=seed,
        tol=tol,
        cases=cases,
        passed=all(c.passed for c in cases),
        duration_ms=duration_ms,
    )


def _f17(x: float) -> str:
    """17 significant digits; JSON has no NaN or infinity, so those render as null."""
    x = float(x)
    return f"{x:.17g}" if math.isfinite(x) else "null"


def report_to_json(report: VerificationReport) -> str:
    """Canonical JSON rendering; numbers carry 17 significant digits."""
    case_items = ",".join(
        "{"
        + f'"name":{json.dumps(c.name)},"residual":{_f17(c.residual)},'
        + f'"tol":{_f17(c.tol)},"pass":{"true" if c.passed else "false"}'
        + "}"
        for c in report.cases
    )
    return (
        "{"
        + f'"suite":{json.dumps(report.suite)},"n":{report.n},'
        + f'"degree":{report.degree},"seed":{report.seed},"tol":{_f17(report.tol)},'
        + f'"cases":[{case_items}],'
        + f'"pass":{"true" if report.passed else "false"},'
        + f'"duration_ms":{report.duration_ms}'
        + "}"
    )
