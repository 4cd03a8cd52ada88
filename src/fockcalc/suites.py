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
from dataclasses import dataclass, replace

from .berezin import berezin, operator_berezin
from .gaussian import gaussian_moment
from .indices import mi_enumerate
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
from .symbols import _merge, _snap, _tidy
from .toeplitz import OpChain, brown_halmos_h, commutator_defect, normal_form, op_equal
from .toeplitz import op_equal_on_basis

DEFAULT_SEED = 0xF0CC
DEFAULT_N = 2
DEFAULT_DEGREE = 6
DEFAULT_TOL = 1e-9

#: coefficient disc radius for chain-comparison test symbols.  Kept at 1/2
#: rather than 1 so that the identity entry (beta, e) = (0, 0) of a product's
#: normal form stays below coefficient norm 1: perturbing h by 1 then moves
#: that entry by residual 1.0 (to rounding) at n = 1, 2, 3 (default seed),
#: against the 0.5 threshold of the "perturbed symbol is detected" cases.
CHAIN_COEF_RADIUS = 0.5


#: the residual a zero-product or commutator separation case must reach
SEPARATION_FLOOR = 1e-8

#: positive stand-in for "must be exactly zero": any nonzero canonical
#: coefficient norm is astronomically larger than this
EXACT_TOL = 1e-300


@dataclass(frozen=True)
class CaseResult:
    """One case; the CLI prints detail on a FAIL line, the JSON report leaves it out."""

    name: str
    residual: float
    tol: float
    passed: bool
    detail: str = ""


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


def _case_le(name: str, residual, tol: float, detail: str = "") -> CaseResult:
    """residual is a number, with an optional detail, or a report of op_equal(_on_basis),
    whose `where` is the detail."""
    detail, residual = getattr(residual, "where", detail), getattr(residual, "max_residual", residual)
    return CaseResult(name, float(residual), float(tol), residual <= tol, detail)


def _case_ge(name: str, residual, threshold: float) -> CaseResult:
    """As _case_le, for a residual that must reach threshold."""
    case = _case_le(name + "-expect-residual-at-least", residual, threshold)
    return replace(case, passed=case.residual >= threshold)


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
    if min_degree > degree:
        raise ValueError(f"min_degree {min_degree} is above the degree {degree}")
    return Symbol._of(n, _polynomial_map(rng, n, degree, max_terms, radius, min_degree))


def _polynomial_map(rng, n, degree, max_terms, radius, min_degree=0) -> dict:
    """The term map of random_polynomial, merged, without noise or zeros."""
    idx, b, cz = mi_enumerate(n, degree), (0,) * n, (0j,) * n
    out: dict = {}
    while not out or max(sum(a) for a, _, _, _ in out) < min_degree:
        mass: dict = {}
        terms = rng.randint(1, max_terms)
        draws = [((rng.choice(idx), b, cz, cz), unit_disc(rng, radius)) for _ in range(terms)]
        out = _tidy(_merge({}, mass, draws), mass)
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
    """Random holomorphic symbol: sum of up to `blocks` polynomial*exp pieces, each
    merged on its own, all canonicalized once."""
    while True:
        out, mass = {}, {}
        for _ in range(rng.randint(1, blocks)):
            p = _polynomial_map(rng, n, degree, max_terms, radius)
            if rng.random() < exp_prob:
                c = _snap([unit_disc(rng) for _ in range(n)])
                p = {(a, b, c, d): x for (a, b, _, d), x in p.items()}
            _merge(out, mass, p.items())
        s = Symbol._of(n, out, mass)
        if not s.is_zero:
            return s


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
    b_mixed = berezin(mixed)
    lin = berezin(mixed.scale(alpha) + f.scale(beta)) - (
        b_mixed.scale(alpha) + berezin(f).scale(beta)
    )
    cases.append(_case_le("linearity", lin.coeff_norm(), cfg.tol))
    cases.append(
        _case_le(
            "conjugation-commutes",
            relative_residual(berezin(mixed.conj()), b_mixed.conj()),
            cfg.tol,
        )
    )

    # pointwise agreement with the quadrature oracle at n = 1
    from . import oracle  # numpy loads on first oracle use

    rng1 = random.Random(cfg.seed + 1)
    s1 = random_holo(rng1, 1, 3, exp_prob=1.0) * random_holo(rng1, 1, 3).conj()
    b1 = berezin(s1)
    worst = 0.0
    for _ in range(3):
        zeta = unit_disc(rng1)
        weight = exponential(1, c=[zeta.conjugate()], d=[zeta])
        quad = math.exp(-abs(zeta) ** 2) * oracle.quad_integral(s1 * weight)
        worst = max(worst, abs(b1.eval([zeta]) - quad))
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
    """T_{f+conj g} T_{u+conj v} = T_h on the whole class, decided on normal forms;
    cf. the zero-product question of Bauer, Choe and Koo (J. Funct. Anal., 2015)."""
    rng = random.Random(cfg.seed)
    cases = []
    for j in range(5):
        d = 1 + j % min(cfg.n, 2)
        f, g, u, v = _random_pluriharmonic_parts(rng, d)
        h = brown_halmos_h(f, g, u, v)
        pair = normal_form(OpChain([f + g.conj(), u + v.conj()]))
        rep, rep2 = (op_equal(pair, OpChain([s])) for s in (h, h + 1))
        cases.append(_case_le(f"product-chain-matches-h-{j}", rep, cfg.tol))
        cases.append(_case_ge(f"perturbed-h-detected-{j}", rep2, 0.5))

    u, v = (random_polynomial(rng, cfg.n, 3, radius=CHAIN_COEF_RADIUS) for _ in range(2))
    h0 = brown_halmos_h(zero(cfg.n), zero(cfg.n), u, v)
    cases.append(_case_le("zero-first-factor-gives-zero-h", h0.coeff_norm(), EXACT_TOL))
    return cases


def _suite_zero_product(cfg: SuiteConfig) -> list[CaseResult]:
    """T_phi T_psi = 0 for pluriharmonic phi, psi only when a factor vanishes: the
    question of Bauer, Choe and Koo (J. Funct. Anal., 2015), decided on the class.
    The residual is the largest coefficient norm of an entry of the product's
    normal form: its op_equal residual against the zero operator, whose form is {}."""
    rng = random.Random(cfg.seed)
    cases = []
    for j in range(10):
        d = 1 + j % min(cfg.n, 2)
        f, g, u, v = _random_pluriharmonic_parts(rng, d)
        rep = op_equal({}, OpChain([f + g.conj(), u + v.conj()]))
        cases.append(_case_ge(f"nonzero-pair-survives-{j}", rep, SEPARATION_FLOOR))

    f, g, u, v = _random_pluriharmonic_parts(rng, cfg.n)
    for name, chain in (
        ("zero-first-factor-annihilates", OpChain([zero(cfg.n), u + v.conj()])),
        ("zero-second-factor-annihilates", OpChain([f + g.conj(), zero(cfg.n)])),
    ):
        rep = op_equal({}, chain)
        cases.append(_case_le(name, rep, EXACT_TOL))
    return cases


def _suite_sharp_operator_law(cfg: SuiteConfig) -> list[CaseResult]:
    rng = random.Random(cfg.seed)
    cases = []
    for j in range(5):
        d = 1 + j % min(cfg.n, 3)
        f = random_holo(rng, d, 3, radius=CHAIN_COEF_RADIUS, exp_prob=0.5)
        g = random_holo(rng, d, 3, radius=CHAIN_COEF_RADIUS, exp_prob=0.5)
        rep = op_equal(OpChain([f, g.conj()]), OpChain([sharp(f, g)]))
        cases.append(_case_le(f"factored-chain-matches-symbol-{j}", rep, cfg.tol))

    # finite sums handled by linearity of the symbol map
    pairs = [
        (
            random_polynomial(rng, cfg.n, 2, radius=CHAIN_COEF_RADIUS),
            random_polynomial(rng, cfg.n, 2, radius=CHAIN_COEF_RADIUS),
        )
        for _ in range(2)
    ]
    total = sharp(pairs[0][0], pairs[0][1]) + sharp(pairs[1][0], pairs[1][1])
    rep = op_equal(normal_form(*(OpChain([f, g.conj()]) for f, g in pairs)), OpChain([total]))
    cases.append(_case_le("two-term-sum-linearity", rep, cfg.tol))
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
    cases.append(_case_le("shift-operator-on-basis", rep, cfg.tol))
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
    rep = op_equal(OpChain([f, v.conj()]), OpChain([h]))
    cases.append(_case_le("chain-matches-mixed-exponential", rep, cfg.tol))

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
        rep = op_equal(OpChain([h.conj() * f, v.conj() * g]), OpChain([k]))
        cases.append(_case_le(f"composite-chain-collapses-{j}", rep, cfg.tol))
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
        rep = op_equal(OpChain([phi, psi]), OpChain([psi, phi]))
        fixed = relative_residual(berezin(u * g.conj() - f * v.conj()), u * g.conj() - f * v.conj())
        if should:
            cases.append(_case_le(f"defect-vanishes-{name}", dfct.coeff_norm(), EXACT_TOL))
            cases.append(_case_le(f"chains-commute-{name}", rep, cfg.tol))
            cases.append(_case_le(f"berezin-fixed-point-{name}", fixed, cfg.tol))
        else:
            cases.append(_case_ge(f"defect-nonzero-{name}", dfct.coeff_norm(), SEPARATION_FLOOR))
            cases.append(_case_ge(f"chains-differ-{name}", rep, SEPARATION_FLOOR))
            cases.append(_case_ge(f"berezin-moves-symbol-{name}", fixed, SEPARATION_FLOOR))
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
    cases.append(_case_le("high-dim-chain-matches-on-basis", rep, cfg.tol))

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
    from . import oracle

    labels = ("closed", "order 40", "order 60")
    rows = []  # (sample, its values under labels)
    for a, b, lam, mu in _moment_samples(cfg.seed):
        s = monomial(1, a, b=b) * exponential(1, c=lam, d=mu)
        values = gaussian_moment(a, b, lam, mu), oracle.quad_integral(s, 40), oracle.quad_integral(s, 60)
        rows.append(((a, b, lam, mu), values))
    cases = []
    for name, i, j, tol in (
        ("closed-form-matches-quadrature", 0, 1, 1e-6),
        ("quadrature-order-self-consistency", 1, 2, 1e-8),
    ):
        (a, b, (lam,), (mu,)), v = max(rows, key=lambda r: abs(r[1][i] - r[1][j]))
        where = f"worst sample a={a} b={b} lam=({lam:.6g}) mu=({mu:.6g})"
        cases.append(_case_le(name, abs(v[i] - v[j]), tol, f"{where}: {labels[i]} {v[i]} vs {labels[j]} {v[j]}"))
    return cases


def _suite_lemma_l1(cfg: SuiteConfig) -> list[CaseResult]:
    from . import oracle

    one = constant(1, 1)
    z = coordinate(1, 1)
    ez = exponential(1, c=[1])
    return [
        _case_le("constant-pair", oracle.lemma_l1_check(one, one), 1e-4),
        _case_le("linear-pair", oracle.lemma_l1_check(z, z), 1e-4),
        _case_le("exponential-pair", oracle.lemma_l1_check(ez, z), 1e-3),
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
            replace(c, name=f"{sname}/{c.name}")
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
