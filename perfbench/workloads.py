"""The benchmark's workloads: their inputs, one timed pass, and the output checks.

verify-n2 / verify-n3-d10
    ``fockcalc verify --suite all --json`` run in-process through
    ``fockcalc.cli.main`` (a batch run).  The suite seed stays at the CLI
    default: the work per suite seed varies 2.3x at n=3/degree 10 (13 s to
    30 s measured) and by +-15% at n=2, which would swamp the spread the
    benchmark is meant to resolve.  Checks: exit code 0, the JSON report
    parses, every case passes, and the case names equal the list recorded
    in ``expected_cases.json`` for that (n, degree).

calc-stream
    A closed loop with one caller over a seeded stream of calculator calls:
    parse two random holomorphic texts, run one operation, format the
    result.  The texts are drawn by ``fockcalc.suites.random_holo`` at the
    CLI's default degree, and each (operation, n) pair has an equal share.
    The stream comes in independent chunks, one per pass, so that the
    latency percentiles of a run pool many distinct calls.  Two calls of
    each chunk, of (op, n) pairs that rotate from chunk to chunk, are checked
    on paths that do not go through the call's own code (quadrature for
    integrals, inner products, Toeplitz actions and Berezin values at
    n <= 2; the round trip ``berezin(sharp(f, g)) == f * conj(g)`` for sharp
    at any n); a repeated pass over a chunk must reproduce the first pass's
    output texts.

``fockcalc`` is imported lazily, so that the caller decides when import
time is measured.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

VERIFY_CONFIG = {"verify-n2": (2, 6), "verify-n3-d10": (3, 10)}
STREAM = "calc-stream"
WORKLOADS = (*VERIFY_CONFIG, STREAM)

STREAM_OPS = ("berezin", "sharp", "toeplitz", "integral", "inner")
STREAM_DIMS = (1, 2, 3)
STREAM_REPS = 32  # calls of each (op, n) per chunk: 480 calls
POINT_PARAM = 0.5  # bound on real and imaginary parts of the Berezin check point
#: (op, n) pairs with an independent check: quadrature needs n <= 2
CHECKABLE = [(op, n) for op in STREAM_OPS for n in STREAM_DIMS if op == "sharp" or n <= 2]
CHECKS_PER_CHUNK = 2  # chunk c checks pairs 2c and 2c+1 (mod 11), so 6 chunks check them all
QUAD_TOL = 1e-9  # relative, quadrature vs closed form
ROUND_TRIP_TOL = 1e-9  # relative coefficient residual of berezin(sharp(f, g))

EXPECTED_CASES = Path(__file__).with_name("expected_cases.json")


def _fockcalc():
    import fockcalc
    import fockcalc.cli
    import fockcalc.suites

    return fockcalc


# -- verify ---------------------------------------------------------------------


def verify_argv(n: int, degree: int) -> list[str]:
    argv = ["verify", "--suite", "all", "--json"]
    if n != 2:
        argv += ["--n", str(n)]
    if degree != 6:
        argv += ["--degree", str(degree)]
    return argv


def expected_case_names(n: int, degree: int) -> list[str]:
    return json.loads(EXPECTED_CASES.read_text())[f"n={n},degree={degree}"]


class VerifyWorkload:
    def __init__(self, n: int, degree: int):
        self.argv = verify_argv(n, degree)
        self.expected = expected_case_names(n, degree)
        self.fc = _fockcalc()

    def advance(self) -> None:
        """Every verify pass runs the same command."""

    def run_pass(self, between=None):
        """One timed verify run, which is one call.

        Returns (wall seconds, [(start, seconds)], (exit code, stdout)).
        `between` is unused: a verify run has no gaps between calls.
        """
        buf = io.StringIO()
        main = self.fc.cli.main  # looked up per call, so a tracer's binding is used
        start = perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = main(self.argv)
        wall = perf_counter() - start
        return wall, [(start, wall)], (rc, buf.getvalue())

    def check(self, output) -> tuple[int, int, list[str]]:
        """(cases attempted, cases failed, problems) for one pass's output."""
        rc, text = output
        total = len(self.expected)
        try:
            cases = json.loads(text)["cases"]
            names = [c["name"] for c in cases]
        except (ValueError, KeyError, TypeError) as exc:
            return total, total, [f"unreadable report: {exc!r}"]
        if names != self.expected:
            return total, total, ["case names differ from expected_cases.json"]
        failed = sum(1 for c in cases if c.get("pass") is not True)
        problems = [f"{failed} case(s) failed"] if failed else []
        if rc != 0:
            problems.append(f"exit code {rc}")
            failed = failed or total
        return total, failed, problems


# -- calc-stream ---------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    n: int
    op: str
    f: str
    g: str
    point: tuple[complex, ...]
    checked: bool


def make_stream(seed: int, chunk: int = 0, reps: int = STREAM_REPS) -> list[Request]:
    """Chunk `chunk` of the stream for `seed`; chunks are independent draws.

    Each (op, n) pair occurs `reps` times, in seeded order.  f and g are
    drawn by ``fockcalc.suites.random_holo`` at the CLI's default degree and
    rendered by ``format_symbol``.
    """
    fc = _fockcalc()
    random_holo, degree = fc.suites.random_holo, fc.suites.DEFAULT_DEGREE
    rng = random.Random(f"{seed}:{chunk}")
    kinds = [(op, n) for op in STREAM_OPS for n in STREAM_DIMS] * reps
    rng.shuffle(kinds)
    to_check = {  # the first call of each of these pairs is checked
        CHECKABLE[(CHECKS_PER_CHUNK * chunk + i) % len(CHECKABLE)] for i in range(CHECKS_PER_CHUNK)
    }
    out = []
    for op, n in kinds:
        f, g = (fc.format_symbol(random_holo(rng, n, degree)) for _ in range(2))
        point = tuple(
            complex(rng.uniform(-POINT_PARAM, POINT_PARAM), rng.uniform(-POINT_PARAM, POINT_PARAM))
            for _ in range(n)
        )
        checked = (op, n) in to_check
        to_check.discard((op, n))
        out.append(Request(n, op, f, g, point, checked))
    return out


def call(fc, req: Request) -> str:
    """One calculator call: parse, operate, format."""
    f = fc.parse_symbol(req.f, req.n)
    g = fc.parse_symbol(req.g, req.n)
    if req.op == "berezin":
        result = fc.berezin(f * g.conj())
    elif req.op == "sharp":
        result = fc.sharp(f, g)
    elif req.op == "toeplitz":
        result = fc.toeplitz_apply(f + g.conj(), f)
    elif req.op == "integral":
        result = fc.constant(req.n, fc.symbol_integral(f * g.conj()))
    else:
        result = fc.constant(req.n, fc.fock_inner(f, g))
    return fc.format_symbol(result)


def check_request(fc, req: Request, out: str) -> str | None:
    """Check one formatted result on an independent path; returns a problem or None."""
    n = req.n
    f = fc.parse_symbol(req.f, n)
    g = fc.parse_symbol(req.g, n)
    if req.op == "sharp":
        # The round trip amplifies the 14-digit rounding of the text up to
        # ~1e-9, so it runs on the full-precision product that `out` renders.
        result = fc.sharp(f, g)
        if fc.format_symbol(result) != out:
            return "sharp output is not the rendering of sharp(f, g)"
        res = fc.relative_residual(fc.berezin(result), f * g.conj())
        return None if res <= ROUND_TRIP_TOL else f"berezin(sharp) residual {res:.3e}"
    result = fc.parse_symbol(out, n)
    if req.op in ("integral", "inner"):
        value = result.constant_value()
        ref = fc.quad_integral(f * g.conj())
    elif req.op == "berezin":
        zeta = req.point
        value = result.eval(zeta)
        weight = fc.exponential(n, c=[z.conjugate() for z in zeta], d=zeta)
        norm2 = sum(abs(z) ** 2 for z in zeta)
        ref = cmath.exp(-norm2) * fc.quad_integral(f * g.conj() * weight)
    else:  # <T_phi f, f> = integral of phi * f * conj(f)
        value = fc.fock_inner(result, f)
        ref = fc.quad_integral((f + g.conj()) * f * f.conj())
    err = abs(value - ref) / max(1.0, abs(ref))
    return None if err <= QUAD_TOL else f"{req.op} differs from quadrature by {err:.3e}"


class StreamWorkload:
    """Passes over chunks of the stream; `advance()` moves to the next chunk."""

    def __init__(self, seed: int, reps: int = STREAM_REPS):
        self.seed, self.reps = seed, reps
        self.chunk = 0
        self.requests = make_stream(seed, 0, reps)
        self.reference: list[str | None] | None = None  # first outputs of this chunk
        self.fc = _fockcalc()

    def advance(self) -> None:
        self.chunk += 1
        self.requests = make_stream(self.seed, self.chunk, self.reps)
        self.reference = None

    def run_pass(self, between=None):
        """One timed pass; returns (seconds, [(start, seconds)] per call, outputs).

        The pass's seconds are those of its calls; `between()`, if given,
        runs untimed after each call.
        """
        fc = self.fc
        outputs: list[str | None] = []
        calls = []
        for req in self.requests:
            t = perf_counter()
            try:
                outputs.append(call(fc, req))
            except ValueError:
                outputs.append(None)
            calls.append((t, perf_counter() - t))
            if between is not None:
                between()
        return sum(sec for _, sec in calls), calls, outputs

    def check(self, outputs) -> tuple[int, int, list[str]]:
        """(calls attempted, calls failed, problems) for one pass's outputs.

        The first pass over a chunk has its sample checked on independent
        paths; a repeated pass must reproduce the first one's texts.
        """
        problems = []
        bad = set()
        for i, (req, out) in enumerate(zip(self.requests, outputs)):
            if out is None:
                bad.add(i)
                problems.append(f"call {i} ({req.op}) raised")
        if self.reference is None:
            self.reference = outputs
            for i, (req, out) in enumerate(zip(self.requests, outputs)):
                if req.checked and out is not None:
                    problem = check_request(self.fc, req, out)
                    if problem:
                        bad.add(i)
                        problems.append(f"chunk {self.chunk} call {i}: {problem}")
        else:
            for i, (a, b) in enumerate(zip(self.reference, outputs)):
                if a != b:
                    bad.add(i)
                    problems.append(f"call {i} output changed between passes")
        return len(self.requests), len(bad), problems


def make_workload(name: str, seed: int):
    if name in VERIFY_CONFIG:
        return VerifyWorkload(*VERIFY_CONFIG[name])
    if name == STREAM:
        return StreamWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
