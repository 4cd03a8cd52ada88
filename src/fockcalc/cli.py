"""Command-line front end.

Subcommands: berezin, sharp, toeplitz-apply, moment, oracle, verify, parse.
Symbols are written in the text notation of `fockcalc.dsl` and passed with
repeatable -s/--symbol flags.  `verify` runs named suites and emits the
deterministic JSON report.  Each subcommand accepts only the flags it
reads; any other flag is a usage error.  Exit codes: 0 success / report
passed, 1 a verification case failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .berezin import berezin
from .dsl import SymbolSyntaxError, _fmt_coef, format_symbol, parse_complex, parse_symbol
from .gaussian import symbol_integral
from .sharp import sharp
from .suites import (
    DEFAULT_DEGREE,
    DEFAULT_N,
    DEFAULT_SEED,
    DEFAULT_TOL,
    SUITE_NAMES,
    report_to_json,
    run_suite,
)
from .symbols import Symbol
from .toeplitz import OpChain


class _SubcommandParser(argparse.ArgumentParser):
    """Reports a flag it does not take with its own usage line; argparse would
    pool it with the top level's leftovers, which get the top-level usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fockcalc",
        description="Toeplitz-operator calculus on the Fock space over C^n",
    )
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    for name, helptext in [
        ("berezin", "Berezin transform of a symbol"),
        ("sharp", "sharp product of two holomorphic symbols"),
        ("toeplitz-apply", "apply a chain of Toeplitz operators to the last symbol"),
        ("moment", "exact Gaussian integral of a symbol"),
        ("oracle", "Gauss-Hermite quadrature of a symbol vs the closed form"),
        ("parse", "parse a symbol and echo its canonical form"),
        ("verify", "run verification suites"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--n", type=int, default=DEFAULT_N, help="ambient dimension")
        if name == "verify":
            p.set_defaults(run=_verify)
            p.add_argument(
                "--suite", default="all", choices=SUITE_NAMES, help="suite name or 'all'"
            )
            p.add_argument("--degree", type=int, default=DEFAULT_DEGREE, help=(
                "degree bound of the basis sweep of shift-identity/shift-operator-on-basis;"
                " every other chain identity is decided on the whole class"
                " (cor-c4/high-dim-chain-matches-on-basis keeps a second sweep at degree 8)"))
            p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="suite random seed")
            p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="residual tolerance")
        else:
            p.set_defaults(run=_calculate)
            p.add_argument(
                "-s",
                "--symbol",
                action="append",
                default=[],
                metavar="TEXT",
                help="symbol in the text notation (repeatable)",
            )
            if name == "oracle":
                p.add_argument("--order", type=int, default=None, help="quadrature order per axis")
            elif name != "moment":
                p.add_argument(
                    "--at",
                    metavar="POINT",
                    help="evaluation point: comma-separated complex components, e.g. '0.5+0.5i,1'",
                )
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument("--out", metavar="PATH", help="write the output to a file as well")
    return ap


def _symbols(args, count: int, too_few: str | None = None) -> list[Symbol]:
    """The parsed --symbol texts: exactly `count` of them, or at least `count`
    when `too_few` gives the error for fewer.  A wrong count is a plain ValueError:
    it points into no text."""
    found = len(args.symbol)
    if too_few is None and found != count:
        raise ValueError(
            f"{args.command} needs exactly {count} --symbol argument(s), found {found}"
        )
    if found < count:
        raise ValueError(too_few)
    return [parse_symbol(text, args.n) for text in args.symbol]


def _parse_point(text: str, n: int):
    """The --at point: n comma-separated complex components, a blank one included;
    a syntax error's position counts from the start of text."""
    parts = text.split(",")
    if len(parts) != n:
        noun = "component" if n == 1 else "components"
        raise ValueError(f"expected {n} {noun} in --at, found {len(parts)}")
    point, start = [], 0
    for part in parts:
        try:
            point.append(parse_complex(part))
        except SymbolSyntaxError as exc:
            raise SymbolSyntaxError(exc.message, start + exc.position) from None
        start += len(part) + 1
    return tuple(point)


def _emit(args, payload_json: str, payload_text: str) -> None:
    body = payload_json if args.json else payload_text
    print(body)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body + "\n")


def _symbol_output(args, *results: Symbol) -> None:
    """Emit the results at once, so that --out holds all of them, each with its value
    at --at if given; --json writes one object per line."""
    point = _parse_point(args.at, args.n) if args.at else None
    payloads, lines = [], []
    for result in results:
        text = format_symbol(result)
        payload = {"symbol": text}
        lines.append(text)
        if point is not None:
            value = _fmt_coef(result.eval(point))
            payload.update(at=args.at, value=value)
            lines.append(f"at ({args.at}): {value}")
        payloads.append(json.dumps(payload))
    _emit(args, "\n".join(payloads), "\n".join(lines))


def _calculate(args) -> int:
    if args.command == "parse":
        _symbol_output(args, *_symbols(args, 1, "parse needs at least one --symbol"))
    elif args.command == "toeplitz-apply":
        *chain, u = _symbols(
            args, 2, "toeplitz-apply needs chain symbols plus the argument (>= 2 --symbol)"
        )
        _symbol_output(args, OpChain(chain).apply(u))
    elif args.command == "sharp":
        _symbol_output(args, sharp(*_symbols(args, 2)))
    elif args.command == "berezin":
        (s,) = _symbols(args, 1)
        _symbol_output(args, berezin(s))
    elif args.command == "moment":
        (s,) = _symbols(args, 1)
        value = _fmt_coef(symbol_integral(s))
        _emit(args, json.dumps({"moment": value}), value)
    else:  # oracle
        from . import oracle  # numpy loads on first oracle use

        (s,) = _symbols(args, 1)
        quad = oracle.quad_integral(s, args.order)
        closed = symbol_integral(s)
        diff = abs(quad - closed)
        payload = {
            "quadrature": _fmt_coef(quad),
            "closed_form": _fmt_coef(closed),
            "abs_difference": f"{diff:.17g}",
        }
        text = (
            f"quadrature : {_fmt_coef(quad)}\n"
            f"closed form: {_fmt_coef(closed)}\n"
            f"difference : {diff:.3e}"
        )
        _emit(args, json.dumps(payload), text)
    return 0


def _verify(args) -> int:
    report = run_suite(args.suite, n=args.n, degree=args.degree, seed=args.seed, tol=args.tol)
    lines = [
        f"[{'pass' if c.passed else 'FAIL'}] {c.name} residual={c.residual:.3e} tol={c.tol:.3e}"
        + (f" ({c.detail})" if c.detail and not c.passed else "")
        for c in report.cases
    ]
    lines.append(
        f"suite={report.suite} n={report.n} degree={report.degree} "
        f"seed={report.seed} cases={len(report.cases)} "
        f"result={'pass' if report.passed else 'FAIL'} ({report.duration_ms} ms)"
    )
    _emit(args, report_to_json(report), "\n".join(lines))
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"fockcalc: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
