"""Command-line front end.

Subcommands: berezin, sharp, toeplitz-apply, moment, oracle, verify, parse.
Symbols are written in the text notation of `fockcalc.dsl` and passed with
repeatable -s/--symbol flags.  `verify` runs named suites and emits the
deterministic JSON report.  Exit codes: 0 success / report passed, 1 a
verification case failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import sys

from .berezin import berezin
from .dsl import SymbolSyntaxError, _fmt_coef, format_symbol, parse_complex, parse_symbol
from .gaussian import symbol_integral
from .oracle import quad_integral
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


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=DEFAULT_N, help="ambient dimension")
    p.add_argument(
        "-s",
        "--symbol",
        action="append",
        default=[],
        metavar="TEXT",
        help="symbol in the text notation (repeatable)",
    )
    p.add_argument(
        "--at",
        metavar="POINT",
        help="evaluation point: comma-separated complex components, e.g. '0.5+0.5i,1'",
    )
    p.add_argument("--degree", type=int, default=DEFAULT_DEGREE, help="basis degree bound")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="suite random seed")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="residual tolerance")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--out", metavar="PATH", help="write the output to a file as well")
    p.add_argument(
        "--suite",
        default="all",
        choices=SUITE_NAMES,
        help="suite name or 'all' (used by verify)",
    )


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fockcalc",
        description="Toeplitz-operator calculus on the Fock space over C^n",
    )
    sub = ap.add_subparsers(dest="command", required=True)

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
        _add_shared(p)
        if name == "oracle":
            p.add_argument("--order", type=int, default=None, help="quadrature order per axis")
    return ap


def _parse_symbols(args) -> list[Symbol]:
    return [parse_symbol(text, args.n) for text in args.symbol]


def _parse_point(text: str, n: int):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != n:
        raise SymbolSyntaxError(f"expected {n} components in --at, found {len(parts)}", 0)
    return tuple(parse_complex(p) for p in parts)


def _emit(args, payload_json: str, payload_text: str) -> None:
    body = payload_json if args.json else payload_text
    print(body)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body + "\n")


def _symbol_output(args, result: Symbol) -> None:
    import json as _json

    text = format_symbol(result)
    lines = [text]
    values = []
    if args.at:
        point = _parse_point(args.at, args.n)
        value = result.eval(point)
        values.append(_fmt_coef(value))
        lines.append(f"at ({args.at}): {_fmt_coef(value)}")
    payload = {"symbol": text}
    if values:
        payload["at"] = args.at
        payload["value"] = values[0]
    _emit(args, _json.dumps(payload), "\n".join(lines))


def _run(args) -> int:
    if args.command == "parse":
        if len(args.symbol) < 1:
            raise SymbolSyntaxError("parse needs at least one --symbol", 0)
        for text in args.symbol:
            _symbol_output(args, parse_symbol(text, args.n))
        return 0

    if args.command == "berezin":
        (s,) = _require_symbols(args, 1)
        _symbol_output(args, berezin(s))
        return 0

    if args.command == "sharp":
        f, g = _require_symbols(args, 2)
        _symbol_output(args, sharp(f, g))
        return 0

    if args.command == "toeplitz-apply":
        symbols = _parse_symbols(args)
        if len(symbols) < 2:
            raise SymbolSyntaxError(
                "toeplitz-apply needs chain symbols plus the argument (>= 2 --symbol)", 0
            )
        _symbol_output(args, OpChain(symbols[:-1]).apply(symbols[-1]))
        return 0

    if args.command == "moment":
        import json as _json

        (s,) = _require_symbols(args, 1)
        value = symbol_integral(s)
        _emit(args, _json.dumps({"moment": _fmt_coef(value)}), _fmt_coef(value))
        return 0

    if args.command == "oracle":
        import json as _json

        (s,) = _require_symbols(args, 1)
        quad = quad_integral(s, args.order)
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
        _emit(args, _json.dumps(payload), text)
        return 0

    if args.command == "verify":
        report = run_suite(
            args.suite,
            n=args.n,
            degree=args.degree,
            seed=args.seed,
            tol=args.tol,
        )
        body_json = report_to_json(report)
        lines = []
        for c in report.cases:
            flag = "pass" if c.passed else "FAIL"
            lines.append(f"[{flag}] {c.name} residual={c.residual:.3e} tol={c.tol:.3e}")
        lines.append(
            f"suite={report.suite} n={report.n} degree={report.degree} "
            f"seed={report.seed} cases={len(report.cases)} "
            f"result={'pass' if report.passed else 'FAIL'} ({report.duration_ms} ms)"
        )
        _emit(args, body_json, "\n".join(lines))
        return 0 if report.passed else 1

    raise AssertionError(f"unhandled command {args.command}")


def _require_symbols(args, count: int) -> list[Symbol]:
    symbols = _parse_symbols(args)
    if len(symbols) != count:
        raise SymbolSyntaxError(
            f"{args.command} needs exactly {count} --symbol argument(s), found {len(symbols)}", 0
        )
    return symbols


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except SymbolSyntaxError as exc:
        print(f"fockcalc: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"fockcalc: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
