"""Symbolic-numeric calculus for Toeplitz operators on the Fock space over C^n.

The package works on the closed class of polynomial-times-exponential
symbols, on which Berezin transforms, sharp products and Toeplitz actions
are all exactly computable; independent quadrature and Fourier oracles
cross-check the closed forms, and named verification suites exercise the
operator identities end to end (see `fockcalc.suites` and the `fockcalc`
command-line tool).
"""

from .berezin import berezin, berezin_inverse, operator_berezin, toeplitz_symbol
from .dsl import SymbolSyntaxError, format_symbol, parse_complex, parse_symbol
from .gaussian import fock_inner, gaussian_moment, symbol_integral
from .indices import mi_binomial, mi_enumerate, mi_factorial
from .sharp import sharp
from .symbols import (
    Symbol,
    SymbolTerm,
    constant,
    coordinate,
    exponential,
    kernel,
    monomial,
    relative_residual,
    zero,
)
from .toeplitz import (
    BasisEqualityReport,
    OpChain,
    OperatorEqualityReport,
    brown_halmos_h,
    commutator_defect,
    normal_form,
    op_equal,
    op_equal_on_basis,
    toeplitz_apply,
)

__all__ = [
    "BasisEqualityReport",
    "OpChain",
    "OperatorEqualityReport",
    "Symbol",
    "SymbolSyntaxError",
    "SymbolTerm",
    "berezin",
    "berezin_inverse",
    "brown_halmos_h",
    "commutator_defect",
    "constant",
    "coordinate",
    "exponential",
    "fock_inner",
    "format_symbol",
    "gaussian_moment",
    "kernel",
    "lemma_l1_check",
    "mi_binomial",
    "mi_enumerate",
    "mi_factorial",
    "monomial",
    "normal_form",
    "op_equal",
    "op_equal_on_basis",
    "operator_berezin",
    "parse_complex",
    "parse_symbol",
    "quad_integral",
    "relative_residual",
    "sharp",
    "symbol_integral",
    "toeplitz_apply",
    "toeplitz_symbol",
    "zero",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """The oracles, which load numpy, are imported on first use (PEP 562)."""
    if name in ("lemma_l1_check", "quad_integral"):
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
