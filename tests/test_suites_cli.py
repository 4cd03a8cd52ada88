import json
import random
import re
import shlex
from pathlib import Path

import pytest

from fockcalc import suites as suites_module
from fockcalc.cli import _build_parser, main
from fockcalc.dsl import format_symbol
from fockcalc.indices import mi_enumerate
from fockcalc.suites import (
    SUITES,
    CaseResult,
    VerificationReport,
    random_holo,
    random_polynomial,
    report_to_json,
    run_suite,
    unit_disc,
)
from fockcalc.symbols import exponential, monomial, zero


def _random_polynomial_by_sums(rng, n, degree, max_terms=3, radius=1.0, min_degree=0):
    """random_polynomial as a loop of Symbol sums, one drawn monomial at a time."""
    idx = mi_enumerate(n, degree)
    out = zero(n)
    while out.is_zero or out.degree() < min_degree:
        out = zero(n)
        for _ in range(rng.randint(1, max_terms)):
            out = out + monomial(n, rng.choice(idx), coef=unit_disc(rng, radius))
    return out


def _random_holo_by_sums(rng, n, degree, max_terms=3, radius=1.0, exp_prob=0.5, blocks=1):
    """random_holo as a loop of Symbol sums and products, one piece at a time."""
    out = zero(n)
    while out.is_zero:
        for _ in range(rng.randint(1, blocks)):
            p = _random_polynomial_by_sums(rng, n, degree, max_terms, radius)
            if rng.random() < exp_prob:
                p = p * exponential(n, c=[unit_disc(rng) for _ in range(n)])
            out = out + p
    return out


def test_random_polynomial_matches_the_sum_loop():
    for n in (1, 2, 3):
        for seed in (0, 1, 7, 12345):
            for kwargs in ({}, {"max_terms": 6, "radius": 2.0}, {"min_degree": 3}, {"min_degree": 6}):
                new, old = random.Random(seed), random.Random(seed)
                for _ in range(5):
                    got = random_polynomial(new, n, 6, **kwargs)
                    want = _random_polynomial_by_sums(old, n, 6, **kwargs)
                    assert format_symbol(got) == format_symbol(want)
                    assert got == want
                assert new.getstate() == old.getstate()


def test_random_polynomial_rejects_min_degree_above_degree():
    rng = random.Random(3)
    state = rng.getstate()
    with pytest.raises(ValueError, match="min_degree 4 is above the degree 3"):
        random_polynomial(rng, 2, 3, min_degree=4)
    assert rng.getstate() == state
    assert random_polynomial(rng, 2, 3, min_degree=3).degree() == 3


def test_random_holo_matches_the_sum_loop():
    # blocks of exponent-free pieces share keys, so the order of the sums shows
    for n in (1, 2, 3):
        for seed in (0, 1, 7, 12345):
            for blocks in (1, 3):
                for exp_prob in (0.0, 0.5, 1.0):
                    for kwargs in ({"max_terms": 2}, {"max_terms": 4, "radius": 2.0}):
                        new, old = random.Random(seed), random.Random(seed)
                        for _ in range(5):
                            got = random_holo(new, n, 3, exp_prob=exp_prob, blocks=blocks, **kwargs)
                            want = _random_holo_by_sums(
                                old, n, 3, exp_prob=exp_prob, blocks=blocks, **kwargs
                            )
                            assert format_symbol(got) == format_symbol(want)
                            assert got == want
                        assert new.getstate() == old.getstate()


def test_every_named_suite_passes_at_defaults():
    for name in SUITES:
        rep = run_suite(name)
        assert rep.passed, [c for c in rep.cases if not c.passed]
        assert rep.suite == name
        assert all(c.residual >= 0.0 for c in rep.cases)


def test_all_concatenates_with_prefixes():
    rep = run_suite("all")
    assert rep.passed
    names = [c.name for c in rep.cases]
    assert any(n.startswith("brown-halmos/") for n in names)
    assert any(n.startswith("lemma-l1/") for n in names)
    total = sum(len(run_suite(s).cases) for s in SUITES)
    assert len(rep.cases) == total


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_resource_guards():
    with pytest.raises(ValueError):
        run_suite("prop-l3", n=4)
    with pytest.raises(ValueError):
        run_suite("prop-l3", degree=11)
    for tol in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            run_suite("prop-l3", tol=tol)


def test_cor_c4_keeps_failing_case_as_pass():
    rep = run_suite("cor-c4", n=1)
    assert rep.passed
    case = next(c for c in rep.cases if c.name.startswith("one-dim-fixed-point-fails"))
    assert case.residual >= 0.1
    assert case.passed


def test_reports_are_deterministic():
    a = run_suite("all", n=2, degree=5, seed=123, tol=1e-9)
    b = run_suite("all", n=2, degree=5, seed=123, tol=1e-9)
    ja = json.loads(report_to_json(a))
    jb = json.loads(report_to_json(b))
    ja["duration_ms"] = jb["duration_ms"] = 0
    assert json.dumps(ja, sort_keys=True) == json.dumps(jb, sort_keys=True)


def test_seed_changes_cases():
    a = run_suite("zero-product", seed=1)
    b = run_suite("zero-product", seed=2)
    assert [c.residual for c in a.cases] != [c.residual for c in b.cases]


def test_report_json_shape():
    rep = run_suite("lemma-l1")
    data = json.loads(report_to_json(rep))
    assert set(data) == {"suite", "n", "degree", "seed", "tol", "cases", "pass", "duration_ms"}
    assert data["pass"] is True
    for case in data["cases"]:
        assert set(case) == {"name", "residual", "tol", "pass"}
    # numbers survive the round trip losslessly at 17 significant digits
    assert data["cases"][0]["residual"] == rep.cases[0].residual


def test_report_json_non_finite_residuals_are_null():
    cases = (
        CaseResult("nan-residual", float("nan"), 1e-9, False),
        CaseResult("inf-residual", float("inf"), 1e-9, False),
    )
    rep = VerificationReport("stub", 1, 6, 0, 1e-9, cases, False, 0)
    data = json.loads(report_to_json(rep))
    assert [c["residual"] for c in data["cases"]] == [None, None]
    assert [c["pass"] for c in data["cases"]] == [False, False]
    assert data["pass"] is False


# -- command line ----------------------------------------------------------------


def test_cli_parse_and_compute(capsys):
    assert main(["parse", "-s", "z1 + z1", "--n", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2*z1"

    assert main(["sharp", "-s", "z1", "-s", "z1", "--n", "1"]) == 0
    assert capsys.readouterr().out.strip() == "-1 + z1*conj(z1)"

    assert main(["berezin", "-s", "z1*conj(z1)", "--n", "1", "--at", "0.5+0.5i"]) == 0
    out = capsys.readouterr().out
    assert "1 + z1*conj(z1)" in out and "1.5" in out

    # a point component is a number, however small
    assert main(["parse", "-s", "z1", "--n", "1", "--at", "1e-13"]) == 0
    assert capsys.readouterr().out.splitlines() == ["z1", "at (1e-13): 1e-13"]

    assert main(["parse", "-s", "exp(0.2*z1)", "--n", "1"]) == 0
    assert capsys.readouterr().out.strip() == "exp(0.2*z1)"

    assert main(["moment", "-s", "z1^2*conj(z1)^2", "--n", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2"

    assert main(["toeplitz-apply", "-s", "conj(z1)", "-s", "z1^3", "--n", "1"]) == 0
    assert capsys.readouterr().out.strip() == "3*z1^2"


def test_cli_json_payloads(capsys):
    assert main(["berezin", "-s", "z1*conj(z1)", "--n", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["symbol"] == "1 + z1*conj(z1)"

    assert main(["oracle", "-s", "z1*conj(z1)", "--n", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert float(data["abs_difference"]) < 1e-6


def test_cli_exit_codes(capsys, tmp_path):
    for text in ("exp(z1^2)", "exp(1000)", "z1^99999999"):
        assert main(["parse", "-s", text, "--n", "1"]) == 2
        err = capsys.readouterr().err
        assert "position" in err and "Traceback" not in err
    for text in ("1e308*10", "1.5e308 + 1.5e308i"):  # overflow in arithmetic, in a modulus
        assert main(["parse", "-s", text, "--n", "1"]) == 2
        err = capsys.readouterr().err
        assert "coefficient" in err and "Traceback" not in err
    for argv, message in (  # a finite input whose result leaves the float range
        (["berezin", "-s", "exp(30*z1 + 30*conj(z1))"], "exponential factor"),
        (["toeplitz-apply", "-s", "exp(30*conj(z1))", "-s", "exp(30*z1)"], "exponential factor"),
        (["parse", "-s", "exp(1e308*z1)^2"], "exponential parameter"),
    ):
        assert main(argv + ["--n", "1"]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    missing = tmp_path / "missing" / "x.txt"
    assert main(["parse", "-s", "z1", "--n", "1", "--out", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fockcalc: ") and "Traceback" not in err

    assert main(["verify", "--suite", "lemma-l1"]) == 0
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_value_beyond_the_float_range_exits_two(capsys):
    for argv, message in (
        (["moment", "-s", "exp(4000*z1)*exp(4000*conj(z1))"], "exponential factor overflows"),
        (["berezin", "-s", "exp(4000*z1)", "--at", "1"], "overflows the float range"),
        (["parse", "-s", "z1^20", "--at", "1e300"], "overflows the float range"),
        (["moment", "-s", "1e300*z1^20*conj(z1)^20"], "integral overflows the float range"),
        (["oracle", "-s", "1e300*z1^20*conj(z1)^20"], "integral overflows the float range"),
        (
            ["toeplitz-apply", "-s", "exp(4000*conj(z1))", "-s", "z1^20*z1^20*z1^20*z1^20*z1^20"],
            "coefficient overflows the float range",
        ),
        (
            ["sharp", "-s", "z1^20*z1^20*z1^20*z1^20*z1^20", "-s", "exp(4000*z1)"],
            "coefficient overflows the float range",
        ),
        (
            ["berezin", "-s", "z1^20*z1^20*z1^20*z1^20*z1^20*exp(4000*conj(z1))"],
            "coefficient overflows the float range",
        ),
        (["sharp", "-s", "exp(20*z1)", "-s", "exp(40*z1)"], "exponential factor underflows"),
        (
            ["toeplitz-apply", "-s", "exp(-30*conj(z1))", "-s", "exp(30*z1)"],
            "exponential factor underflows",
        ),
    ):
        assert main(argv + ["--n", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("fockcalc: ") and message in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err and "nan" not in captured.out


@pytest.mark.parametrize(
    "at, message",
    [
        (" ,2", "empty input (at position 0)"),
        ("1, ", "empty input (at position 2)"),
        ("1, 2x", "unexpected trailing input 'x' (at position 4)"),
        ("1,z1", "expected a constant (at position 2)"),
        ("2x,1", "unexpected trailing input 'x' (at position 1)"),
    ],
)
def test_cli_at_error_positions_count_from_the_start_of_the_text(at, message, capsys):
    assert main(["berezin", "-s", "z1", "--n", "2", "--at", at]) == 2
    assert capsys.readouterr().err == f"fockcalc: {message}\n"


def test_cli_out_holds_every_result_it_prints(capsys, tmp_path):
    out = tmp_path / "out.txt"
    argv = ["parse", "-s", "z1", "-s", "z1+1", "-s", "2*z1", "--n", "1", "--out", str(out)]
    for extra, lines in (([], 3), (["--at", "2"], 6), (["--json"], 3)):
        assert main(argv + extra) == 0
        shown = capsys.readouterr().out
        assert out.read_text() == shown and len(shown.splitlines()) == lines
    assert [json.loads(line)["symbol"] for line in shown.splitlines()] == ["z1", "1 + z1", "2*z1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["toeplitz-apply", "-s", "z1"],
            "toeplitz-apply needs chain symbols plus the argument (>= 2 --symbol)",
        ),
        (["sharp", "-s", "z1"], "sharp needs exactly 2 --symbol argument(s), found 1"),
        (["berezin", "-s", "z1", "--at", "1,2"], "expected 1 component in --at, found 2"),
        (["parse", "-s", "z1", "--n", "2", "--at", "1"], "expected 2 components in --at, found 1"),
        (["parse", "-s", "z1", "--n", "2", "--at", "1,,2"], "expected 2 components in --at, found 3"),
        (["parse", "-s", "z1", "--n", "2", "--at", "1,2,"], "expected 2 components in --at, found 3"),
    ],
)
def test_cli_count_errors_point_into_no_text(argv, message, capsys):
    assert main(argv + ([] if "--n" in argv else ["--n", "1"])) == 2
    err = capsys.readouterr().err
    assert err == f"fockcalc: {message}\n"


def test_cli_deep_nesting_exits_two_with_one_line(capsys):
    assert main(["parse", "-s", "(" * 2000 + "1" + ")" * 2000, "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "brackets nested deeper than" in err


SYMBOL_FLAGS = {"--n", "-s", "--symbol", "--json", "--out"}
CLI_FLAGS = {
    "parse": SYMBOL_FLAGS | {"--at"},
    "berezin": SYMBOL_FLAGS | {"--at"},
    "sharp": SYMBOL_FLAGS | {"--at"},
    "toeplitz-apply": SYMBOL_FLAGS | {"--at"},
    "moment": SYMBOL_FLAGS,
    "oracle": SYMBOL_FLAGS | {"--order"},
    "verify": {"--n", "--suite", "--degree", "--seed", "--tol", "--json", "--out"},
}


def test_cli_subcommands_take_only_the_flags_they_read():
    (sub,) = [a for a in _build_parser()._actions if a.choices and "verify" in a.choices]
    flags = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert flags == CLI_FLAGS


@pytest.mark.parametrize(
    "argv",
    [
        ["berezin", "-s", "z1", "--suite", "all"],
        ["moment", "-s", "z1", "--at", "1"],
        ["verify", "--suite", "lemma-l1", "-s", "z1"],
        ["parse", "-s", "z1", "--seed", "1"],
        ["oracle", "-s", "z1", "--at", "1"],
        ["--bogus", "parse", "-s", "z1"],
        ["parse", "-s", "z1", "--bogus"],
    ],
)
def test_cli_rejects_a_flag_the_subcommand_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--n", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err
    # a flag before the subcommand belongs to the top level
    top_level = argv[0].startswith("-")
    assert err.startswith("usage: fockcalc [-h]" if top_level else f"usage: fockcalc {argv[0]} ")


def test_cli_readme_examples_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("fockcalc ")]
    assert len(lines) == 7
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
        assert capsys.readouterr().out


def test_cli_verify_exit_one_on_case_failure(capsys, monkeypatch):
    monkeypatch.setitem(
        SUITES, "lemma-l1", lambda cfg: [CaseResult("stub-failure", 1.0, 0.5, False)]
    )
    assert main(["verify", "--suite", "lemma-l1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_cli_fail_line_names_the_worst_normal_form_entry(capsys, monkeypatch):
    # no product of the suite clears this floor, so every nonzero-pair case fails
    monkeypatch.setattr(suites_module, "SEPARATION_FLOOR", 1e6)
    assert main(["verify", "--suite", "zero-product"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("[FAIL]")]
    assert len(failed) == 10
    # the zero operator has no entry where the product has one
    pattern = r" \(worst entry beta=\(\d+(, \d+)?\) e=\(.*\): 0 vs [1-9]\d* terms\)$"
    assert all(re.search(pattern, line) for line in failed)
    assert not any("worst entry" in line for line in lines if not line.startswith("[FAIL]"))
    assert main(["verify", "--suite", "zero-product", "--json"]) == 1
    assert "worst entry" not in capsys.readouterr().out


def test_cli_fail_line_names_the_worst_basis_element(capsys):
    # the sweep's rounding residual, about 4e-13, is above this tolerance
    argv = ["verify", "--suite", "shift-identity", "--tol", "1e-300"]
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("[FAIL]")]
    assert [line.split()[1] for line in failed] == ["shift-operator-on-basis"]
    assert re.search(r" \(worst basis element alpha=\(\d+, \d+\)\)$", failed[0])
    assert not any("worst basis" in line for line in lines if not line.startswith("[FAIL]"))
    assert main([*argv, "--json"]) == 1
    assert "worst basis" not in capsys.readouterr().out


def test_cli_fail_line_names_the_worst_moment_sample(capsys, monkeypatch):
    from fockcalc import oracle

    exact = oracle.quad_integral
    # off by 1e-3 at order 40 and by 1.5e-3 at order 60, so both cases fail
    monkeypatch.setattr(oracle, "quad_integral", lambda s, order: exact(s, order) + 1e-3 * order / 40)
    assert main(["verify", "--suite", "moments-oracle"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("[FAIL]")]
    assert [line.split()[1] for line in failed] == [
        "closed-form-matches-quadrature",
        "quadrature-order-self-consistency",
    ]
    sample = r" \(worst sample a=\(\d+,\) b=\(\d+,\) lam=\(.+\) mu=\(.+\): "
    assert re.search(sample + r"closed \(.+\) vs order 40 \(.+\)\)$", failed[0])
    assert re.search(sample + r"order 40 \(.+\) vs order 60 \(.+\)\)$", failed[1])
    assert main(["verify", "--suite", "moments-oracle", "--json"]) == 1
    assert "worst sample" not in capsys.readouterr().out
    monkeypatch.undo()
    assert main(["verify", "--suite", "moments-oracle"]) == 0
    assert "worst sample" not in capsys.readouterr().out


def test_cli_verify_json_deterministic(capsys, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", "--suite", "moments-oracle", "--json", "--out", str(out1)]) == 0
    capsys.readouterr()
    assert main(["verify", "--suite", "moments-oracle", "--json", "--out", str(out2)]) == 0
    capsys.readouterr()
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a["duration_ms"] = b["duration_ms"] = 0
    assert json.dumps(a) == json.dumps(b)
