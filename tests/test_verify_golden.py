"""Exact verify reports at the default seed, case by case.

tests/data/verify_golden.json records, for run_suite("all") at each
(n, degree) of CONFIGS, every case's name, pass flag and residual to 17
significant digits: the deterministic fields of `fockcalc verify --json`.
A change that moves a residual in its last bit, renames a case or flips a
pass flag fails here.  Rewrite the file only for a change whose new
residuals are intended, and list every moved residual with it:

    PYTHONPATH=src python tests/test_verify_golden.py
"""

import json
from pathlib import Path

import pytest

from fockcalc.suites import run_suite

GOLDEN = Path(__file__).parent / "data" / "verify_golden.json"
#: (n, degree) of each recorded report
CONFIGS = ((1, 6), (2, 6), (3, 6), (3, 10))


def compute_report(n: int, degree: int) -> dict:
    cases = run_suite("all", n=n, degree=degree).cases
    return {
        "n": n,
        "degree": degree,
        "cases": [
            {"name": c.name, "residual": format(c.residual, ".17g"), "pass": c.passed}
            for c in cases
        ],
    }


@pytest.mark.parametrize("n, degree", CONFIGS)
def test_verify_matches_recorded_report(n, degree):
    expected = next(
        r for r in json.loads(GOLDEN.read_text()) if (r["n"], r["degree"]) == (n, degree)
    )
    got = compute_report(n, degree)
    assert [c["name"] for c in got["cases"]] == [c["name"] for c in expected["cases"]]
    for g, e in zip(got["cases"], expected["cases"]):
        assert g == e, f"(n={n}, degree={degree}) {e['name']}: got {g}"


def changed_cases(old: list[dict], new: list[dict]) -> list[str]:
    """'(n, degree) name: old -> new' for each case of new that old lacks or records differently."""
    recorded = {(r["n"], r["degree"], c["name"]): c for r in old for c in r["cases"]}
    return [
        f"({r['n']}, {r['degree']}) {c['name']}: {recorded.get(key)} -> {c}"
        for r in new
        for c in r["cases"]
        for key in [(r["n"], r["degree"], c["name"])]
        if recorded.get(key) != c
    ]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []
    new = [compute_report(n, degree) for n, degree in CONFIGS]
    changed = changed_cases(old, new)
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n")
    cases = sum(len(r["cases"]) for r in new)
    print(f"{len(changed)} of {cases} cases changed" + "".join(f"\n  {c}" for c in changed))
