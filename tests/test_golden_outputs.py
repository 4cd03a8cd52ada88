"""Exact output texts of berezin, sharp and toeplitz_apply on seeded inputs.

The expected texts live in tests/data/golden_outputs.json.  They pin the
canonical term order and every coefficient to the 14 significant digits
that format_symbol prints, so a change to canonicalization that reorders,
splits or merges terms fails here.  Rewrite the file only for a
change whose new outputs are intended, with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import json
import random
from pathlib import Path

from fockcalc import berezin, format_symbol, sharp, toeplitz_apply
from fockcalc.suites import random_holo

GOLDEN = Path(__file__).parent / "data" / "golden_outputs.json"
SEED = 20231
#: (n, degree, number of input pairs)
DRAWS = ((1, 6, 8), (2, 6, 8), (3, 6, 3))


def compute_cases() -> list[dict]:
    rng = random.Random(SEED)
    cases = []
    for n, degree, count in DRAWS:
        for _ in range(count):
            f = random_holo(rng, n, degree)
            g = random_holo(rng, n, degree)
            cases.append(
                {
                    "n": n,
                    "f": format_symbol(f),
                    "g": format_symbol(g),
                    "berezin": format_symbol(berezin(f * g.conj())),
                    "sharp": format_symbol(sharp(f, g)),
                    "toeplitz": format_symbol(toeplitz_apply(f + g.conj(), f)),
                }
            )
    return cases


def test_outputs_match_recorded_texts():
    expected = json.loads(GOLDEN.read_text())
    got = compute_cases()
    assert len(got) == len(expected)
    for i, (g, e) in enumerate(zip(got, expected)):
        for field in e:
            assert g[field] == e[field], f"case {i} (n={e['n']}): {field} differs"


def changed_texts(old: list[dict], new: list[dict]) -> list[str]:
    """'case i: field' for each text of new that old lacks or records differently."""
    return [
        f"case {i}: {field}"
        for i, case in enumerate(new)
        for field, text in case.items()
        if isinstance(text, str) and (i >= len(old) or old[i].get(field) != text)
    ]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []
    new = compute_cases()
    changed = changed_texts(old, new)
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n")
    texts = sum(isinstance(text, str) for case in new for text in case.values())
    print(f"{len(changed)} of {texts} texts changed" + "".join(f"\n  {c}" for c in changed))
