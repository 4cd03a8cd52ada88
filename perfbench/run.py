"""The fockcalc benchmark: one command per workload run.

    python3 perfbench/run.py --workload verify-n2|verify-n3-d10|calc-stream \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``fockcalc`` is imported from its
``src/`` directory, and the run fails (exit 2, no result) when that is
missing.  With ``--trace 0`` it prints the end-to-end metrics: ``setup_s``
is the median over fresh interpreters (one untimed warm-up that fills the
bytecode cache, then SETUP_REPEATS probes split before and after the
workload process, plus that process itself); everything else comes from
the one workload process (see worker.py).  Every end-to-end time is given
at the nominal host speed (see hostspeed.py).
With ``--trace 1`` it prints the per-layer metrics of a traced run and
writes that run's spans to ``perfbench-out/spans-<workload>.csv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Workload choice,
the layer-to-metric map and the recorded baseline are in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_REPEATS = 8
#: the whole run may take 1.5 * --seconds plus this: the passes, the overrun
#: of the last one (or of the minimum pass count), and the set-up probes
TIME_MARGIN_S = 60.0

SPEC = ROOT / "BENCHMARK.json"  # metric names and units


def worker(args: argparse.Namespace, *extra: str, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and return its last-line JSON."""
    env = dict(os.environ)
    env.pop("FOCKCALC_THREADS", None)  # verify runs at its default thread count
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fockcalc benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "fockcalc" / "__init__.py").is_file():
        print(f"perfbench: no fockcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = perf_counter()
    time_limit = 1.5 * args.seconds + TIME_MARGIN_S

    def left() -> float:
        return time_limit - (perf_counter() - start)

    try:
        setups = []

        def probe_setup(count: int) -> None:
            for _ in range(count):
                setups.append(worker(args, "--setup-only", timeout=left())["setup_s"])

        if not args.trace:
            worker(args, "--setup-only", timeout=left())  # warms the bytecode cache
            probe_setup(SETUP_REPEATS // 2)
        result = worker(args, timeout=left())
        if not args.trace:  # probes on both sides of the run see more of the host
            probe_setup(SETUP_REPEATS - SETUP_REPEATS // 2)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    values = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups + [result["setup_s"]])
        values["ok_rate"] = (attempted - failed) / attempted
    spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
