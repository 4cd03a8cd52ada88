"""Body of one benchmark run, executed in a fresh interpreter by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Imports ``fockcalc`` from the checkout's ``src/`` and builds the workload's
inputs (timed as ``setup_s``), then runs timed passes until ``--seconds``
would be exceeded.  Each pass's outputs are checked outside the timed
region.  With ``--trace 0`` every time is reported at the nominal host
speed: divided by the host's slowdown when it was taken (hostspeed.py).
The per-layer times of ``--trace 1`` are raw.  With ``--trace 1`` untraced and traced passes alternate; the
traced ones give the per-layer metrics and the ratio of the two medians
gives ``trace.overhead_ratio``.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPAN_DIR = ROOT / "perfbench-out"

MIN_PASSES = 2  # untraced passes per run, whatever --seconds says
SETUP_SAMPLES = 30  # host-speed samples after set-up

#: how each per-layer quantity, the last part of a metric name in
#: BENCHMARK.json, is read off a row of spans.aggregate()
QUANTITIES = {
    "calls": lambda row: row["calls"],
    "self_s": lambda row: row["self_s"],
    "incl_s": lambda row: row["incl_s"],
    "wall_s": lambda row: row["wall_s"],
    "terms_in": lambda row: row["in"],
    "terms_out": lambda row: row["out"],
    "max_terms": lambda row: row["max_out"],
    "merge_ratio": lambda row: row["out"] / row["in"] if row["in"] else 0.0,
    "elements": lambda row: row["in"],
}
OVERHEAD = "trace.overhead_ratio"  # the one per-layer metric not read off spans


def layer_metric_names() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return [m["name"] for m in spec if m["name"] != OVERHEAD]


def layer_values(agg: dict, names: list[str]) -> dict[str, float]:
    """Each metric `<span name>.<quantity>` of a traced pass; 0 for a span never seen."""
    out = {}
    for metric in names:
        span, quantity = metric.rsplit(".", 1)
        row = agg.get(span)
        out[metric] = QUANTITIES[quantity](row) if row else 0
    return out


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by nearest rank (the maximum when fewer than 1/(1-q) values)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup(name: str, seed: int):
    """The workload and its set-up seconds at the nominal host speed."""
    start = perf_counter()
    wl = workloads.make_workload(name, seed)
    setup_s = perf_counter() - start
    fockcalc_file = Path(sys.modules["fockcalc"].__file__).resolve()
    if SRC not in fockcalc_file.parents:
        raise SystemExit(f"imported fockcalc from {fockcalc_file}, not from {SRC}")
    slowdown = hostspeed.slowdown_median(SETUP_SAMPLES)
    print(f"set-up {setup_s:.4f} s at host slowdown {slowdown:.3f}", file=sys.stderr)
    return wl, setup_s / slowdown


class Tally:
    """Outputs attempted and failed, plus the first few problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, wl, output) -> None:
        attempted, failed, problems = wl.check(output)
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems[: max(0, 10 - len(self.problems))])


def run_plain(wl, seconds: float) -> dict:
    """Timed passes until --seconds; a calc-stream pass takes the next chunk.

    Each call's seconds are divided by the host's median slowdown over its
    pass (hostspeed.py).  Verify is one call per pass and runs on its own
    pool threads, so a sampler thread takes the samples; calc-stream takes
    them between calls, outside the timed calls.
    """
    tally = Tally()
    samples = hostspeed.Samples()
    inline = not isinstance(wl, workloads.VerifyWorkload)
    walls, raw_walls, latencies, raw_latencies = [], [], [], []
    with contextlib.nullcontext() if inline else hostspeed.Sampler(samples):
        start = perf_counter()
        while True:
            raw, calls, output = wl.run_pass(samples.maybe if inline else None)
            tally.add(wl, output)
            if inline:
                samples.take()  # a sample after the last call
            slowdown = samples.around(calls[0][0], calls[-1][0] + calls[-1][1])
            lat = [sec / slowdown for _, sec in calls]
            latencies.extend(lat)
            raw_latencies.extend(sec for _, sec in calls)
            walls.append(sum(lat))
            raw_walls.append(raw)
            if len(walls) >= MIN_PASSES and perf_counter() - start + raw > seconds:
                break
            wl.advance()
    ops = len(latencies)
    print(
        f"passes (s): {' '.join(f'{w:.3f}' for w in raw_walls)}; at nominal speed: "
        f"{' '.join(f'{w:.3f}' for w in walls)}; {ops} calls, "
        f"{ops - math.ceil(0.99 * ops)} beyond the p99; "
        f"median host slowdown {statistics.median(samples.values):.3f}",
        file=sys.stderr,
    )
    print(
        f"raw: wall_s {statistics.median(raw_walls):.4f} "
        f"op_p50_ms {statistics.median(raw_latencies) * 1e3:.4f} "
        f"op_p99_ms {nearest_rank(raw_latencies, 0.99) * 1e3:.4f}",
        file=sys.stderr,
    )
    return {
        "tally": tally,
        "metrics": {
            "wall_s": statistics.median(walls),
            "ops_per_s": ops / sum(walls),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p99_ms": nearest_rank(latencies, 0.99) * 1e3,
        },
    }


def run_traced(wl, seconds: float, workload: str) -> dict:
    tally = Tally()
    tracer = spans.Tracer()
    names = layer_metric_names()
    plain, traced, layers = [], [], []
    start = perf_counter()
    while True:
        wall, _, output = wl.run_pass()
        tally.add(wl, output)
        plain.append(wall)

        tracer.reset()
        tracer.install()
        try:
            wall, _, output = wl.run_pass()
        finally:
            tracer.uninstall()
        tally.add(wl, output)
        traced.append(wall)
        layers.append(layer_values(spans.aggregate(tracer.spans), names))
        if perf_counter() - start + plain[-1] + traced[-1] > seconds:
            break
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write_csv(SPAN_DIR / f"spans-{workload}.csv")
    metrics = {key: statistics.median_low(row[key] for row in layers) for key in names}
    metrics[OVERHEAD] = statistics.median(traced) / statistics.median(plain)
    return {"tally": tally, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        result = run_traced(wl, args.seconds, args.workload)
    else:
        result = run_plain(wl, args.seconds)
        result["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    tally = result["tally"]
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "correct": tally.failed == 0 and not tally.problems,
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
