"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import fockcalc  # noqa: E402
import fockcalc.suites  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _counters(values: dict) -> dict:
    return {k: v for k, v in values.items() if not k.endswith(("_s", "ratio"))}


def _traced_pass(wl):
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, _, output = wl.run_pass()
    finally:
        tracer.uninstall()
    return tracer.spans, output


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for m in spec["per_layer"]:
        unit = "s" if m["name"].endswith("_s") else "ratio" if "ratio" in m["name"] else "count"
        assert m["unit"] == unit, m
    for name in worker.layer_metric_names():
        assert name.rsplit(".", 1)[1] in worker.QUANTITIES, name


def test_verify_counters_repeat_and_self_times_fit_in_cpu_time():
    wl = workloads.make_workload("verify-n2", 1)
    names = worker.layer_metric_names()
    runs = []
    for _ in range(2):
        cpu = time.process_time()
        recorded, output = _traced_pass(wl)
        cpu = time.process_time() - cpu
        assert wl.check(output)[1:] == (0, [])
        agg = spans.aggregate(recorded)
        # self times are CPU times that partition the traced CPU time once,
        # so with two suites sharing the GIL they still add up to one pass
        total_self = sum(row["self_s"] for row in agg.values())
        assert 0.5 * cpu < total_self <= 1.01 * cpu
        runs.append(worker.layer_values(agg, names))
    assert _counters(runs[0]) == _counters(runs[1])
    assert runs[0]["symbols.construct.calls"] > 0 and runs[0]["toeplitz.basis.elements"] > 0
    assert runs[0]["dsl.parse.calls"] == 0
    suite_metrics = [f"suites.{s}.wall_s" for s in fockcalc.suites.SUITES]
    assert set(suite_metrics) <= set(names)
    assert all(runs[0][m] > 0 for m in suite_metrics)

    (main_id,) = [s[0] for s in recorded if s[2] == "cli.main"]
    suite_parents = {s[1] for s in recorded if s[2].startswith("suites.") and s[2] != "suites.report_json"}
    assert suite_parents == {main_id}


def test_stream_counters_repeat():
    wl = workloads.StreamWorkload(seed=5, reps=8)
    names = worker.layer_metric_names()
    runs = []
    for _ in range(2):
        recorded, outputs = _traced_pass(wl)
        assert wl.check(outputs)[1] == 0
        runs.append(_counters(worker.layer_values(spans.aggregate(recorded), names)))
    assert runs[0] == runs[1]
    assert runs[0]["dsl.parse.calls"] == 240 and runs[0]["dsl.format.calls"] == 120
    assert runs[0]["toeplitz.basis.calls"] == 0


def test_tracer_restores_every_binding():
    before = {
        "pkg": fockcalc.berezin,
        "suites.sharp": fockcalc.suites.sharp,
        "init": vars(fockcalc.Symbol)["__init__"],
        "SUITES": dict(fockcalc.suites.SUITES),
    }
    tracer = spans.Tracer()
    tracer.install()
    assert fockcalc.berezin is not before["pkg"]
    assert sys.modules["fockcalc.toeplitz"].sharp is not before["suites.sharp"]
    tracer.uninstall()
    assert fockcalc.berezin is before["pkg"]
    assert fockcalc.suites.sharp is before["suites.sharp"]
    assert vars(fockcalc.Symbol)["__init__"] is before["init"]
    assert fockcalc.suites.SUITES == before["SUITES"]


def test_seed_changes_stream_inputs_but_not_verify_case_names():
    assert workloads.make_stream(1, 0, 2) == workloads.make_stream(1, 0, 2)
    assert workloads.make_stream(1, 0, 2) != workloads.make_stream(2, 0, 2)
    assert workloads.make_stream(1, 0, 2) != workloads.make_stream(1, 1, 2)
    kinds = sorted((r.op, r.n) for r in workloads.make_stream(1, 0, 2))
    assert kinds == sorted(2 * [(op, n) for op in workloads.STREAM_OPS for n in (1, 2, 3)])
    checked = [(r.op, r.n) for c in range(6) for r in workloads.make_stream(1, c, 1) if r.checked]
    assert len(checked) == 12 and set(checked) == set(workloads.CHECKABLE)
    assert workloads.make_workload("verify-n2", 1).argv == workloads.make_workload("verify-n2", 2).argv
    expected = workloads.expected_case_names(2, 6)
    for suite_seed in (1, 12345):
        report = fockcalc.suites.run_suite("all", n=2, degree=6, seed=suite_seed, workers=1)
        assert [c.name for c in report.cases] == expected


def test_slowdown_over_a_span_uses_the_samples_inside_or_the_nearest():
    samples = hostspeed.Samples()
    samples.times = [float(i) for i in range(20)]
    samples.values = [1.0] * 10 + [2.0] * 10
    assert samples.around(0.0, 19.0) == 1.5  # all 20 lie inside
    assert samples.around(15.2, 15.3) == 2.0  # none inside: the 9 nearest
    assert samples.around(-5.0, -4.0) == 1.0  # before the first: the first 9
    with hostspeed.Sampler(samples):
        time.sleep(3 * hostspeed.EVERY_S)
    assert len(samples.times) > 20 and samples.values[-1] > 0


def test_self_time_subtracts_children_on_the_same_thread():
    # (id, parent, name, start, end, cpu, thread, info)
    recorded = [
        (0, None, "cli.main", 0.0, 10.0, 1.5, "main", None),
        (1, 0, "suites.a", 1.0, 5.0, 3.0, "pool1", None),
        (2, 0, "suites.b", 3.0, 7.0, 2.5, "pool2", None),
        (3, 1, "symbols.construct", 2.0, 3.0, 0.5, "pool1", (4, 3)),
        (4, 0, "suites.report_json", 8.0, 9.0, 1.0, "main", None),
    ]
    agg = spans.aggregate(recorded)
    assert agg["cli.main"]["self_s"] == 0.5  # pool threads spend none of its CPU time
    assert agg["cli.main"]["wall_s"] == 10.0
    assert agg["suites.a"]["self_s"] == 2.5 and agg["suites.a"]["incl_s"] == 3.0
    assert agg["suites.a"]["wall_s"] == 4.0
    assert (agg["symbols.construct"]["in"], agg["symbols.construct"]["out"]) == (4, 3)


def test_checks_reject_wrong_outputs():
    reqs = workloads.make_stream(3, 0, 2)
    sharp = next(r for r in reqs if r.op == "sharp")
    inner = next(r for r in reqs if r.op == "inner" and r.n <= 2)
    for req in (sharp, inner):
        good = workloads.call(fockcalc, req)
        assert workloads.check_request(fockcalc, req, good) is None
        assert workloads.check_request(fockcalc, req, good + " + 0.001") is not None

    wl = workloads.make_workload("verify-n2", 1)
    cases = [{"name": n, "pass": True} for n in wl.expected]
    assert wl.check((0, json.dumps({"cases": cases}))) == (98, 0, [])
    cases[3]["pass"] = False
    assert wl.check((1, json.dumps({"cases": cases})))[1] == 1
    assert wl.check((0, json.dumps({"cases": cases[1:]})))[1] == 98
    assert wl.check((0, "nan"))[1] == 98


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calc-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
