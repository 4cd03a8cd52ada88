"""In-memory span tracing of fockcalc's public functions, installed from outside.

`Tracer.install()` replaces every binding of each traced function in every
loaded ``fockcalc`` module (modules import each other's functions by name,
so ``suites.berezin``, ``toeplitz.sharp`` and ``oracle.sharp`` are separate
bindings of one function), wraps ``Symbol.__init__`` / ``Symbol.__mul__``
and the entries of ``suites.SUITES``.  `uninstall()` puts the originals
back, so untraced passes run the pristine code.

A span is ``(id, parent, name, start, end, cpu, thread, info)``: start and
end are wall-clock (``perf_counter``) seconds, cpu is the CPU time of the
span's own thread between them (``thread_time``), and info is None or a
pair: (raw terms in, canonical terms out) for a Symbol construction, (basis
elements, basis elements) for an ``op_equal_on_basis`` call.  Span stacks are
thread-local because ``verify`` runs suites on a thread pool; the first
span on a pool thread takes as parent the innermost span open on the main
thread at that moment.

Self and inclusive times are CPU times, so a span on a pool thread does not
count the time it waits for the GIL while the other suite runs.  Self time
is a span's CPU time minus that of its children on the same thread; a
child on another thread spends none of the parent thread's CPU time.
"""

from __future__ import annotations

import importlib
import itertools
import math
import sys
import threading
from collections import defaultdict
from time import perf_counter, thread_time

#: (module, attribute) of each traced function -> span name
FUNCTIONS = {
    ("fockcalc.berezin", "berezin"): "berezin",
    ("fockcalc.sharp", "sharp"): "sharp",
    ("fockcalc.toeplitz", "toeplitz_apply"): "toeplitz.apply",
    ("fockcalc.toeplitz", "op_equal_on_basis"): "toeplitz.basis",
    ("fockcalc.gaussian", "gaussian_moment"): "gaussian.moment",
    ("fockcalc.oracle", "quad_integral"): "oracle.quad",
    ("fockcalc.oracle", "lemma_l1_check"): "oracle.lemma_l1",
    ("fockcalc.dsl", "parse_symbol"): "dsl.parse",
    ("fockcalc.dsl", "format_symbol"): "dsl.format",
    ("fockcalc.suites", "report_to_json"): "suites.report_json",
    ("fockcalc.cli", "main"): "cli.main",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def _call(self, name: str, fn, args, kwargs, info=None):
        """Run fn(*args, **kwargs) inside a span; info(result) gives its info pair."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main and stack is not main else None
        sid = next(self._ids)
        stack.append(sid)
        start, cpu = perf_counter(), thread_time()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            cpu = thread_time() - cpu
            end = perf_counter()
            stack.pop()
            self.spans.append(
                (sid, parent, name, start, end, cpu, threading.get_ident(),
                 info and info(args, result))
            )

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def _wrap_construct(self, init):
        def counts(args, _):
            sym, _, terms = args
            return len(terms), len(getattr(sym, "terms", ()))

        def construct(sym, n, terms=()):
            # materialize once, so that the raw terms can be counted
            return self._call("symbols.construct", init, (sym, n, tuple(terms)), {}, counts)

        return construct

    @staticmethod
    def _basis_elements(args, _):
        a, degree = args[0], args[2]
        elements = math.comb(a.n + degree, a.n)  # |alpha| <= degree
        return elements, elements

    def _wrap_basis(self, fn):
        def basis(a, b, degree=6, tol=1e-9):
            return self._call("toeplitz.basis", fn, (a, b, degree, tol), {}, self._basis_elements)

        return basis

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = [
            m for k, m in list(sys.modules.items()) if k == "fockcalc" or k.startswith("fockcalc.")
        ]
        for (modname, attr), name in FUNCTIONS.items():
            orig = getattr(importlib.import_module(modname), attr)
            if name == "toeplitz.basis":
                wrapper = self._wrap_basis(orig)
            else:
                wrapper = self.wrap(name, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)

        symbol = importlib.import_module("fockcalc.symbols").Symbol
        for attr, wrapper in (
            ("__init__", self._wrap_construct(symbol.__init__)),
            ("__mul__", self.wrap("symbols.mul", symbol.__mul__)),
        ):
            self._restore.append((symbol, attr, vars(symbol)[attr]))
            setattr(symbol, attr, wrapper)

        suites = importlib.import_module("fockcalc.suites").SUITES
        for key, fn in list(suites.items()):
            self._restore.append((suites, key, fn))
            suites[key] = self.wrap(f"suites.{key}", fn)

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._restore.clear()

    def reset(self) -> None:
        self.spans = []

    def write_csv(self, path) -> None:
        """Write the recorded spans, one per line, wall times in ns from the first span."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        threads = {}
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns,cpu_ns,thread,info\n")
            for sid, parent, name, start, end, cpu, thread, info in self.spans:
                fh.write(
                    f"{sid},{'' if parent is None else parent},{name},"
                    f"{round((start - t0) * 1e9)},{round((end - t0) * 1e9)},{round(cpu * 1e9)},"
                    f"{threads.setdefault(thread, len(threads))},"
                    f"{'' if info is None else '/'.join(map(str, info))}\n"
                )


def aggregate(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, wall_s (summed wall durations), incl_s and self_s
    (CPU times), and the sums (and largest second value) of the info pairs."""
    thread_of = {s[0]: s[6] for s in spans}
    child_cpu: dict[int, float] = defaultdict(float)
    for _, parent, _, _, _, cpu, thread, _ in spans:
        if parent is not None and thread_of[parent] == thread:
            child_cpu[parent] += cpu
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "wall_s": 0.0, "incl_s": 0.0, "self_s": 0.0,
                 "in": 0, "out": 0, "max_out": 0}
    )
    for sid, _, name, start, end, cpu, _, info in spans:
        row = out[name]
        row["calls"] += 1
        row["wall_s"] += end - start
        row["incl_s"] += cpu
        row["self_s"] += cpu - child_cpu.get(sid, 0.0)
        if info is not None:
            row["in"] += info[0]
            row["out"] += info[1]
            row["max_out"] = max(row["max_out"], info[1])
    return dict(out)
