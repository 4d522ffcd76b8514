"""Spans recorded around braggbell's public functions, and the per-layer
metrics derived from them.

`Tracer.install` replaces each public function named in LAYERS, wherever a
braggbell module holds a reference to it, by a wrapper that records one span:
(id, parent id, name, start, end, op id, thread id, extra). Spans stay in
memory until the run writes them out. A call made on a sweep worker thread,
which has no open span of its own, takes as parent the span open on the main
thread (the `cli.main` that started the pool).

A layer's self time is its span's duration minus the part of that interval
covered by its child spans.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "params": ("derive", "validate_bragg_regime", "with_regime_ratio", "resolve_params", "get_preset"),
    "adiabatic": ("coeffs", "coupling", "level_shift", "solve", "pulse_times"),
    "ladder": ("build_hamiltonian", "initial_state", "default_range", "evolve",
               "sample_evolution", "extract_flip_frequency"),
    "entangle": ("run_scenario", "compose", "measure_field", "measure_atom", "concurrence", "fidelity"),
    "cli": ("main", "validate_point"),
}

FIELDS = ("id", "parent", "name", "start", "end", "op", "thread", "extra")


def _sample_extra(s, h, times, *args, **kwargs):
    """(number of samples, identity of the Hamiltonian's content)."""
    key = (h.n, h.l0, h.l_min, h.l_max, h.include_stark, float(h.off_diagonal), h.diagonal.tobytes())
    return [len(times), hash(key)]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn, extra=None):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            sid = next(self._ids)
            stack.append(sid)
            info = extra(*args, **kwargs) if extra else None
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1, self.op, threading.get_ident(), info))

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        import braggbell
        from braggbell import adiabatic, cli, entangle, ladder, params

        modules = (braggbell, params, adiabatic, ladder, entangle, cli)
        wrappers = {}
        for layer, names in LAYERS.items():
            mod = vars(braggbell)[layer]
            for fname in names:
                fn = getattr(mod, fname)
                extra = _sample_extra if fname == "sample_evolution" else None
                wrappers[fn] = self.wrap(f"{layer}.{fname}", fn, extra)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
        report = entangle.EntanglementReport
        report.to_json = self.wrap("entangle.to_json", report.to_json)

    def merge(self, spans: list) -> None:
        """Add spans recorded in a child process, renumbered to stay unique."""
        if not spans:
            return
        base = next(self._ids)
        top = 0
        for sid, parent, *rest in spans:
            self.spans.append((base + sid, None if parent is None else base + parent, *rest))
            top = max(top, sid)
        self._ids = itertools.count(base + top + 1)


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple]) -> dict[str, tuple[int, float]]:
    """name -> (calls, total self seconds)."""
    children = defaultdict(list)
    for sp in spans:
        if sp[1] is not None:
            children[sp[1]].append((sp[3], sp[4]))
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for sid, _, name, t0, t1, *_ in spans:
        acc = out[name]
        acc[0] += 1
        acc[1] += (t1 - t0) - _covered(t0, t1, children.get(sid, []))
    return {k: (v[0], v[1]) for k, v in out.items()}


SELF_MS = ("ladder.sample_evolution", "ladder.extract_flip_frequency", "entangle.compose",
           "entangle.measure_field", "entangle.measure_atom", "entangle.concurrence",
           "entangle.fidelity", "entangle.run_scenario", "entangle.to_json",
           "cli.validate_point", "cli.main")


def layer_metrics(spans: list[tuple], ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of `ops` traced ops, as name -> (value, unit)."""
    st = self_times(spans)
    m: dict[str, tuple[float, str]] = {}
    calls, _ = st.get("ladder.sample_evolution", (0, 0.0))
    m["ladder.sample_evolution.calls"] = (calls / ops, "calls/op")
    for name in SELF_MS:
        m[f"{name}.self_ms"] = (1e3 * st.get(name, (0, 0.0))[1] / ops, "ms/op")
    samples = 0
    per_op = defaultdict(lambda: [0, set()])
    for sp in spans:
        if sp[2] == "ladder.sample_evolution":
            samples += sp[7][0]
            per_op[sp[5]][0] += 1
            per_op[sp[5]][1].add(sp[7][1])
    m["ladder.samples_per_op"] = (samples / ops, "samples/op")
    distinct = sum(len(v[1]) for v in per_op.values())
    m["ladder.decompositions_per_hamiltonian"] = (calls / distinct if distinct else 0.0, "ratio")
    m["adiabatic.solve.calls"] = (st.get("adiabatic.solve", (0, 0.0))[0] / ops, "calls/op")
    for layer in ("adiabatic", "params"):
        total = sum(v[1] for k, v in st.items() if k.startswith(layer + "."))
        m[f"{layer}.self_ms"] = (1e3 * total / ops, "ms/op")
    return m


def import_times(stderr: str) -> dict[str, float]:
    """Self import time in ms of every module of numpy, scipy and braggbell,
    summed per package, from `python -X importtime` output."""
    totals = {"numpy": 0.0, "scipy": 0.0, "braggbell": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, module = (part.strip() for part in line[len("import time:"):].split("|"))
        top = module.split(".")[0]
        if top in totals and self_us.isdigit():
            totals[top] += int(self_us) / 1e3
    return totals
