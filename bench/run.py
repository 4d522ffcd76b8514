"""braggbell benchmark: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload scenario_grid --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; braggbell is imported from `src/`. A run
times set-up in fresh interpreters, then runs whole rounds of the workload's
ops until `--seconds` have passed (and the tail percentile has ten samples
beyond it), then checks every op's output against the independent reference.
Only calls into braggbell are timed; checks count towards no metric.

With `--trace 0` the last line of stdout is the end-to-end result; with
`--trace 1` the run first measures untraced for half the time, then the same
number of rounds with spans recorded, and reports the per-layer metrics. The
spans are written to bench/out/spans-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

import spans
import workloads
from workloads import ROOT, SRC

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 120.0


class SetupProbes:
    """Set-up (import braggbell, build the inputs) timed in fresh interpreters.

    One warm-up fills the byte-code and file caches; the SETUP_PROBES timed
    probes then run between rounds, spread over the measuring time, so their
    median sees the machine as the ops do. With importtime, each probe also
    reports per-package import times.
    """

    def __init__(self, name: str, seed: int, workdir: Path, seconds: float, importtime: bool):
        self.cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
                    str(BENCH / "setup_probe.py"), name, str(seed), str(workdir)]
        self.spacing = seconds / SETUP_PROBES
        self.times: list[float] = []
        self.imports: list[dict] = []
        self._probe()

    def _probe(self) -> tuple[float, dict]:
        res = subprocess.run(self.cmd, capture_output=True, text=True, env=workloads.child_env(),
                             cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe exited {res.returncode}:\n{res.stderr[-2000:]}")
        return float(res.stdout.split()[-1]), spans.import_times(res.stderr)

    def between_rounds(self, elapsed: float) -> None:
        if len(self.times) < SETUP_PROBES and elapsed >= len(self.times) * self.spacing:
            self.finish(len(self.times) + 1)

    def finish(self, count: int = SETUP_PROBES) -> None:
        while len(self.times) < count:
            seconds, imports = self._probe()
            self.times.append(seconds)
            self.imports.append(imports)


class Recorder:
    """Each op's first output, and the ops whose later outputs differed."""

    def __init__(self):
        self.first: dict[str, object] = {}
        self.changed: set[str] = set()
        self.errors: dict[str, str] = {}

    def add(self, key: str, output) -> None:
        if key not in self.first:
            self.first[key] = output
        elif self.first[key] != output:
            self.changed.add(key)


class InProcessRunner:
    def __init__(self, wl):
        self.rec = Recorder()
        self.tracer = None

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ScenarioRunner(InProcessRunner):
    """entangle.run_scenario plus EntanglementReport.to_json."""

    def __init__(self, wl):
        from braggbell import entangle

        super().__init__(wl)
        self.entangle = entangle

    def call(self, op, attempt):
        p, kw = op.args
        return self.entangle.run_scenario(p, **kw).to_json()

    def record(self, op, result):
        self.rec.add(op.key, result)

    def check(self, checker, op, output):
        return checker.scenario(json.loads(output), op.spec)


class SweepRunner(InProcessRunner):
    """cli.main(["sweep", ...]), JSON written to a file."""

    def __init__(self, wl):
        from braggbell import cli

        super().__init__(wl)
        self.cli = cli

    def call(self, op, attempt):
        return self.cli.main(op.args)

    def record(self, op, result):
        text = op.out_path.read_text() if op.out_path.exists() else None
        op.out_path.unlink(missing_ok=True)
        self.rec.add(op.key, (result, text))

    def check(self, checker, op, output):
        code, text = output
        if code != 0 or text is None:
            return {"exit_code"}
        return checker.sweep(json.loads(text), op.spec)


class CliRunner:
    """Fresh `python -m braggbell.cli` processes, one at a time.

    os.wait4 reaps each child itself, which gives that child's own peak RSS
    rather than the running maximum over every child waited for.
    """

    def __init__(self, wl):
        self.wl = wl
        self.rec = Recorder()
        self.tracer = None
        self.rss_mb = 0.0

    def _stdout(self, op) -> Path:
        return self.wl.workdir / f"{op.key}.out"

    def call(self, op, attempt):
        env = self.wl.env
        argv = [sys.executable, "-m", "braggbell.cli", *op.args]
        if self.tracer is not None:
            env = dict(env, BRAGGBENCH_OP=str(attempt),
                       BRAGGBENCH_SPANS=str(self.wl.workdir / "child-spans.json"))
            argv = [sys.executable, str(BENCH / "trace_child.py"), *op.args]
        with open(self._stdout(op), "wb") as out, open(self._stdout(op).with_suffix(".err"), "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def record(self, op, result):
        code, rss = result
        self.rss_mb = max(self.rss_mb, rss)
        files = {}
        if op.out_path is not None:
            for name, path in (("out", op.out_path), ("meta", Path(str(op.out_path) + ".meta.json"))):
                files[name] = path.read_bytes() if path.exists() else b""
                path.unlink(missing_ok=True)
        self.rec.add(op.key, (code, self._stdout(op).read_bytes(), files))
        child_spans = self.wl.workdir / "child-spans.json"
        if self.tracer is not None and child_spans.exists():
            self.tracer.merge(json.loads(child_spans.read_text()))
            child_spans.unlink()

    def check(self, checker, op, output):
        code, stdout, files = output
        return checker.cli(op.key, code, stdout, files)

    def peak_rss_mb(self):
        return self.rss_mb


RUNNERS = {"scenario_grid": ScenarioRunner, "validate_sweep": SweepRunner, "cli_cold": CliRunner}


def run_rounds(wl, runner, seconds: float | None = None, rounds: int | None = None,
               min_samples: int = 0, keys: list | None = None, between=None):
    """Whole rounds of the workload, until `seconds` of rounds have passed and
    there are `min_samples` latencies, or for `rounds` rounds; the per-op
    latencies in seconds and the round count. `between(elapsed)` runs after
    each round, outside the measured time."""
    lat: list[float] = []
    elapsed = 0.0
    done = 0
    while True:
        start = perf_counter()
        for op in wl.round_order():
            attempt = len(lat)
            if runner.tracer is not None:
                runner.tracer.op = attempt
            if keys is not None:
                keys.append(op.key)
            t0 = perf_counter()
            try:
                result = runner.call(op, attempt)
            except Exception:
                lat.append(perf_counter() - t0)
                runner.rec.errors.setdefault(op.key, traceback.format_exc())
                continue
            lat.append(perf_counter() - t0)
            runner.record(op, result)
        done += 1
        elapsed += perf_counter() - start
        if between is not None:
            between(elapsed)
        if rounds is not None:
            if done >= rounds:
                return lat, done
        elif elapsed >= seconds and len(lat) >= min_samples:
            return lat, done


def check_outputs(wl, runner, checker) -> dict[str, set[str]]:
    """op key -> failure labels."""
    labels = {}
    for op in wl.ops:
        if op.key in runner.rec.errors:
            labels[op.key] = {"exception"}
            continue
        try:
            found = set(runner.check(checker, op, runner.rec.first[op.key]))
        except (ValueError, KeyError, TypeError, IndexError):
            found = {"parse"}
        if op.key in runner.rec.changed:
            found.add("nondeterministic")
        labels[op.key] = found
    return labels


def percentile(values: list[float], pct: float) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[round(10 * pct) - 1]


def summary_lines(wl, labels, classify, notes, rounds, seconds_measured):
    lines = [f"{wl.name}: {rounds} rounds x {len(wl.ops)} ops in {seconds_measured:.1f} s"]
    by_fault: dict = {}
    for key, found in labels.items():
        if found:
            fault = classify(found) or "UNEXPECTED"
            group = "/".join(key.split("/")[:3]) if wl.name == "scenario_grid" else key
            by_fault.setdefault(fault, {}).setdefault(group, 0)
            by_fault[fault][group] += 1
    for fault, groups in sorted(by_fault.items()):
        lines.append(f"{fault}: {sum(groups.values())} ops per round: {json.dumps(groups, sort_keys=True)}")
    for key, found in labels.items():
        if found and classify(found) is None:
            lines.append(f"UNEXPECTED {key}: {sorted(found)}")
    lines.extend(notes)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "braggbell" / "__init__.py").is_file():
        print(f"error: no braggbell sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        measure_s = args.seconds / 2 if args.trace else args.seconds
        setup = SetupProbes(args.workload, args.seed, workdir, measure_s, importtime=bool(args.trace))
        sys.path.insert(0, str(SRC))
        wl = workloads.build(args.workload, args.seed, workdir)
        runner = RUNNERS[args.workload](wl)
        t0 = perf_counter()
        if not args.trace:
            lat, rounds = run_rounds(wl, runner, seconds=measure_s, min_samples=wl.min_samples,
                                     between=setup.between_rounds)
            setup.finish()
            measured = perf_counter() - t0
            metrics = {
                "setup_s": (statistics.median(setup.times), "s"),
                "ops_per_s": (len(lat) / sum(lat), "1/s"),
                "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
                "op_tail_ms": (1e3 * percentile(lat, wl.tail_percentile), "ms"),
                "peak_rss_mb": (runner.peak_rss_mb(), "MB"),
            }
            attempted = len(lat)
        else:
            lat_a, rounds = run_rounds(wl, runner, seconds=measure_s, between=setup.between_rounds)
            setup.finish()
            runner.tracer = spans.Tracer()
            if args.workload != "cli_cold":
                runner.tracer.install()
            keys: list[str] = []
            lat_b, _ = run_rounds(wl, runner, rounds=rounds, keys=keys)
            measured = perf_counter() - t0
            metrics = spans.layer_metrics(runner.tracer.spans, len(lat_b))
            for pkg in ("numpy", "scipy", "braggbell"):
                metrics[f"import.{pkg}_ms"] = (statistics.median(i[pkg] for i in setup.imports), "ms")
            overhead = 1e3 * (sum(lat_b) / len(lat_b) - sum(lat_a) / len(lat_a))
            metrics["trace.overhead_ms_per_op"] = (overhead, "ms/op")
            with open(OUT / f"spans-{args.workload}.json", "w") as fh:
                json.dump({"fields": spans.FIELDS, "ops": keys, "spans": runner.tracer.spans}, fh)
            attempted = len(lat_a) + len(lat_b)
            rounds *= 2

        import checks  # loads the reference only now, after peak RSS was read

        checker = checks.Checker()
        labels = check_outputs(wl, runner, checker)
        classify = checks.classify
        known = [key for key, found in labels.items() if found and classify(found)]
        correct = all(not found or classify(found) for found in labels.values())
        for line in summary_lines(wl, labels, classify, checker.notes, rounds, measured):
            print("# " + line)
        print(f"# setup samples (s): {[round(s, 4) for s in setup.times]}")
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": rounds * len(known),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
