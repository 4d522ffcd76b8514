"""Show that each checker rejects corrupted outputs.

    python3 bench/selfcheck.py

Runs braggbell for a few ops whose outputs pass, then hands each checker the
same output with one corruption: a phase shifted by pi/2, a probability off
by 1e-3, a fidelity off by 1e-3, a flip frequency off by 0.2 %, a changed byte
in a data file and in a rerun. Exits 1 if a genuine output fails or a
corruption passes. It lives outside tests/, so the tier-1 pytest run never
collects it.
"""

from __future__ import annotations

import copy
import io
import json
import math
import os
import shutil
import sys
from contextlib import redirect_stdout

import checks
import workloads
from run import OUT, Recorder

sys.path.insert(0, str(workloads.SRC))


def main() -> int:
    from braggbell import cli, entangle

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"selfcheck-{os.getpid()}"
    workdir.mkdir()
    checker = checks.Checker()
    results = []

    def run_cli(argv):
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"{argv} exited {code}")

    def expect(name, found, want):
        ok = (not found) if want is None else (want in found)
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: labels {sorted(found)}, expected "
              f"{'none' if want is None else want}")

    try:
        # scenario reports
        ops = {op.key: op for op in workloads.build("scenario_grid", 0, workdir).ops}
        for key in ("ladder/bell-opposite/l0=2/s=1/r=0/sign=+/ratio=0.005/superposition/fit=0",
                    "adiabatic/ghz3/l0=2/s=1/r=0/sign=+/ratio=0.005/superposition/fit=0"):
            op = ops[key]
            p, kw = op.args
            rep = json.loads(entangle.run_scenario(p, **kw).to_json())
            expect(f"{key} genuine", checker.scenario(rep, op.spec), None)

            bad = copy.deepcopy(rep)
            bad["phase_measured_rad"] += math.pi / 2
            expect("phase + pi/2", checker.scenario(bad, op.spec), "phase")

            bad = copy.deepcopy(rep)
            for label, delta in (("plus", 1e-3), ("minus", -1e-3)):
                bad["outcome_probabilities"][label] += delta
                bad["outcomes"][label]["probability"] += delta
            expect("probabilities +-1e-3", checker.scenario(bad, op.spec), "probability")

            bad = copy.deepcopy(rep)
            bad["outcome_probabilities"]["plus"] += 1e-3
            expect("one probability +1e-3", checker.scenario(bad, op.spec), "prob_sum")

            bad = copy.deepcopy(rep)
            bad["outcomes"]["plus"]["fidelity"] -= 1e-3
            expect("fidelity - 1e-3", checker.scenario(bad, op.spec), "fidelity_gap")

            bad = copy.deepcopy(rep)
            bad["vacuum_deviation"] = 1e-6
            expect("vacuum deviation 1e-6", checker.scenario(bad, op.spec), "vacuum")

        # validate_sweep rows
        sweeps = {op.key: op for op in workloads.build("validate_sweep", 0, workdir).ops}
        op = sweeps["sweep/chi_ratio/l0=2/ratio=None/sign=+"]
        run_cli(op.args)
        points = json.loads(op.out_path.read_text())
        expect(f"{op.key} genuine", checker.sweep(points, op.spec), None)

        bad = copy.deepcopy(points)
        bad[3]["freq_rad_s"] *= 1.002
        bad[3]["freq_ratio"] *= 1.002
        expect("freq * 1.002", checker.sweep(bad, op.spec), "freq")

        bad = copy.deepcopy(points)
        bad[5]["bell_fidelity"] -= 1e-2
        expect("bell fidelity - 1e-2", checker.sweep(bad, op.spec), "bell_fidelity")

        bad = copy.deepcopy(points)
        bad[2]["freq_ratio"] *= 1.5
        expect("freq_ratio * 1.5", checker.sweep(bad, op.spec), "freq_ratio")

        op = sweeps["sweep/l0/l0=2/ratio=0.02/sign=+"]
        run_cli(op.args)
        points = json.loads(op.out_path.read_text())
        expect(f"{op.key} genuine (F2 today)", checker.sweep(points, op.spec), "unguarded")
        for pt in points:
            if pt["l0"] >= 10:
                pt["error"] = "refused"
        expect("same sweep, unresolved points refused", checker.sweep(points, op.spec), None)

        # fresh-process outputs, produced in-process here
        flip = workdir / "flip.csv"
        run_cli(["simulate", "--cycles", "1", "--samples", "200", "--output", str(flip)])
        files = {"out": flip.read_bytes(), "meta": (workdir / "flip.csv.meta.json").read_bytes()}
        expect("simulate genuine", checker.cli("simulate", 0, b"", files), None)
        lines = files["out"].decode().splitlines()
        col = lines[0].split(",").index("p_0")
        row = lines[-1].split(",")
        row[col] = row[col][:2] + ("1" if row[col][2] != "1" else "2") + row[col][3:]  # first decimal
        out = ("\n".join(lines[:-1] + [",".join(row)]) + "\n").encode()
        changed = sum(a != b for a, b in zip(out, files["out"]))
        expect("the corrupted CSV differs in exactly one byte", set() if changed == 1 else {changed}, None)
        bad = dict(files, out=out)
        expect("simulate, one byte changed", checker.cli("simulate", 0, b"", bad), "populations")
        expect("simulate, exit code 2", checker.cli("simulate", 2, b"", files), "exit_code")

        rec = Recorder()
        rec.add("simulate", files["out"])
        rec.add("simulate", files["out"])
        expect("rerun byte-identical", rec.changed, None)
        rec.add("simulate", out)
        expect("rerun with one byte changed", rec.changed, "simulate")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{sum(results)}/{len(results)} expectations met")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
