"""Rewrite the golden corpus: one JSON file per CLI case in this directory.

    PYTHONPATH=src python tests/golden/regenerate.py

Each case runs `cli.main(argv)` in-process, in an empty working directory
and without $BRAGG_CONFIG, and records its exit code, stderr, stdout and the
files it wrote, each as a list of lines. A case listed in INPUTS first has
its input files written into that directory; the record keeps them under
`inputs` and leaves them out of `files`. A written file keeps its first HEAD
lines and its line count. A case that reads the ladder is marked `ladder`:
its numbers are compared within LADDER_RTOL relative, and every other case
byte for byte (mismatch, which tests/test_golden.py applies too). The script
leaves a committed file alone when the fresh run matches it under that rule,
writes new and changed cases, and deletes the files of cases no longer
listed, so a rerun on another LAPACK build rewrites nothing that passes. Any
change to the corpus goes into CHANGES.md with its reason.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
HEAD = 40  # lines kept of each written file: a sidecar whole, the head of a CSV
NEGATIVE = ("--set", "detuning_2pi_hz=-80e6")
LADDER_RTOL = 1e-12
_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")

# engine, Stark, field basis, outcome, l0, s, r
_SCENARIO_AXES = (
    ("adiabatic", "ladder"), (False, True), ("superposition", "computational"), (0, 1),
    (2, 4, 6), (1, 3), (0, 1),
)


def _scenario(command: str, shape: str, engine, stark, basis, outcome, l0, s, r):
    name = f"{command}-{shape}-{engine}-{'stark' if stark else 'plain'}-{basis[:4]}-o{outcome}-l{l0}-s{s}-r{r}"
    argv = [command, *(["--mode", shape] if command == "bell" else ["--k", shape[1:]])]
    argv += ["--engine", engine, "--basis", basis, "--outcome", str(outcome)]
    argv += ["--set", f"l0={l0}", "--s", str(s), "--r", str(r)]
    return name, argv + (["--include-stark"] if stark else [])


def _sampled(shapes: tuple, count: int) -> list:
    """`count` distinct points of shapes x _SCENARIO_AXES that cover every level
    of every axis: the first seeded draw that does."""
    axes = [shapes, *_SCENARIO_AXES]
    grid = list(itertools.product(*axes))
    for seed in itertools.count():
        picked = random.Random(seed).sample(grid, count)
        if all({point[i] for point in picked} == set(levels) for i, levels in enumerate(axes)):
            return sorted(picked, key=repr)


# case name -> the files written into its working directory before it runs
INPUTS = {
    "bell-config-file": {
        "config.txt": (
            "# the rubidium preset, spelled out\n"
            "mass_kg = 1.42e-25  # kg\n"
            "wavelength_m=0.8e-6\n"
            "\n"
            "g_2pi_hz = 112e3\n"
            "detuning_2pi_hz = 80e6\n"
            "n0 = 1\n"
            "l0 = 2\n"
        )
    },
    "refuse-config-duplicate-key": {"config.txt": "n0 = 2\nl0 = 4\nn0 = 3\n"},
    "refuse-config-unknown-key": {"config.txt": "# one key too many\nbogus = 1\n"},
    "refuse-config-without-equals": {"config.txt": "n0 2\n"},
}


def cases() -> dict[str, list[str]]:
    """Case name -> argv."""
    out = dict(_scenario("bell", *point) for point in _sampled(("opposite", "same"), 24))
    out.update(_scenario("ghz", *point) for point in _sampled(("k3", "k4"), 6))
    out.update(
        {
            "bell-fit-phase-ladder": ["bell", "--engine", "ladder", "--fit-phase", "--chi-ratio", "0.05"],
            "validate-default": ["validate"],
            "validate-l4-chi0.05": ["validate", "--l0", "4", "--chi-ratio", "0.05", "--samples", "64"],
            "validate-l8-chi0.03": ["validate", "--l0", "8", "--chi-ratio", "0.03"],
            "bell-adiabatic-l8-chi0.05": ["bell", "--set", "l0=8", "--chi-ratio", "0.05"],
            # the detuning's other sign: chi < 0
            "bell-negative-detuning-adiabatic-stark": ["bell", *NEGATIVE, "--include-stark"],
            "bell-negative-detuning-ladder": ["bell", "--engine", "ladder", *NEGATIVE],
            "ghz-k3-negative-detuning-ladder-l4": ["ghz", "--k", "3", "--engine", "ladder", "--set", "l0=4", *NEGATIVE],
            "validate-truncated-and-violated": ["validate", "--chi-ratio", "2.35", "--samples", "4"],
            "sweep-chi-ratio-csv": ["sweep", "--var", "chi_ratio", "--values", "0.01,0.02,0.05", "--samples", "64"],
            "coeffs-csv": ["coeffs", "--l0", "2,4,6", "--n", "0,1,2,3"],
            "simulate-csv-and-sidecar": ["simulate", "--l0", "4", "--output", "sim.csv"],
            # the vacuum branch, n = 0: no coupling, each order only turns its phase
            "simulate-vacuum": ["simulate", "--n", "0", "--duration", "0.01", "--samples", "9"],
            "simulate-vacuum-l6": ["simulate", "--n", "0", "--l0", "6", "--duration", "3.7", "--samples", "33"],
            # a zero duration: --samples rows at t = 0, under the guards of any duration
            "simulate-zero-duration": ["simulate", "--duration", "0", "--samples", "3"],
            # each documented refusal: exit 1 usage, 2 physics, 3 I/O
            "refuse-even-s": ["bell", "--s", "2"],
            "refuse-zero-flip-rate": ["validate", "--set", "g_rad_s=0"],
            "refuse-samples-below-minimum": ["simulate", "--samples", "1"],
            "refuse-samples-above-maximum": ["simulate", "--samples", "1000001"],
            "refuse-simulate-cycles-without-rate": ["simulate", "--n", "0"],
            "refuse-malformed-list": ["coeffs", "--l0", "2,x"],
            "refuse-empty-list": ["sweep", "--var", "l0", "--values", ","],
            "refuse-ghz-two-atoms": ["ghz", "--k", "2"],
            "refuse-unrecognized-argument": ["validate", "--guard", "4"],
            "refuse-regime-violated": ["bell", "--chi-ratio", "0.5"],
            "refuse-no-convergence": ["coeffs", "--l0", "4", "--chi-ratio", "8"],
            "refuse-resolution": ["validate", "--l0", "8", "--chi-ratio", "0.02"],
            "refuse-simulate-resolution": ["simulate", "--l0", "10", "--chi-ratio", "0.05"],
            "refuse-simulate-resolution-at-zero-duration": ["simulate", "--l0", "10", "--chi-ratio", "0.05", "--duration", "0"],
            "refuse-unwritable-output": ["bell", "--output", "no-such-dir/report.json"],
            # the parameter keys, through --set and through a config file (INPUTS)
            "bell-set-g-2pi-hz": ["bell", "--set", "g_2pi_hz=112e3"],
            "refuse-set-without-equals": ["bell", "--set", "n0"],
            "refuse-set-unknown-key": ["bell", "--set", "bogus=1"],
            "refuse-set-unparsable-integer": ["bell", "--set", "n0=x"],
            "refuse-set-unparsable-number": ["bell", "--set", "g_2pi_hz=x"],
            "refuse-set-both-spellings": ["bell", "--set", "g_rad_s=1", "--set", "g_2pi_hz=1"],
            **{name: ["bell", "--config", "config.txt"] for name in INPUTS},
        }
    )
    return out


def run_case(argv: list[str], inputs: dict[str, str] | None = None) -> dict:
    """Everything `cli.main(argv)` leaves behind, as recorded in the corpus,
    after the files `inputs` (name -> text) are written for it to read."""
    from braggbell import cli, params

    inputs = dict(inputs or {})
    out, err = io.StringIO(), io.StringIO()
    cwd, env = os.getcwd(), os.environ.pop(params.ENV_CONFIG_VAR, None)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            os.chdir(tmp)
            for name, text in inputs.items():
                Path(name).write_text(text)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            files = {}
            for path in sorted(Path(tmp).iterdir()):
                if path.name in inputs:
                    continue
                lines = path.read_text().splitlines()
                files[path.name] = {"lines": len(lines), "head": lines[:HEAD]}
        finally:
            os.chdir(cwd)
            if env is not None:
                os.environ[params.ENV_CONFIG_VAR] = env
    return {
        "argv": list(argv),
        **({"inputs": inputs} if inputs else {}),
        "ladder": argv[0] in ("simulate", "validate", "sweep") or "ladder" in argv,
        "exit": code,
        "stderr": err.getvalue().splitlines(),
        "stdout": out.getvalue().splitlines(),
        "files": files,
    }


def _lines_match(got: list[str], want: list[str], ladder: bool) -> bool:
    """Byte-equal lines, or for a ladder case, equal but for numbers within LADDER_RTOL."""
    if got == want:
        return True
    if not ladder or len(got) != len(want):
        return False
    for g, w in zip(got, want):
        g_parts, w_parts = _NUMBER.split(g), _NUMBER.split(w)
        if len(g_parts) != len(w_parts):
            return False
        # split with one group alternates text (even indices) and numbers (odd)
        for i, (a, b) in enumerate(zip(g_parts, w_parts)):
            if a != b and (i % 2 == 0 or not math.isclose(float(a), float(b), rel_tol=LADDER_RTOL)):
                return False
    return True


def mismatch(got: dict, want: dict) -> str | None:
    """The first part of a fresh run_case record that the committed record
    `want` rejects, or None when every part matches."""
    for key in ("argv", "ladder", "exit", "stderr"):
        if got[key] != want[key]:
            return key
    if got.get("inputs") != want.get("inputs"):
        return "inputs"
    if not _lines_match(got["stdout"], want["stdout"], want["ladder"]):
        return "stdout"
    if sorted(got["files"]) != sorted(want["files"]):
        return "files"
    for name, file in want["files"].items():
        new = got["files"][name]
        if new["lines"] != file["lines"] or not _lines_match(new["head"], file["head"], want["ladder"]):
            return name
    return None


def main() -> int:
    listed = cases()
    for old in HERE.glob("*.json"):
        if old.stem not in listed:
            old.unlink()
    for name, argv in listed.items():
        path = HERE / f"{name}.json"
        got = run_case(argv, INPUTS.get(name))
        if path.exists() and mismatch(got, json.loads(path.read_text())) is None:
            continue
        path.write_text(json.dumps(got, indent=1, ensure_ascii=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    sys.exit(main())
