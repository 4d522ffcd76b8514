"""Rewrite the golden corpus: one JSON file per CLI case in this directory.

    PYTHONPATH=src python tests/golden/regenerate.py

Each case runs `cli.main(argv)` in-process, in an empty working directory
and without $BRAGG_CONFIG, and records its exit code, stderr, stdout and the
files it wrote, each as a list of lines. A written file keeps its first HEAD
lines and its line count. A case that reads the ladder is marked `ladder`:
tests/test_golden.py compares its numbers within 1e-12 relative, and every
other case byte for byte. Any change to the corpus goes into CHANGES.md with
its reason.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
HEAD = 40  # lines kept of each written file: a sidecar whole, the head of a CSV
NEGATIVE = ("--set", "detuning_2pi_hz=-80e6")

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
            # each documented refusal: exit 1 usage, 2 physics, 3 I/O
            "refuse-even-s": ["bell", "--s", "2"],
            "refuse-zero-flip-rate": ["validate", "--set", "g_rad_s=0"],
            "refuse-samples-below-minimum": ["simulate", "--samples", "1"],
            "refuse-simulate-cycles-without-rate": ["simulate", "--n", "0"],
            "refuse-malformed-list": ["coeffs", "--l0", "2,x"],
            "refuse-empty-list": ["sweep", "--var", "l0", "--values", ","],
            "refuse-ghz-two-atoms": ["ghz", "--k", "2"],
            "refuse-unrecognized-argument": ["validate", "--guard", "4"],
            "refuse-regime-violated": ["bell", "--chi-ratio", "0.5"],
            "refuse-no-convergence": ["coeffs", "--l0", "4", "--chi-ratio", "8"],
            "refuse-resolution": ["validate", "--l0", "8", "--chi-ratio", "0.02"],
            "refuse-simulate-resolution": ["simulate", "--l0", "10", "--chi-ratio", "0.05"],
            "refuse-unwritable-output": ["bell", "--output", "no-such-dir/report.json"],
        }
    )
    return out


def run_case(argv: list[str]) -> dict:
    """Everything `cli.main(argv)` leaves behind, as recorded in the corpus."""
    from braggbell import cli, params

    out, err = io.StringIO(), io.StringIO()
    cwd, env = os.getcwd(), os.environ.pop(params.ENV_CONFIG_VAR, None)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            os.chdir(tmp)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            files = {}
            for path in sorted(Path(tmp).iterdir()):
                lines = path.read_text().splitlines()
                files[path.name] = {"lines": len(lines), "head": lines[:HEAD]}
        finally:
            os.chdir(cwd)
            if env is not None:
                os.environ[params.ENV_CONFIG_VAR] = env
    return {
        "argv": list(argv),
        "ladder": argv[0] in ("simulate", "validate", "sweep") or "ladder" in argv,
        "exit": code,
        "stderr": err.getvalue().splitlines(),
        "stdout": out.getvalue().splitlines(),
        "files": files,
    }


def main() -> int:
    for old in HERE.glob("*.json"):
        old.unlink()
    for name, argv in cases().items():
        text = json.dumps(run_case(argv), indent=1, ensure_ascii=False) + "\n"
        (HERE / f"{name}.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    sys.exit(main())
