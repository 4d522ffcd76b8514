"""The three benchmark workloads and their inputs.

Each workload is a fixed list of ops; a run attempts whole rounds of it, in
an order shuffled from the seed, so every run attempts the same ops in the same
proportions whatever its length. Only the order (and, for the sweeps, the
order of the points inside each call) depends on the seed.

This module imports only the standard library at load time; `build` imports
braggbell, so that the set-up probe can time import plus input building.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("scenario_grid", "validate_sweep", "cli_cold")


@dataclass
class Op:
    key: str            # stable identifier: outputs of one key must match across rounds
    spec: dict          # what the checker needs to know about the inputs
    args: object = None  # what the timed call receives
    out_path: Path | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    tail_percentile: float      # op_tail_ms: highest percentile with >= 10 samples beyond it
    min_samples: int            # a run keeps adding rounds until it has this many
    rng: random.Random
    workdir: Path
    env: dict

    def round_order(self) -> list[Op]:
        order = list(self.ops)
        self.rng.shuffle(order)
        return order


# --- scenario_grid -----------------------------------------------------------

ENGINES = ("adiabatic", "ladder")
SCENARIOS = (("bell-opposite", 2, "opposite"), ("bell-same", 2, "same")) + tuple(
    (f"ghz{k}", k, "same") for k in range(3, 9)
)
L0S = (2, 4, 6)
PULSES = (1, 3, 5)
OFFSETS = (0, 1)
SIGNS = (1, -1)
RATIOS = (0.005, 0.02)
# the slice on which both field bases and fit_phase run
SLICE = dict(s=1, r=0, sign=1, ratio=0.02)
SLICE_VARIANTS = (("computational", False), ("superposition", True), ("computational", True))


def _scenario_ops() -> list[Op]:
    from braggbell import params

    base = params.rubidium_preset()
    physical = {}
    ops = []
    grid = itertools.product(ENGINES, SCENARIOS, L0S, PULSES, OFFSETS, SIGNS, RATIOS)
    for engine, (name, k, mode), l0, s, r, sign, ratio in grid:
        if (l0, sign, ratio) not in physical:
            p = replace(base, l0=l0, detuning=sign * base.detuning)
            physical[l0, sign, ratio] = params.with_regime_ratio(p, ratio)
        p = physical[l0, sign, ratio]
        variants = [("superposition", False)]
        if dict(s=s, r=r, sign=sign, ratio=ratio) == SLICE:
            variants += SLICE_VARIANTS
        for basis, fit in variants:
            kw = dict(s=s, r=r, mode=mode, k=k, engine=engine, basis=basis, fit_phase=fit)
            key = (f"{engine}/{name}/l0={l0}/s={s}/r={r}/sign={'+' if sign > 0 else '-'}/"
                   f"ratio={ratio}/{basis}/fit={int(fit)}")
            spec = dict(kw, mass=p.mass, wavelength=p.wavelength, g=p.coupling_g,
                        detuning=p.detuning, n0=p.n0, l0=l0)
            ops.append(Op(key, spec, (p, kw)))
    return ops


# --- validate_sweep ----------------------------------------------------------

CHI_VALUES = (0.002, 0.005, 0.01, 0.02, 0.03, 0.05, 0.08, 0.12)
L0_VALUES = (2, 4, 6, 8, 10, 12, 8, 10)
N0_VALUES = tuple(range(1, 9))
S_VALUES = tuple(range(1, 16, 2))
SWEEP_SAMPLES = 512

# (var, values, base l0, base chi ratio or None for the preset, detuning sign)
SWEEPS = (
    ("chi_ratio", CHI_VALUES, 2, None, 1),
    ("chi_ratio", CHI_VALUES, 4, None, 1),
    ("chi_ratio", CHI_VALUES, 4, None, -1),
    ("chi_ratio", CHI_VALUES, 6, None, 1),
    ("chi_ratio", CHI_VALUES, 8, None, 1),
    ("l0", L0_VALUES, 2, 0.005, 1),
    ("l0", L0_VALUES, 2, 0.02, 1),
    ("l0", L0_VALUES, 2, 0.05, 1),
    ("n0", N0_VALUES, 2, 0.005, 1),
    ("n0", N0_VALUES, 4, 0.005, 1),
    ("s", S_VALUES, 2, 0.02, 1),
    ("s", S_VALUES, 4, 0.02, 1),
)


def _sweep_ops(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for i, (var, values, l0, ratio, sign) in enumerate(SWEEPS):
        vals = list(values)
        rng.shuffle(vals)
        out = workdir / f"sweep{i}.json"
        argv = ["sweep", "--var", var, "--values", ",".join(str(v) for v in vals),
                "--samples", str(SWEEP_SAMPLES), "--format", "json", "--output", str(out),
                "--set", f"l0={l0}"]
        if sign < 0:
            argv += ["--set", "detuning_2pi_hz=-80e6"]
        if ratio is not None:
            argv += ["--chi-ratio", str(ratio)]
        key = f"sweep/{var}/l0={l0}/ratio={ratio}/sign={'+' if sign > 0 else '-'}"
        spec = dict(var=var, values=vals, l0=l0, ratio=ratio, sign=sign)
        ops.append(Op(key, spec, argv, out))
    return ops


# --- cli_cold ----------------------------------------------------------------

def _cli_ops(workdir: Path) -> list[Op]:
    flip = workdir / "flip.csv"
    commands = (
        ("preset-show", ["preset", "show", "rubidium"], None),
        ("coeffs", ["coeffs", "--l0", "2,4,6", "--n", "1,2"], None),
        ("simulate", ["simulate", "--cycles", "1", "--samples", "200", "--output", str(flip)], flip),
        ("bell-adiabatic", ["bell", "--engine", "adiabatic"], None),
        ("bell-ladder", ["bell", "--engine", "ladder"], None),
        ("ghz4-ladder", ["ghz", "--k", "4", "--engine", "ladder"], None),
        ("validate", ["validate"], None),
        ("sweep4", ["sweep", "--var", "chi_ratio", "--values", "0.01,0.02,0.05,0.1"], None),
    )
    return [Op(key, {}, argv, out) for key, argv, out in commands]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("BRAGG_CONFIG", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


# --- building ----------------------------------------------------------------

# op_tail_ms is the percentile with ten samples beyond it at the minimum
# sample count; a run adds whole rounds until it has that many.
TAILS = {
    "scenario_grid": (99.0, 1000),
    "validate_sweep": (95.0, 200),
    "cli_cold": (80.0, 50),
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Import braggbell and build the inputs of one workload."""
    from braggbell import cli, entangle, params  # noqa: F401  (set-up cost)

    rng = random.Random(seed)
    if name == "scenario_grid":
        ops = _scenario_ops()
    elif name == "validate_sweep":
        ops = _sweep_ops(rng, workdir)
    elif name == "cli_cold":
        ops = _cli_ops(workdir)
    else:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    pct, min_samples = TAILS[name]
    return Workload(name, ops, pct, min_samples, rng, workdir, child_env())
