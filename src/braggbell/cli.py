"""Command-line front end: presets, coefficient tables, time series, scenarios.

All data files are deterministic (no timestamps, fixed float formatting), so
repeated identical invocations are byte-identical. Every CSV table is written
by _csv_text, whose one cell rule is: None blank, str as is, int in full,
float as %.15g. Run provenance that is not data (resolved parameters, the
ladder range) goes to a `.meta.json` sidecar next to the CSV, which is itself
deterministic. The ladder range is fixed by l0 (params.default_range); no
command sets it.

Rates that are printed or turned into durations (`coeffs`'s b_n_rad_s and
pi_pulse_s, `validate`'s b_rad_s and flip cycle, `simulate --cycles`) are the
flip rate |b_n| of the two-level reduction in `adiabatic`; the sign of b_n
only enters the scenario reports through the two-level propagator.

Exit codes: 0 success, 1 usage/config error (an even s or a zero flip rate,
`simulate --samples` below MIN_SAMPLES or above MAX_SAMPLES, an empty or
malformed comma list), 2 physics
error (a params.PhysicsError: regime violation, ladder truncation, a coupling
too weak to resolve, a level shift that does not converge, a norm drift), 3
I/O error. A sweep reports a point that fails with a usage or physics error
(an even s, an odd l0, ...) as an `error` row and still exits 0. `bell` and
`ghz` share cmd_scenario; params.check_regime refuses a violated regime for
them and `simulate`, while `validate` reports it and exits 2.

`validate` and `sweep` read each point's flip cycle off the one cached
decomposition of its branch (ladder.cycle_readout) and sample no time grid;
they parse --samples and ignore it. A point is scheduled on its own
(parameters, regime verdict, two-level record, t1) and then read on its own,
so a sweep row is the report `validate` gives for that point. A ladder
refusal (resolution, truncation, norm drift), raised per point, keeps the
point's two-level numbers and gives an `error` in place of the ladder's.

`simulate` is the one sampler of a time grid: every duration, zero included,
is linspace(0, duration, --samples) propagated by ladder.evolve under its
resolution, edge and norm guards.

The per-branch caches of adiabatic.coeffs and of the ladder serve every
point of a process that meets a branch again: a ladder record holds the
branch's Hamiltonian, its decomposition and its readout terms, keyed on n,
l0, the Stark flag, the ladder range and the bytes of w_rec and chi, and a
bounded row cache (128 entries) holds its (kept, flipped) pair, keyed on
that key and the bytes of the point's t1. A point that meets its branch and
t1 again propagates nothing: it runs the ladder's resolution, duration, edge
and norm-drift guards against the kept numbers, each threshold read at that
moment. A one-shot command starts with the caches empty; a sweep over s,
whose points share one branch, builds and decomposes it once and propagates
it once per point, as each point has its own t1.

Only the commands that propagate the ladder load it, and numpy with it:
`simulate`, `validate`, `sweep` and `bell`/`ghz --engine ladder`. `preset`,
`coeffs` and the default adiabatic `bell`/`ghz` run on the standard library.
Only the CSV writers (`coeffs`, `simulate`, `sweep`) load `csv`; none loads `json`.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import adiabatic, entangle, params

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PHYSICS = 2
EXIT_IO = 3

# the value type of each sweep variable
SWEEP_VARS = {"chi_ratio": float, "l0": int, "n0": int, "s": int}
# simulate's linspace(0, T, 1) would drop the endpoint T
MIN_SAMPLES = 2
# refused before numpy allocates the grid: 10**6 rows at l0 = 6 already need about 1.5 GB
MAX_SAMPLES = 10**6

SWEEP_COLUMNS = (
    "var",
    "value",
    "l0",
    "n0",
    "chi_ratio",
    "verdict",
    "a_rad_s",
    "b_rad_s",
    "freq_rad_s",
    "freq_ratio",
    "mean_leakage",
    "leakage_bound",
    "pop_dev_bound",
    "bell_fidelity",
    "error",
)


def _physical(args: argparse.Namespace, l0: int | None = None) -> params.PhysicalParams:
    """Parameters from --preset, --config (else $BRAGG_CONFIG), --set, --chi-ratio and l0."""
    config_path = args.config
    if config_path is None:
        config_path = os.environ.get(params.ENV_CONFIG_VAR) or None
    p = params.resolve_params(args.preset, config_path, args.overrides)
    if args.chi_ratio is not None:
        p = params.with_regime_ratio(p, args.chi_ratio)
    if l0 is not None:
        p = replace(p, l0=l0)
    return p


def _cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".15g")
    return "" if v is None else str(v)


def _csv_text(header, rows) -> str:
    """CSV text of a header and rows of cells (module docstring for the cell rule)."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _derived_dict(d: params.DerivedParams) -> dict:
    return {
        "wavenumber_rad_m": d.wavenumber,
        "recoil_rad_s": d.recoil_frequency,
        "chi_rad_s": d.chi,
        "regime_ratio": d.regime_ratio,
    }


# --- subcommand bodies -------------------------------------------------------


def cmd_preset(args: argparse.Namespace) -> int:
    if args.action == "list":
        _emit("\n".join(sorted(params.PRESETS)) + "\n", args.output)
        return EXIT_OK
    p = params.get_preset(args.name)
    d = params.derive(p)
    verdict = params.validate_bragg_regime(d, p.n0)
    payload = {
        "name": args.name,
        "physical": params.physical_dict(p),
        "derived": _derived_dict(d),
        "regime_verdict": verdict.value,
    }
    _emit(entangle.json_text(payload), args.output)
    return EXIT_OK


def cmd_coeffs(args: argparse.Namespace) -> int:
    p = _physical(args)
    d = params.derive(p)
    l0_list = _parse_list(args.l0, int) if args.l0 is not None else [p.l0]
    n_list = _parse_list(args.n, int) if args.n is not None else [p.n0]
    rows = []
    for c in (adiabatic.coeffs(n, l0, d) for l0 in l0_list for n in n_list):
        rate = abs(c.b_n)
        rows.append((c.n, c.l0, c.a_n, rate, math.pi / rate if rate > 0 else math.inf))
    header = ("n", "l0", "a_n_rad_s", "b_n_rad_s", "pi_pulse_s")
    _emit(_csv_text(header, rows), args.output)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    import numpy as np

    from . import ladder

    if args.samples < MIN_SAMPLES:
        raise UsageError(f"--samples must be >= {MIN_SAMPLES}, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise UsageError(f"--samples must be <= {MAX_SAMPLES}, got {args.samples}")
    p = _physical(args, args.l0)
    # photon number of the branch being propagated; 0 = vacuum is legitimate
    n = args.n if args.n is not None else p.n0
    if n < 0:
        raise UsageError(f"photon number must be >= 0, got {n}")
    d = params.derive(p)
    verdict = params.check_regime(d, n)
    if verdict is params.RegimeVerdict.MARGINAL:
        print(
            f"warning: chi*n/w_rec = {abs(d.chi * n / d.recoil_frequency):.3g} "
            "is marginal; adiabatic formulas degrade",
            file=sys.stderr,
        )

    rate = adiabatic.coupling(n, p.l0, d)
    if args.duration is not None:
        duration = args.duration
    else:
        if rate == 0:
            raise UsageError(
                f"cannot convert --cycles to a duration: the flip rate |b_n| is 0 at n = {n}; "
                "give --duration explicitly"
            )
        duration = args.cycles * 2.0 * math.pi / rate
    if duration < 0:
        raise UsageError(f"duration must be >= 0, got {duration}")
    if not math.isfinite(duration):
        raise UsageError(f"duration must be finite, got {duration}")

    h = ladder.build_hamiltonian(n, p.l0, d)
    times = np.linspace(0.0, duration, args.samples)
    amps = ladder.evolve(h, rate, times)
    header = ["t_s", "tau", *(f"p_{l}" for l in h.orders.tolist())]
    rows = np.column_stack([times, d.recoil_frequency * times, np.abs(amps) ** 2])
    _emit(_csv_text(header, rows.tolist()), args.output)

    if args.output is not None:
        meta = {
            "command": "simulate",
            "physical": params.physical_dict(p),
            "derived": _derived_dict(d),
            "photon_number": int(n),
            "regime_verdict": verdict.value,
            "l_range": [h.l_min, h.l_max],
            "duration_s": float(duration),
            "samples": int(len(times)),
        }
        Path(args.output + ".meta.json").write_text(entangle.json_text(meta))
    return EXIT_OK


def cmd_scenario(args: argparse.Namespace) -> int:
    """`bell` (k = 2, --mode) and `ghz` (--k >= 3, mode "same"): one scenario report."""
    if args.command == "ghz" and args.k < 3:
        raise UsageError(f"ghz needs --k >= 3 (got {args.k}); use `bell` for two atoms")
    rep = entangle.run_scenario(
        _physical(args),
        s=args.s,
        r=args.r,
        mode=args.mode,
        k=args.k,
        engine=args.engine,
        basis=args.basis,
        fit_phase=args.fit_phase,
        include_stark=args.include_stark,
        selected_outcome=args.outcome,
    )
    _emit(rep.to_json(), args.output)
    return EXIT_OK


def validate_point(p: params.PhysicalParams, s: int = 1) -> dict:
    """Ladder-vs-two-level comparison over one population-flip cycle.

    Keys: regime verdict, shift a_n and flip rate |b_n| of the two-level
    reduction, and from one decomposition of the ladder (ladder.cycle_readout)
    the flip frequency the ladder shows, its ratio to |b_n|, the mean leakage
    out of the resonant pair, bounds on that leakage and on the pointwise
    population deviation from the closed form, and a phase-agnostic Bell
    fidelity at t1 = s*pi/|b_n|. A ladder that cannot be trusted at the
    point leaves an `error` in place of its numbers. An even s or a zero flip
    rate raises ValueError from adiabatic.pulse_times, as for `bell`.
    """
    point = _schedule(p, s)
    _read_cycles([point])
    return point[0]


def _schedule(p: params.PhysicalParams, s: int) -> tuple[dict, adiabatic.TwoLevelCoeffs, float]:
    """A point's two-level half: its report so far, its branch record and t1."""
    d = params.derive(p)
    verdict = params.validate_bragg_regime(d, p.n0)
    c = adiabatic.coeffs(p.n0, p.l0, d)
    t1, _ = adiabatic.pulse_times(c, s)
    report = {
        "l0": p.l0,
        "n0": p.n0,
        "chi_ratio": d.regime_ratio,
        "verdict": verdict.value,
        "a_rad_s": c.a_n,
        "b_rad_s": abs(c.b_n),
    }
    return report, c, t1


def _read_cycles(points: list[tuple[dict, adiabatic.TwoLevelCoeffs, float]]) -> None:
    """Complete the report of each scheduled point (_schedule) from its
    ladder.cycle_readout: the ladder's numbers and the Bell fidelity, or the
    reason the ladder refuses the point."""
    from . import ladder

    refusals = {
        ladder.ResolutionError: "ladder resolution",
        ladder.TruncationError: "ladder truncation",
        ladder.NormDriftError: "ladder norm drift",
    }
    for report, c, t1 in points:
        try:
            fields, pair = ladder.cycle_readout(c, t1)
        except tuple(refusals) as exc:
            report["error"] = f"{refusals[type(exc)]}: {exc}"
            continue
        report.update(fields, freq_ratio=fields["freq_rad_s"] / report["b_rad_s"])
        # opposite incidence: |+-> in, |-+> flipped
        state, _ = entangle.prepare([pair] * 2, (0, 1))
        _, post = entangle.measure_field(state, entangle.superposition_basis(), 0)
        report["bell_fidelity"] = entangle.fitted_fidelity(post, (0, 1), (1, 0))


def cmd_validate(args: argparse.Namespace) -> int:
    p = _physical(args, args.l0)
    report = validate_point(p, s=args.s)
    _emit(entangle.json_text(report), args.output)
    reasons = []
    if report["verdict"] == params.RegimeVerdict.VIOLATED.value:
        reasons.append(f"regime violated: chi*n/w_rec = {abs(report['chi_ratio']):.3g}")
    if "error" in report:
        reasons.append(f"error: {report['error']}")
    for reason in reasons:
        print(reason, file=sys.stderr)
    return EXIT_PHYSICS if reasons else EXIT_OK


def _sweep_param(base: params.PhysicalParams, var: str, value):
    """(physical params, s) for one sweep point; value has the type SWEEP_VARS[var]."""
    if var == "s":
        return base, value
    if var == "chi_ratio":
        return params.with_regime_ratio(base, value), 1
    return replace(base, **{var: value}), 1


def cmd_sweep(args: argparse.Namespace) -> int:
    base = _physical(args)
    values = _parse_list(args.values, SWEEP_VARS[args.var])

    reports, scheduled = [], []
    for value in values:
        try:
            point = _schedule(*_sweep_param(base, args.var, value))
        except (ValueError, params.PhysicsError) as exc:
            reports.append({"error": str(exc), "l0": None, "n0": None})
        else:
            reports.append(point[0])
            scheduled.append(point)
    _read_cycles(scheduled)
    points = [{"var": args.var, "value": v, **report} for v, report in zip(values, reports)]

    if args.format == "json":
        _emit(entangle.json_text(points), args.output)
        return EXIT_OK

    rows = ([point.get(col) for col in SWEEP_COLUMNS] for point in points)
    _emit(_csv_text(SWEEP_COLUMNS, rows), args.output)
    return EXIT_OK


# --- argument plumbing -------------------------------------------------------


class UsageError(ValueError):
    pass


def _parse_list(text: str, kind: type) -> list:
    """The comma-separated values of type `kind` in text; blank items are skipped,
    and a list without a value is refused."""
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise UsageError(f"expected comma-separated {kind.__name__} values, got {text!r}")
    return values


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", default=None, help="write to file instead of stdout")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--preset", default="rubidium", help="named parameter set")
    sub.add_argument(
        "--config",
        default=None,
        help=f"key=value parameter file (default: ${params.ENV_CONFIG_VAR})",
    )
    sub.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a single parameter (repeatable)",
    )
    sub.add_argument(
        "--chi-ratio",
        type=float,
        default=None,
        help="rescale the coupling g so that |chi*n0/w_rec| equals this",
    )
    _add_output(sub)


def _add_ignored_samples(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--samples",
        type=int,
        default=None,
        help="ignored; removed with the benchmark change of ROADMAP item 3",
    )


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--s", type=int, default=1, help="odd pulse multiple (t1 = s*pi/B_n)")
    sub.add_argument("--r", type=int, default=0, help="second-atom offset in units of 2*pi/B_n")
    sub.add_argument("--engine", choices=("adiabatic", "ladder"), default="adiabatic")
    sub.add_argument(
        "--basis",
        choices=("superposition", "computational"),
        default="superposition",
        help="field measurement basis",
    )
    sub.add_argument(
        "--fit-phase",
        action="store_true",
        help="score fidelity against the best-phase target of the same family",
    )
    sub.add_argument("--include-stark", action="store_true")
    sub.add_argument("--outcome", type=int, choices=(0, 1), default=0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser: parse_args leaves it as it found it, so
    in-process callers of main share it; do not add arguments to it."""
    parser = argparse.ArgumentParser(
        prog="braggbell",
        description="Bragg-cavity momentum entanglement simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_preset = sub.add_parser("preset", help="list presets or show one resolved")
    p_preset.add_argument("action", choices=("list", "show"))
    p_preset.add_argument("name", nargs="?", default="rubidium")
    _add_output(p_preset)

    p_coeffs = sub.add_parser("coeffs", help="two-level coefficient table (CSV)")
    p_coeffs.add_argument("--l0", default=None, help="comma list of Bragg orders")
    p_coeffs.add_argument("--n", default=None, help="comma list of photon numbers")
    _add_common(p_coeffs)

    p_sim = sub.add_parser("simulate", help="ladder time series (CSV + meta sidecar)")
    p_sim.add_argument("--l0", type=int, default=None)
    p_sim.add_argument("--n", type=int, default=None, help="photon number")
    p_sim.add_argument("--duration", type=float, default=None, help="seconds")
    p_sim.add_argument(
        "--cycles", type=float, default=1.0, help="duration in units of 2*pi/B_n (default 1)"
    )
    p_sim.add_argument("--samples", type=int, default=201)
    _add_common(p_sim)

    p_bell = sub.add_parser("bell", help="two-atom Bell preparation report (JSON)")
    p_bell.add_argument("--mode", choices=("opposite", "same"), default="opposite")
    p_bell.set_defaults(k=2)
    _add_scenario_flags(p_bell)
    _add_common(p_bell)

    p_ghz = sub.add_parser("ghz", help="k-atom GHZ preparation report (JSON)")
    p_ghz.add_argument("--k", type=int, default=3)
    p_ghz.set_defaults(mode="same")
    _add_scenario_flags(p_ghz)
    _add_common(p_ghz)

    p_val = sub.add_parser("validate", help="ladder vs closed-form comparison (JSON)")
    p_val.add_argument("--l0", type=int, default=None)
    p_val.add_argument("--s", type=int, default=1)
    _add_ignored_samples(p_val)
    _add_common(p_val)

    p_sweep = sub.add_parser("sweep", help="validate over a parameter range (CSV/JSON)")
    p_sweep.add_argument("--var", choices=SWEEP_VARS, required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated points")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_ignored_samples(p_sweep)
    _add_common(p_sweep)

    return parser


_HANDLERS = {
    "preset": cmd_preset,
    "coeffs": cmd_coeffs,
    "simulate": cmd_simulate,
    "bell": cmd_scenario,
    "ghz": cmd_scenario,
    "validate": cmd_validate,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; remap to our contract
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    try:
        return _HANDLERS[args.command](args)
    except params.PhysicsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except ValueError as exc:  # UsageError, ParameterError and MeasurementError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
