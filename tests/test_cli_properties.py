"""Property tests over the CLI argument space.

Any mix of valid and invalid flags must end in a documented exit code (0, 1
or 2; 3 needs a file system error), never in an uncaught exception and never
with a Python warning on stderr. A coefficient table printed with exit 0 must
hold a converged level shift: a fixed point a = alpha(a) of the dense ladder
partition in `oracles`. Each
good-regime point of a validate or sweep that exits 0 shows the flip
frequency it predicts: |freq_ratio - 1| < FREQ_TOL. No row of a time series
printed with exit 0 holds more than the atom, nor more rows than the
`--samples` cap, which is patched down to SAMPLES_CAP so that a draw at it
stays cheap. A ladder `bell` or `ghz` report printed with exit 0 has field
outcome probabilities that sum to 1 and a leakage in [0, 1]. The examples
run in one process, so the per-branch caches are warm when each refusal is
met.

A drawn `--config` value is the text of a parameter file: keys of `params`'
table with plausible, non-finite and unparsable values. The test writes it
to a file and passes the file's path in its place.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from braggbell import cli, entangle, ladder, params

INTS = st.one_of(
    st.integers(-3, 13).map(str),
    st.sampled_from(["x", "", "1.5", "nan", "1e3"]),
)


def _mostly(*valid):
    """A valid value half the time, any integer or garbage otherwise."""
    return st.one_of(st.sampled_from(valid), INTS)


S = _mostly("1", "3", "5")
R = _mostly("0", "1", "2", "-1")
K = _mostly("3", "4", "5", str(entangle.MAX_ATOMS), str(entangle.MAX_ATOMS + 1))
L0 = _mostly("2", "4", "6")
# validate and sweep parse --samples and ignore it; the draws keep old
# command lines covered, garbage included
SAMPLES = st.one_of(st.sampled_from(["3", "4", "5", "32"]), INTS)
SWEEP_VALUES = st.sampled_from(["1,3", "1,2", "2,4", "0.01,0.04", "2", "x", ","])
L0_LISTS = st.one_of(L0, st.sampled_from(["2,4", "2,4,6,8", "4,3", "0,2", "2,,6"]))
OVERRIDES = st.sampled_from(
    [
        "l0=4",
        "l0=6",
        "l0=3",
        "l0=0",
        "n0=2",
        "n0=0",
        "n0=-1",
        "n0=x",
        "g_rad_s=nan",
        "g_rad_s=inf",
        "detuning_rad_s=0",
        "detuning_2pi_hz=-80e6",
        "mass_kg=-1",
        "wavelength_m=abc",
        "bogus=1",
        "l0",
    ]
)

# simulate's --samples at and just above its cap, patched down to this
SAMPLES_CAP = 24
SIM_SAMPLES = st.one_of(st.sampled_from([str(SAMPLES_CAP), str(SAMPLES_CAP + 1)]), INTS)

# simulate's durations and cycle counts reach the bounds of a float
FLOATS = st.sampled_from(["0", "-0.0", "1e-300", "1e20", "1e308", "inf", "nan"])
CYCLES = st.one_of(FLOATS, st.sampled_from(["1", "2.5", "-1"]))
# a switch takes no value
SWITCH = st.none()
# parameter files: up to three key = value lines, a key possibly repeated
CONFIG_VALUES = st.sampled_from(["2", "4", "1.5", "-80e6", "0", "nan", "inf", "-inf", "1e400",
                                 "abc", ""])
CONFIG = st.lists(st.tuples(st.sampled_from(params.CONFIG_KEYS), CONFIG_VALUES), max_size=3).map(
    lambda lines: "".join(f"{key} = {value}\n" for key, value in lines)
)
COMMON_FLAGS = {"--set": OVERRIDES, "--config": CONFIG}
SCENARIO_FLAGS = {
    "--s": S,
    "--r": R,
    **COMMON_FLAGS,
    "--engine": st.sampled_from(["ladder", "adiabatic", "x"]),
    "--basis": st.sampled_from(["superposition", "computational", "x"]),
    "--outcome": _mostly("0", "1"),
    "--include-stark": SWITCH,
    "--fit-phase": SWITCH,
}

# flags each command takes, with the values drawn for them
FLAGS = {
    "bell": SCENARIO_FLAGS,
    "ghz": {**SCENARIO_FLAGS, "--k": K},
    "coeffs": {"--l0": L0_LISTS, "--n": st.sampled_from(["0,1,2", "1", "3", "-1", "y"]),
               **COMMON_FLAGS},
    "validate": {"--l0": L0, "--s": S, **COMMON_FLAGS},
    "sweep": {"--var": st.sampled_from(["chi_ratio", "l0", "n0", "s", "mass"]),
              "--values": SWEEP_VALUES, **COMMON_FLAGS},
    "simulate": {"--l0": L0, **COMMON_FLAGS, "--n": st.just("0"), "--duration": FLOATS,
                 "--cycles": CYCLES, "--samples": SIM_SAMPLES},
}
# what every example of a command starts with: simulate's few samples keep
# it cheap, and validate and sweep always draw an ignored --samples
START = {"sweep": ["--var", "s", "--values", "1,3"], "simulate": ["--samples", "16"]}
# freq_rad_s is the ladder's eigenvalue splitting; over l0 <= 12 and good-regime
# ratios it was within 1.2e-7 of |b_n|, and the resolution guard keeps |b_n|
# above 1e3 times the splitting's rounding error
FREQ_TOL = 1e-3


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    ratio = 10.0 ** draw(st.floats(-3.0, 2.0))  # log-uniform over 1e-3..100
    argv = [command, "--chi-ratio", repr(ratio), *START.get(command, [])]
    if command in ("validate", "sweep"):
        argv += ["--samples", draw(SAMPLES)]
    flags = FLAGS[command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3)):
        value = draw(flags[flag])
        argv += [flag] if value is None else [flag, value]
    return argv


def _run(argv):
    """(exit code, stdout, stderr) of cli.main(argv), with every warning it
    raises appended to stderr, where a fresh process would print it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    shown = [warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught]
    return code, out.getvalue(), err.getvalue() + "".join(shown)


def _with_config_files(argv, directory):
    """argv with each --config text written to a file in directory and replaced by its path."""
    argv = list(argv)
    for i, flag in enumerate(argv[:-1]):
        if flag == "--config":
            path = Path(directory) / f"config{i}.txt"
            path.write_text(argv[i + 1])
            argv[i + 1] = str(path)
    return argv


def _check_converged_table(argv, text):
    """Every row's a_n is a fixed point of the dense partition of its ladder."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    overrides = [v for k, v in zip(argv[1::2], argv[2::2]) if k == "--set"]
    p = params.resolve_params("rubidium", opts.get("--config"), overrides)
    d = params.derive(params.with_regime_ratio(p, float(opts["--chi-ratio"])))
    for row in csv.DictReader(io.StringIO(text)):
        n, l0, a = int(row["n"]), int(row["l0"]), float(row["a_n_rad_s"])
        l_min, l_max = ladder.default_range(l0)
        orders, h = oracles.dense_matrix(d.recoil_frequency, d.chi, n, l0, l_min, l_max)
        alpha = oracles.partition_self_energy(h, orders, l0, a)
        assert alpha == pytest.approx(a, rel=1e-9), (argv, row)


def _check_populations(argv, text):
    """No row of a ladder time series holds more than the atom."""
    for row in csv.DictReader(io.StringIO(text)):
        total = math.fsum(float(v) for k, v in row.items() if k.startswith("p_"))
        assert total <= 1.0 + 1e-9, (argv, row)


def _check_ladder_report(argv, text):
    """The field outcomes of a ladder report exhaust the state, and its leakage
    is a probability."""
    rep = json.loads(text)
    total = math.fsum(rep["outcome_probabilities"].values())
    assert abs(total - 1.0) <= 1e-9, (argv, total)
    assert 0.0 <= rep["leakage"] <= 1.0, (argv, rep["leakage"])


def _last(argv, flag):
    """The value argparse keeps for flag: its last occurrence, or None."""
    values = [value for key, value in zip(argv, argv[1:]) if key == flag]
    return values[-1] if values else None


def _check_measured_frequency(argv, points):
    """A good-regime point with a measured frequency measured the predicted one."""
    for point in points:
        if point.get("verdict") == "good" and point.get("freq_ratio") not in (None, ""):
            assert abs(float(point["freq_ratio"]) - 1.0) < FREQ_TOL, (argv, point)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(invocations())
@example(["coeffs", "--chi-ratio", "10", "--l0", "4"])
@example(["bell", "--chi-ratio", "0.02", "--set", "l0=4"])
@example(["validate", "--chi-ratio", "0.02", "--l0", "12", "--samples", "32"])
@example(["validate", "--chi-ratio", "0.02", "--samples", "3"])
@example(["sweep", "--chi-ratio", "0.02", "--var", "s", "--values", "1", "--samples", "3"])
@example(["simulate", "--duration", "1e308", "--samples", "3"])
@example(["simulate", "--n", "0", "--duration", "1e308", "--samples", "3"])
@example(["simulate", "--chi-ratio", "0.02", "--cycles", "1e308", "--samples", "3"])
@example(["simulate", "--chi-ratio", "0.02", "--cycles", "2.5", "--samples", "5"])
@example(["bell", "--chi-ratio", "0.02", "--engine", "ladder", "--include-stark",
          "--basis", "computational", "--outcome", "1", "--fit-phase"])
@example(["bell", "--chi-ratio", "0.005", "--engine", "ladder", "--set", "l0=8"])
@example(["bell", "--chi-ratio", "0.02", "--engine", "ladder", "--r", "-1"])
@example(["ghz", "--chi-ratio", "0.02", "--engine", "ladder", "--k", str(entangle.MAX_ATOMS)])
@example(["ghz", "--chi-ratio", "0.02", "--engine", "ladder", "--k", str(entangle.MAX_ATOMS + 1)])
@example(["bell", "--chi-ratio", "0.05", "--engine", "ladder", "--mode", "same", "--s", "3",
          "--r", "1", "--set", "l0=4", "--set", "detuning_2pi_hz=-80e6"])
@example(["ghz", "--chi-ratio", "0.02", "--engine", "ladder", "--k", "4", "--basis", "computational",
          "--outcome", "1", "--set", "l0=6"])
@example(["simulate", "--chi-ratio", "0.02", "--samples", str(SAMPLES_CAP)])
@example(["simulate", "--chi-ratio", "0.02", "--samples", str(SAMPLES_CAP + 1)])
@example(["validate", "--chi-ratio", "0.02", "--config", "g_rad_s = nan\n"])
@example(["bell", "--chi-ratio", "0.02", "--engine", "ladder", "--config", "detuning_rad_s = inf\n"])
@example(["coeffs", "--chi-ratio", "0.02", "--config", "l0 = 1e400\nn0 = \n"])
@example(["simulate", "--chi-ratio", "0.02", "--samples", "3", "--config", "mass_kg = 1e400\n"])
@example(["sweep", "--chi-ratio", "0.02", "--var", "s", "--values", "1", "--config",
          "wavelength_m = abc\ng_2pi_hz = -inf\n"])
def test_cli_exit_codes_and_no_traceback(argv):
    with tempfile.TemporaryDirectory() as directory, \
            mock.patch.object(cli, "MAX_SAMPLES", SAMPLES_CAP):
        argv = _with_config_files(argv, directory)
        code, out, err = _run(argv)
        _check_output(argv, code, out, err)


def _check_output(argv, code, out, err):
    """The exit code, the stderr and, on exit 0, the output of one invocation (module docstring)."""
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_PHYSICS), (argv, code, err)
    assert "Traceback" not in err
    assert "Warning" not in err, (argv, err)
    if code != cli.EXIT_OK:
        return
    if argv[0] == "coeffs":
        _check_converged_table(argv, out)
    if argv[0] == "simulate":
        _check_populations(argv, out)
        assert len(out.splitlines()) - 1 <= SAMPLES_CAP, argv
    if argv[0] in ("bell", "ghz") and _last(argv, "--engine") == "ladder":
        _check_ladder_report(argv, out)
    if argv[0] == "validate":
        _check_measured_frequency(argv, [json.loads(out)])
    elif argv[0] == "sweep":
        _check_measured_frequency(argv, csv.DictReader(io.StringIO(out)))
