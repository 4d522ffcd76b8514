"""Property tests over the CLI argument space.

Any mix of valid and invalid flags must end in a documented exit code (0, 1
or 2; 3 needs a file system error) and never in an uncaught exception. A
coefficient table printed with exit 0 must hold a converged level shift: a
fixed point a = alpha(a) of the dense ladder partition in `oracles`. A
validate or sweep that exits 0 ran with a guard the ladder accepts, and each
of its points in the good regime measured the flip frequency it predicts:
|freq_ratio - 1| < FREQ_TOL.
"""

import contextlib
import csv
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from braggbell import cli, ladder, params

INTS = st.one_of(
    st.integers(-3, 13).map(str),
    st.sampled_from(["x", "", "1.5", "nan", "1e3"]),
)


def _mostly(*valid):
    """A valid value half the time, any integer or garbage otherwise."""
    return st.one_of(st.sampled_from(valid), INTS)


S = _mostly("1", "3", "5")
R = _mostly("0", "1", "2")
K = _mostly("3", "4", "5")
L0 = _mostly("2", "4", "6")
# both sides of the minimum (4 for each) half the time
SAMPLES = st.one_of(st.sampled_from(["3", "4", "5", "32"]), INTS)
GUARD = st.one_of(st.sampled_from(["3", "4", "5", "8"]), INTS)
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

# flags each command takes, with the values drawn for them
FLAGS = {
    "bell": {"--s": S, "--r": R, "--set": OVERRIDES},
    "ghz": {"--s": S, "--r": R, "--k": K, "--set": OVERRIDES},
    "coeffs": {"--l0": L0_LISTS, "--n": st.sampled_from(["0,1,2", "1", "3", "-1", "y"]),
               "--set": OVERRIDES},
    "validate": {"--l0": L0, "--s": S, "--set": OVERRIDES},
    "sweep": {"--var": st.sampled_from(["chi_ratio", "l0", "n0", "s", "mass"]),
              "--values": SWEEP_VALUES, "--set": OVERRIDES},
    "simulate": {"--l0": L0, "--set": OVERRIDES},
}
# what every example of a command starts with: simulate's few samples keep
# it cheap, and validate and sweep always draw their samples and guard
START = {"sweep": ["--var", "s", "--values", "1,3"], "simulate": ["--samples", "16"]}
# at 4 or more samples the measured frequency is within 3e-5 of |b_n| at every
# good-regime point these draws reach; at 3 samples freq_ratio read 3e-9
FREQ_TOL = 1e-3


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    ratio = 10.0 ** draw(st.floats(-3.0, 2.0))  # log-uniform over 1e-3..100
    argv = [command, "--chi-ratio", repr(ratio), *START.get(command, [])]
    if command in ("validate", "sweep"):
        argv += ["--samples", draw(SAMPLES), "--guard", draw(GUARD)]
    flags = FLAGS[command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3)):
        argv += [flag, draw(flags[flag])]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_converged_table(argv, text):
    """Every row's a_n is a fixed point of the dense partition of its ladder."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    overrides = [v for k, v in zip(argv[1::2], argv[2::2]) if k == "--set"]
    p = params.resolve_params("rubidium", None, overrides)
    d = params.derive(params.with_regime_ratio(p, float(opts["--chi-ratio"])))
    for row in csv.DictReader(io.StringIO(text)):
        n, l0, a = int(row["n"]), int(row["l0"]), float(row["a_n_rad_s"])
        l_min, l_max = ladder.default_range(l0)
        orders, h = oracles.dense_matrix(d.recoil_frequency, d.chi, n, l0, l_min, l_max)
        alpha = oracles.partition_self_energy(h, orders, l0, a)
        assert alpha == pytest.approx(a, rel=1e-9), (argv, row)


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
@example(["sweep", "--chi-ratio", "0.02", "--var", "s", "--values", "1", "--guard", "3"])
def test_cli_exit_codes_and_no_traceback(argv):
    code, out, err = _run(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_PHYSICS), (argv, code, err)
    assert "Traceback" not in err
    if code != cli.EXIT_OK:
        return
    if argv[0] == "coeffs":
        _check_converged_table(argv, out)
    if argv[0] in ("validate", "sweep"):
        opts = dict(zip(argv[1::2], argv[2::2]))  # the last of a repeated flag wins
        assert int(opts.get("--guard", params.DEFAULT_GUARD)) >= params.MIN_GUARD, argv
    if argv[0] == "validate":
        _check_measured_frequency(argv, [json.loads(out)])
    elif argv[0] == "sweep":
        _check_measured_frequency(argv, csv.DictReader(io.StringIO(out)))
