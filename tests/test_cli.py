import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import braggbell
import oracles
from braggbell import adiabatic, cli, entangle, ladder, params
from braggbell.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- preset / coeffs ---------------------------------------------------------


def test_preset_list(capsys):
    code, out, _ = run(capsys, "preset", "list")
    assert code == 0
    assert "rubidium" in out.splitlines()


def test_preset_show_json(capsys):
    code, out, _ = run(capsys, "preset", "show", "rubidium")
    assert code == 0
    payload = json.loads(out)
    assert payload["physical"]["mass_kg"] == 1.42e-25
    assert payload["derived"]["chi_rad_s"] == pytest.approx(492.6017280828795)
    assert payload["regime_verdict"] == "good"


def test_preset_show_unknown(capsys):
    code, _, err = run(capsys, "preset", "show", "cesium")
    assert code == 1
    assert "unknown preset" in err


def test_preset_default_name_is_rubidium(capsys):
    assert run(capsys, "preset", "show") == run(capsys, "preset", "show", "rubidium")


@pytest.mark.parametrize(
    "argv",
    [
        ["show", "--set", "n0=5"],
        ["show", "--chi-ratio", "3"],
        ["show", "--preset", "rubidium"],
        ["list", "--config", "/nonexistent"],
    ],
)
def test_preset_refuses_parameter_flags(capsys, argv):
    # preset prints a named preset as stored; it takes no overrides to ignore
    code, out, err = run(capsys, "preset", *argv)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err


def _resonant_pair(n, l0):
    """(mean, splitting) of the rubidium ladder's resonant pair, dense oracle."""
    d = params.derive(params.rubidium_preset())
    _, h = oracles.dense_matrix(d.recoil_frequency, d.chi, n, l0, *ladder.default_range(l0))
    return oracles.resonant_pair(h)


def test_coeffs_table(capsys):
    code, out, _ = run(capsys, "coeffs", "--l0", "2,4", "--n", "1,2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,l0,a_n_rad_s,b_n_rad_s,pi_pulse_s"
    assert len(lines) == 5
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(row["n"], row["l0"]) for row in rows] == [("1", "2"), ("2", "2"), ("1", "4"), ("2", "4")]
    for row in rows:
        mean, splitting = _resonant_pair(int(row["n"]), int(row["l0"]))
        assert float(row["a_n_rad_s"]) == pytest.approx(mean, rel=1e-4)
        assert float(row["b_n_rad_s"]) == pytest.approx(splitting, rel=1e-8)
        assert float(row["pi_pulse_s"]) == pytest.approx(math.pi / float(row["b_n_rad_s"]), rel=1e-14)


def test_coeffs_bad_list(capsys):
    code, _, err = run(capsys, "coeffs", "--l0", "2;4")
    assert code == 1
    assert "comma-separated" in err


# --- simulate ----------------------------------------------------------------


def test_simulate_row_count(capsys):
    code, out, _ = run(capsys, "simulate", "--cycles", "1", "--samples", "17")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 18
    assert lines[0].startswith("t_s,tau,p_")


def test_simulate_duration_zero_gives_every_sample_at_time_zero(capsys):
    # a zero duration is propagated like any other: --samples rows, each the
    # t = 0 row of a nonzero duration
    code, out, _ = run(capsys, "simulate", "--duration", "0", "--samples", "50")
    assert code == 0
    header, *rows = out.strip().split("\n")
    code, ref, _ = run(capsys, "simulate", "--duration", "0.01", "--samples", "9")
    assert code == 0
    assert ref.split("\n")[:2] == [header, rows[0]]
    assert rows == rows[:1] * 50
    p_0 = float(rows[0].split(",")[header.split(",").index("p_0")])
    assert abs(p_0 - 1.0) <= 1e-15  # test_evolve_at_time_zero_is_the_initial_state's bound


def test_simulate_duration_zero_is_refused_like_any_duration(capsys):
    # the resolution guard refuses the l0 = 10 ladder before anything is propagated
    argv = ("simulate", "--l0", "10", "--chi-ratio", "0.05", "--duration")
    code, out, err = run(capsys, *argv, "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: flip frequency |b_n|")
    assert run(capsys, *argv, "1e-9") == (code, out, err)


def test_simulate_vacuum_rows_identical(capsys):
    code, out, _ = run(capsys, "simulate", "--n", "0", "--duration", "0.01", "--samples", "9")
    assert code == 0
    lines = out.strip().split("\n")
    pop_rows = {line.split(",", 2)[2] for line in lines[1:]}
    assert len(pop_rows) == 1  # populations frozen without photons


def test_simulate_peak_transfer(capsys):
    code, out, _ = run(capsys, "simulate", "--cycles", "0.5", "--samples", "101")
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    col = header.index("p_-2")
    last = lines[-1].split(",")
    assert float(last[col]) > 0.99


def test_simulate_sidecar(tmp_path, capsys):
    out_file = tmp_path / "run.csv"
    code, _, _ = run(capsys, "simulate", "--cycles", "1", "--samples", "5", "--output", str(out_file))
    assert code == 0
    assert out_file.exists()
    meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
    assert meta["command"] == "simulate"
    assert meta["samples"] == 5
    assert meta["regime_verdict"] == "good"
    assert "duration_s" in meta and "l_range" in meta


@pytest.mark.parametrize("samples", ["0", "1", "-3"])
def test_simulate_refuses_too_few_samples(tmp_path, capsys, samples):
    # one sample would be t = 0 only: linspace(0, T, 1) drops the endpoint T
    out_file = tmp_path / "run.csv"
    code, _, err = run(
        capsys, "simulate", "--cycles", "1", "--samples", samples, "--output", str(out_file)
    )
    assert code == 1
    assert err.startswith(f"error: --samples must be >= 2, got {samples}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("samples", ["1000001", "1000000000"])
def test_simulate_refuses_too_many_samples_before_allocating(tmp_path, capsys, monkeypatch, samples):
    def no_grid(*args, **kwargs):
        raise AssertionError("no time grid may be built for a refused --samples")

    monkeypatch.setattr(np, "linspace", no_grid)
    out_file = tmp_path / "run.csv"
    code, _, err = run(capsys, "simulate", "--samples", samples, "--output", str(out_file))
    assert code == 1
    assert err == f"error: --samples must be <= 1000000, got {samples}\n"
    assert list(tmp_path.iterdir()) == []


def test_simulate_samples_cap_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_SAMPLES", 5)
    assert run(capsys, "simulate", "--samples", "5")[0] == 0
    assert run(capsys, "simulate", "--samples", "6")[0] == 1


def test_simulate_regime_gate(capsys):
    code, _, err = run(capsys, "simulate", "--chi-ratio", "0.5", "--cycles", "1")
    assert code == 2
    assert "Bragg" in err
    code, _, err = run(capsys, "simulate", "--chi-ratio", "0.1", "--cycles", "0.1")
    assert code == 0
    assert "marginal" in err


def test_simulate_include_stark_flag_is_gone(capsys):
    # a common diagonal shift is a global phase, which no population shows
    code, _, err = run(capsys, "simulate", "--include-stark", "--samples", "5")
    assert code == 1
    assert "unrecognized arguments: --include-stark" in err


def test_simulate_cycles_needs_coupling(capsys):
    code, _, err = run(capsys, "simulate", "--n", "0", "--cycles", "1")
    assert code == 1
    assert "duration" in err


def test_simulate_refuses_unresolvable_coupling(tmp_path, capsys):
    # eigh gets the resonant amplitudes here wrong by ~7e-2, so nothing is written
    out_file = tmp_path / "f"
    code, out, err = run(
        capsys, "simulate", "--l0", "10", "--chi-ratio", "0.05", "--cycles", "1",
        "--output", str(out_file),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: flip frequency |b_n| = ")
    assert "the smallest splitting the eigen-solver resolves" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# --- bell / ghz --------------------------------------------------------------


def test_bell_adiabatic_report(capsys):
    code, out, _ = run(capsys, "bell", "--mode", "opposite", "--s", "1", "--r", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["scenario"] == "bell-opposite"
    assert rep["target_kind"] == "psi_plus"
    assert rep["fidelity"] == pytest.approx(1.0, abs=1e-12)
    a, b = rep["parameters"]["a_rad_s"], rep["parameters"]["b_rad_s"]
    mean, splitting = _resonant_pair(1, 2)
    assert a == pytest.approx(mean, rel=1e-4)
    assert b == pytest.approx(splitting, rel=1e-8)
    # psi_plus: the scheduled phase is the phase the prepared state carries
    gap = np.exp(-1j * rep["phase_reference_rad"]) - np.exp(-1j * rep["phase_measured_rad"])
    assert abs(gap) < 1e-9
    assert set(rep["outcome_probabilities"]) == {"plus", "minus"}


def test_bell_same_r1_kind(capsys):
    code, out, _ = run(capsys, "bell", "--mode", "same", "--r", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["target_kind"] == "phi_minus"
    assert rep["fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_bell_ladder_engine(capsys):
    code, out, _ = run(capsys, "bell", "--engine", "ladder")
    assert code == 0
    rep = json.loads(out)
    assert rep["fidelity"] > 0.95
    assert rep["concurrence"] > 0.9
    assert rep["leakage"] < 1e-4


def test_cached_parser_keeps_calls_independent(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run(capsys, "bell", "--set", "l0=4", "--set", "n0=2")
    assert code == 0
    assert json.loads(out)["parameters"]["l0"] == 4
    code, out, _ = run(capsys, "bell")
    assert code == 0
    rep = json.loads(out)["parameters"]
    preset = params.get_preset("rubidium")
    assert (rep["l0"], rep["n0"]) == (preset.l0, preset.n0)


def test_bell_rejects_even_s(capsys):
    code, _, err = run(capsys, "bell", "--s", "2")
    assert code == 1
    assert "odd" in err


def test_validate_rejects_even_s(capsys):
    code, out, err = run(capsys, "validate", "--s", "2")
    assert code == 1
    assert out == ""
    assert err == "error: s must be a positive odd integer, got 2\n"


def test_bell_regime_violation(capsys):
    code, _, err = run(capsys, "bell", "--chi-ratio", "0.5")
    assert code == 2


def test_ghz_report(capsys):
    code, out, _ = run(capsys, "ghz", "--k", "3", "--engine", "ladder")
    assert code == 0
    rep = json.loads(out)
    assert rep["scenario"] == "ghz"
    assert rep["fidelity"] > 0.9
    assert "ghz_collapse" in rep
    assert rep["ghz_collapse"]["x_plus"]["concurrence"] > 0.9


def test_ghz_k_bounds(capsys):
    code, _, err = run(capsys, "ghz", "--k", "2")
    assert code == 1
    code, _, _ = run(capsys, "ghz", "--k", "11")
    assert code == 1


# --- validate ----------------------------------------------------------------


def test_validate_good_regime(capsys):
    code, out, _ = run(capsys, "validate")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "good"
    assert 0.98 <= rep["freq_ratio"] <= 1.02
    assert rep["pop_dev_bound"] < 1e-2
    assert 0.0 < rep["mean_leakage"] <= rep["leakage_bound"] < 0.02
    assert rep["bell_fidelity"] > 0.95
    assert "shift_comparison" not in rep  # one reduction, no conventions to compare


@pytest.mark.parametrize("argv", [("simulate",), ("validate",), ("sweep", "--var", "s", "--values", "1")])
def test_guard_flag_is_gone(capsys, argv):
    # the ladder range is fixed by l0 (params.default_range); no command sets it
    code, out, err = run(capsys, *argv, "--guard", "8")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --guard" in err


def test_shift_mode_flag_is_gone(capsys):
    for command in ("bell", "ghz", "coeffs"):
        code, _, err = run(capsys, command, "--shift-mode", "quadratic")
        assert code == 1
        assert "unrecognized arguments: --shift-mode" in err


def test_validate_violated_regime(capsys):
    code, out, err = run(capsys, "validate", "--chi-ratio", "0.5")
    assert code == 2
    rep = json.loads(out)
    assert rep["verdict"] == "violated"
    assert "leakage_bound" in rep  # numbers still reported
    # the Bell fidelity is reported outside the regime as well
    assert rep["bell_fidelity"] == pytest.approx(0.9999981133742121, rel=0, abs=1e-12)


def test_validate_names_every_reason_on_stderr(capsys):
    # outside the regime and truncated: both reasons reach stderr, the regime first
    code, out, err = run(capsys, "validate", "--chi-ratio", "2.35")
    assert code == 2
    rep = json.loads(out)
    assert rep["verdict"] == "violated"
    assert err.splitlines() == ["regime violated: chi*n/w_rec = 2.35", f"error: {rep['error']}"]
    assert rep["error"].startswith("ladder truncation: ")
    # either reason alone prints one line
    assert run(capsys, "validate", "--chi-ratio", "0.5")[2].splitlines() == [
        "regime violated: chi*n/w_rec = 0.5"
    ]
    err = run(capsys, "validate", "--l0", "8", "--chi-ratio", "0.02")[2]
    assert len(err.splitlines()) == 1 and err.startswith("error: ladder resolution: ")


def test_validate_l0_4_shift_block(capsys):
    code, out, _ = run(capsys, "validate", "--l0", "4", "--chi-ratio", "0.02")
    assert code == 0
    rep = json.loads(out)
    assert "shift_comparison" not in rep
    d = params.derive(params.with_regime_ratio(params.rubidium_preset(), 0.02))
    _, h = oracles.dense_matrix(d.recoil_frequency, d.chi, 1, 4, *ladder.default_range(4))
    mean, splitting = oracles.resonant_pair(h)
    assert rep["a_rad_s"] == pytest.approx(mean, rel=1e-4)
    # b_n < 0 at l0=4; validate reports the flip rate, which the ladder shows
    assert rep["b_rad_s"] == pytest.approx(splitting, rel=1e-8)
    assert rep["freq_ratio"] == pytest.approx(1.0, abs=1e-3)


def test_validate_has_no_photon_number_flag(capsys):
    # --set n0=N sets the photon number; --chi-ratio then rescales g for it
    code, out, err = run(capsys, "validate", "--n", "2")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --n" in err


@pytest.mark.parametrize("l0", [2, 4, 6])
def test_validate_bell_fidelity_is_the_ladder_scenario(l0):
    # both build the opposite-incidence state through entangle.prepare from the
    # ladder's pair at t1; validate reads it off its one decomposition
    p = params.with_regime_ratio(replace(params.rubidium_preset(), l0=l0), 0.02)
    point = cli.validate_point(p)
    rep = entangle.run_scenario(p, engine="ladder", fit_phase=True)
    assert point["bell_fidelity"] == pytest.approx(rep.fidelity, rel=0, abs=1e-13)


def test_validate_bell_fidelity_matches_dense_ladder(capsys):
    # the Bell fidelity comes from the l0 = 4 ladder, orders -12..8:
    # a dense expm on it, composed with np.kron, projected on
    # (|0> + |n0>)/sqrt2 and scored against the best-phase psi target
    code, out, _ = run(capsys, "validate", "--l0", "4")
    assert code == 0
    rep = json.loads(out)
    d = params.derive(params.rubidium_preset())
    orders, h = oracles.dense_matrix(d.recoil_frequency, d.chi, 1, 4, -12, 8)
    v = oracles.propagate_expm(h, oracles.psi0(orders), math.pi / rep["b_rad_s"])
    pair = v[[list(orders).index(0), list(orders).index(-4)]]
    joint = oracles.kron_product_state([[(1, 0), (0, 1)], [pair, pair[::-1]]], [1.0, 1.0])
    post = joint[0] + joint[1]
    post /= np.linalg.norm(post)
    expect = (abs(post[0b01]) + abs(post[0b10])) ** 2 / 2.0
    assert rep["bell_fidelity"] == pytest.approx(expect, rel=0, abs=1e-13)


@pytest.mark.parametrize("guard", [6, 20])
def test_validate_guard_sets_the_bell_fidelity_ladder(capsys, monkeypatch, guard):
    # params.GUARD is the one reach of the ladder: it truncates the ladder of
    # the Bell fidelity as well as the cycle readout. A dense expm on
    # default_range(4) at that reach, composed with np.kron, projected on
    # (|0> + |n0>)/sqrt2 and scored against the best-phase psi target
    monkeypatch.setattr(params, "GUARD", guard)
    assert ladder.default_range(4) == (-4 - guard, guard)
    code, out, _ = run(capsys, "validate", "--l0", "4")
    assert code == 0
    rep = json.loads(out)
    d = params.derive(params.rubidium_preset())
    orders, h = oracles.dense_matrix(
        d.recoil_frequency, d.chi, 1, 4, *ladder.default_range(4)
    )
    v = oracles.propagate_expm(h, oracles.psi0(orders), math.pi / rep["b_rad_s"])
    pair = v[[list(orders).index(0), list(orders).index(-4)]]
    joint = oracles.kron_product_state([[(1, 0), (0, 1)], [pair, pair[::-1]]], [1.0, 1.0])
    post = joint[0] + joint[1]
    post /= np.linalg.norm(post)
    expect = (abs(post[0b01]) + abs(post[0b10])) ** 2 / 2.0
    assert rep["bell_fidelity"] == pytest.approx(expect, rel=0, abs=1e-13)


# --- sweep -------------------------------------------------------------------


def test_sweep_csv_shape(capsys):
    code, out, _ = run(
        capsys, "sweep", "--var", "chi_ratio", "--values", "0.01,0.02"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
    assert len(lines) == 3
    assert lines[1].startswith("chi_ratio,0.01,")


def test_sweep_confinement_monotone(capsys):
    code, out, _ = run(
        capsys, "sweep", "--var", "chi_ratio", "--values", "0.01,0.02,0.05,0.1",
    )
    assert code == 0
    lines = out.strip().split("\n")
    for name in ("mean_leakage", "leakage_bound"):
        col = cli.SWEEP_COLUMNS.index(name)
        vals = [float(line.split(",")[col]) for line in lines[1:]]
        assert all(a < b for a, b in zip(vals, vals[1:])), name


def test_sweep_l0_coupling_monotone(capsys):
    code, out, _ = run(
        capsys, "sweep", "--var", "l0", "--values", "2,4,6", "--chi-ratio", "0.02",
    )
    assert code == 0
    lines = out.strip().split("\n")
    col = cli.SWEEP_COLUMNS.index("b_rad_s")
    vals = [float(line.split(",")[col]) for line in lines[1:]]
    assert vals[0] > vals[1] > vals[2]


def test_sweep_single_point_matches_validate(capsys):
    code_v, out_v, _ = run(capsys, "validate", "--chi-ratio", "0.02")
    assert code_v == 0
    rep = json.loads(out_v)
    code_s, out_s, _ = run(
        capsys, "sweep", "--var", "chi_ratio", "--values", "0.02", "--format", "json",
    )
    assert code_s == 0
    point = json.loads(out_s)[0]
    for key in ("b_rad_s", "freq_rad_s", "pop_dev_bound", "mean_leakage", "bell_fidelity"):
        assert point[key] == rep[key], key


def test_sweep_bad_point_becomes_error_row(capsys):
    code, out, _ = run(
        capsys, "sweep", "--var", "l0", "--values", "2,3,4", "--format", "json",
    )
    assert code == 0
    points = json.loads(out)
    assert [pt["value"] for pt in points] == [2, 3, 4]
    assert "l0 must be a positive even integer" in points[1]["error"]
    assert "error" not in points[0] and "error" not in points[2]
    assert points[2]["b_rad_s"] > 0


def test_sweep_csv_error_column_keeps_the_reason(capsys):
    code, out, _ = run(capsys, "sweep", "--var", "l0", "--values", "2,3,4")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["value"] for row in rows] == ["2", "3", "4"]
    assert rows[1]["error"] == "l0 must be a positive even integer, got 3"
    assert rows[0]["error"] == rows[2]["error"] == ""
    assert float(rows[2]["b_rad_s"]) > 0


def test_sweep_even_s_becomes_error_row(capsys):
    code, out, _ = run(capsys, "sweep", "--var", "s", "--values", "1,2,3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["value"] for row in rows] == ["1", "2", "3"]
    assert rows[1]["error"] == "s must be a positive odd integer, got 2"
    assert rows[1]["bell_fidelity"] == rows[1]["b_rad_s"] == ""
    assert rows[0]["error"] == rows[2]["error"] == ""
    assert float(rows[0]["bell_fidelity"]) > 0.99 and float(rows[2]["bell_fidelity"]) > 0.99


def test_norm_drift_is_a_physics_error(capsys, monkeypatch):
    # no real propagation drifts by 1e-9; a zero tolerance makes every one refuse
    monkeypatch.setattr(ladder, "NORM_TOL", 0.0)
    code, out, err = run(capsys, "bell", "--engine", "ladder")
    assert code == 2
    assert out == ""
    assert err.startswith("error: norm drift ")
    assert "Traceback" not in err
    code, out, _ = run(
        capsys, "sweep", "--var", "chi_ratio", "--values", "0.01,0.02", "--format", "json",
    )
    assert code == 0
    points = json.loads(out)
    assert [pt["value"] for pt in points] == [0.01, 0.02]
    assert all(pt["error"].startswith("norm drift ") for pt in points)


@pytest.mark.parametrize("l0, ratio", [("8", "0.005"), ("10", "0.02"), ("12", "0.02")])
def test_validate_refuses_unresolvable_coupling(capsys, l0, ratio):
    code, out, err = run(capsys, "validate", "--l0", l0, "--chi-ratio", ratio)
    assert code == 2
    rep = json.loads(out)
    assert rep["verdict"] == "good"
    assert rep["error"].startswith("ladder resolution: ")
    assert "freq_rad_s" not in rep and "bell_fidelity" not in rep
    assert err.startswith("error: ladder resolution: ")
    assert "Traceback" not in err


def test_sweep_refuses_unresolvable_points(capsys):
    code, out, _ = run(
        capsys, "sweep", "--var", "l0", "--values", "2,8,10,12", "--chi-ratio", "0.005",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["error"] == "" and float(rows[0]["freq_ratio"]) == pytest.approx(1.0, abs=1e-3)
    for row in rows[1:]:
        assert row["error"].startswith("ladder resolution: ")
        assert row["freq_rad_s"] == row["bell_fidelity"] == ""


def test_ladder_bell_refuses_unresolvable_coupling(capsys):
    code, out, err = run(capsys, "bell", "--engine", "ladder", "--set", "l0=10", "--chi-ratio", "0.02")
    assert code == 2
    assert out == ""
    assert err.startswith("error: flip frequency")
    assert "Traceback" not in err


UNRESOLVABLE = ("--chi-ratio", "0.05")  # with l0 = 10


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--l0", "10", "--cycles", "1", *UNRESOLVABLE],
        ["validate", "--l0", "10", *UNRESOLVABLE],
        ["bell", "--engine", "ladder", "--set", "l0=10", *UNRESOLVABLE],
    ],
    ids=["simulate", "validate", "bell"],
)
def test_ladder_commands_refuse_the_same_points(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    reason = err[err.index("flip frequency |b_n| = "):]
    assert reason == (
        "flip frequency |b_n| = 3.034e-09 rad/s is not above 7.326e-07 rad/s, the smallest "
        "splitting the eigen-solver resolves in the l0=10 ladder; lower l0 or raise the "
        "coupling\n"
    )


def test_coeffs_nonconvergent_shift_is_a_physics_error(capsys):
    code, out, err = run(capsys, "coeffs", "--chi-ratio", "10", "--l0", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error: level shift a_1 at l0=4 did not converge")
    assert "Traceback" not in err


def test_sweep_nonconvergent_point_becomes_error_row(capsys):
    code, out, _ = run(
        capsys, "sweep", "--var", "chi_ratio", "--values", "0.02,10", "--set", "l0=4",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["error"] == "" and float(rows[0]["freq_ratio"]) == pytest.approx(1.0, abs=1e-3)
    assert rows[1]["error"].startswith("level shift a_1 at l0=4 did not converge")


def test_sweep_empty_values(capsys):
    code, _, err = run(capsys, "sweep", "--var", "l0", "--values", ",")
    assert code == 1


def test_sweep_unknown_var(capsys):
    code, _, _ = run(capsys, "sweep", "--var", "mass", "--values", "1")
    assert code == 1


# --- config plumbing ---------------------------------------------------------


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n0 = 2\n")
    code, out, _ = run(capsys, "coeffs", "--config", str(cfg))
    assert code == 0
    assert out.strip().split("\n")[1].startswith("2,2,")
    code, out, _ = run(capsys, "coeffs", "--config", str(cfg), "--set", "n0=3")
    assert out.strip().split("\n")[1].startswith("3,2,")


def test_env_var_config(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("l0 = 4\n")
    monkeypatch.setenv("BRAGG_CONFIG", str(cfg))
    code, out, _ = run(capsys, "coeffs")
    assert code == 0
    assert out.strip().split("\n")[1].split(",")[1] == "4"
    # explicit --config wins over the environment
    other = tmp_path / "other.txt"
    other.write_text("l0 = 6\n")
    code, out, _ = run(capsys, "coeffs", "--config", str(other))
    assert out.strip().split("\n")[1].split(",")[1] == "6"


def test_missing_config_is_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "coeffs", "--config", str(tmp_path / "nope.txt"))
    assert code == 3


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("tuning = 1\n")
    code, _, err = run(capsys, "coeffs", "--config", str(cfg))
    assert code == 1
    assert "unknown key" in err


def test_conflicting_spellings(capsys):
    code, _, err = run(capsys, "coeffs", "--set", "g_rad_s=1.0", "--set", "g_2pi_hz=1.0")
    assert code == 1
    assert "both set" in err


def test_unwritable_output(capsys):
    code, _, _ = run(capsys, "coeffs", "--output", "/proc/definitely/not/here.csv")
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--samples", "1"),
        ("simulate", "--samples", "0"),
        ("validate", "--l0", "3"),
        ("bell", "--set", "g_rad_s=nan"),
        ("validate", "--set", "detuning_rad_s=inf"),
        ("bell", "--set", "wavelength_m=1e300"),
        ("bell", "--set", "g_rad_s=1e300"),
        ("simulate", "--duration", "inf"),
        ("simulate", "--duration", "nan"),
        ("simulate", "--cycles", "inf"),
        ("validate", "--s", "0"),
        ("sweep", "--var", "s", "--values", "1", "--set", "l0=3"),
        ("sweep", "--var", "chi_ratio", "--values", "0.01,x"),
        # no flip rate, so no pulse time, as for bell
        ("validate", "--set", "g_rad_s=0"),
        ("bell", "--set", "g_rad_s=0"),
        # an empty list is refused, not read as the preset's value or as no rows
        ("coeffs", "--l0", ","),
        ("coeffs", "--n", ","),
        ("coeffs", "--l0", ""),
    ],
)
def test_bad_input_is_usage_error_without_traceback(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def _canonical(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("preset", "show"),
        ("bell",),
        ("bell", "--engine", "ladder", "--include-stark", "--fit-phase"),
        ("ghz", "--k", "4", "--basis", "computational"),
        ("validate",),
        ("sweep", "--var", "l0", "--values", "2,3", "--format", "json"),
    ],
)
def test_json_output_round_trips_to_the_same_text(capsys, argv):
    # every JSON document is json.dumps(..., sort_keys=True, indent=2) text
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == _canonical(out)


def test_simulate_sidecar_round_trips_to_the_same_text(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert run(capsys, "simulate", "--samples", "8", "--output", str(out))[0] == 0
    meta = (tmp_path / "run.csv.meta.json").read_text()
    assert meta == _canonical(meta)


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency (the oracles); the CLI must not import it
    src = str(Path(braggbell.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, braggbell.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    res = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# Imports the numpy-free modules, runs each command in-process and prints
# whether numpy was loaded before the first command and after each one.
_NUMPY_PROBE = """
import contextlib, io, json, sys
import braggbell.adiabatic, braggbell.cli, braggbell.entangle, braggbell.params
loaded = {"import": "numpy" in sys.modules}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = braggbell.cli.main(argv)
    loaded[" ".join(argv)] = (code, "numpy" in sys.modules)
print(json.dumps(loaded))
"""

NUMPY_FREE_COMMANDS = (
    ("preset", "list"),
    ("preset", "show"),
    ("coeffs", "--l0", "2,4,6", "--n", "1,2"),
    ("bell",),
    ("bell", "--include-stark"),
    ("bell", "--basis", "computational", "--fit-phase", "--outcome", "1"),
    ("ghz", "--k", "4"),
)


def test_numpy_loads_only_for_the_ladder():
    src = str(Path(braggbell.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != params.ENV_CONFIG_VAR}
    commands = [*NUMPY_FREE_COMMANDS, ("bell", "--engine", "ladder")]
    res = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(commands)], capture_output=True,
        text=True, env=dict(env, PYTHONPATH=path), timeout=60,
    )
    assert res.returncode == 0, res.stderr
    loaded = json.loads(res.stdout)
    assert loaded.pop("import") is False
    # the ladder engine loads numpy, so the probe can see it
    assert loaded.pop("bell --engine ladder") == [0, True]
    assert loaded == {" ".join(argv): [0, False] for argv in NUMPY_FREE_COMMANDS}


@pytest.mark.parametrize(
    "error",
    [params.RegimeError, ladder.TruncationError, ladder.ResolutionError,
     ladder.NormDriftError, adiabatic.ConvergenceError],
)
def test_every_physics_error_exits_2(capsys, monkeypatch, error):
    assert issubclass(error, params.PhysicsError)

    def fail(args):
        raise error("raised inside the handler")

    monkeypatch.setitem(cli._HANDLERS, "coeffs", fail)
    code, out, err = run(capsys, "coeffs")
    assert code == 2
    assert out == ""
    assert err == "error: raised inside the handler\n"
    assert "Traceback" not in err


def _readme_commands() -> list[list[str]]:
    """The `braggbell ...` lines of README's CLI block, without the program name."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## CLI", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("braggbell ")]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert len(commands) >= 8
    monkeypatch.chdir(tmp_path)  # simulate writes its --output here
    monkeypatch.delenv(params.ENV_CONFIG_VAR, raising=False)
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_usage_error_exit_code(capsys):
    assert main(["bogus-command"]) == 1
    assert main([]) == 1
    assert main(["--help"]) == 0


# --- determinism -------------------------------------------------------------


def test_simulate_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "simulate", "--cycles", "2", "--samples", "64",
                         "--output", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.meta.json").read_bytes() == (tmp_path / "b.csv.meta.json").read_bytes()


def test_bell_report_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "bell", "--engine", "ladder", "--output", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "sweep", "--var", "chi_ratio",
                         "--values", "0.01,0.02,0.03,0.04",
                         "--output", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv", [("validate",), ("sweep", "--var", "chi_ratio", "--values", "0.01,0.02,0.05")]
)
def test_samples_flag_of_validate_and_sweep_is_ignored(capsys, argv):
    # parsed for old command lines, read by nothing: the cycle comes from the spectrum
    outputs = {run(capsys, *argv, *extra) for extra in ((), ("--samples", "4"), ("--samples", "512"))}
    assert len(outputs) == 1
    assert next(iter(outputs))[0] == 0
