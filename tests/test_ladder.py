import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from braggbell import adiabatic, cli, ladder
from braggbell.ladder import (
    TruncationError,
    build_hamiltonian,
    default_range,
    evolve,
    extract_flip_frequency,
    initial_state,
    sample_evolution,
)
from braggbell.params import derive, rubidium_preset, with_regime_ratio

# frozen against the DOP853/expm oracles below; rubidium, l0=2, t = pi/chi
PI_PULSE_TRANSFER = 0.9999963864133057


def _evolve(h, d, times):
    """The guarded propagation, given the branch's flip frequency from its reduction."""
    return evolve(h, adiabatic.coeffs(h.n, h.l0, d).b_n, times)


def test_default_range_brackets_resonant_pair():
    assert default_range(2) == (-10, 8)
    assert default_range(4) == (-12, 8)
    assert default_range(12) == (-20, 8)
    with pytest.raises(ValueError, match="l0 must be a positive even integer"):
        default_range(3)


def test_hamiltonian_elements(rubidium_derived):
    h = build_hamiltonian(1, 2, rubidium_derived)
    orders = np.arange(h.l_min, h.l_max + 1, 2)
    w = rubidium_derived.recoil_frequency
    for i, l in enumerate(orders):
        assert h.diagonal[i] == pytest.approx(w * l * (l + 2), rel=1e-15, abs=1e-9)
    assert np.all(h.off_diagonal == -rubidium_derived.chi / 2.0)
    # resonant pair degenerate at zero; that's the whole point of the pair
    i0 = list(orders).index(0)
    im = list(orders).index(-2)
    assert h.diagonal[i0] == 0.0
    assert h.diagonal[im] == 0.0


def test_hamiltonian_stark_uniform_shift(rubidium_derived):
    plain = build_hamiltonian(3, 2, rubidium_derived)
    stark = build_hamiltonian(3, 2, rubidium_derived, include_stark=True)
    shifted = plain.diagonal - 3 * rubidium_derived.chi
    np.testing.assert_allclose(stark.diagonal, shifted, rtol=0, atol=0)
    np.testing.assert_array_equal(stark.off_diagonal, plain.off_diagonal)


def test_hamiltonian_matrix_symmetric(rubidium_derived):
    m = build_hamiltonian(1, 2, rubidium_derived).matrix()
    assert np.array_equal(m, m.T)


def test_initial_state_is_delta(rubidium_derived):
    h = build_hamiltonian(1, 2, rubidium_derived)
    st = initial_state(h)
    assert st.shape == (h.size,)
    assert np.linalg.norm(st) == 1.0
    pops = np.abs(st) ** 2
    assert pops[h.index_of(0)] == 1.0
    assert np.all(pops[h.orders != 0] == 0.0)


def test_index_of_refuses_orders_off_the_ladder(rubidium_derived):
    h = build_hamiltonian(1, 2, rubidium_derived)
    assert [h.index_of(l) for l in h.orders] == list(range(h.size))
    assert h.index_of(-2) == h.index_of(0) - 1
    for l in (-1, 3, -12, 10):  # odd orders are not on the even ladder; the rest are outside it
        with pytest.raises(ValueError):
            h.index_of(l)


def test_pi_pulse_transfer_frozen(rubidium_derived):
    h = build_hamiltonian(1, 2, rubidium_derived)
    t1 = math.pi / rubidium_derived.chi
    out = _evolve(h, rubidium_derived, [t1])[0]
    assert abs(out[h.index_of(-2)]) ** 2 == pytest.approx(PI_PULSE_TRANSFER, abs=1e-11)


def test_propagator_vs_ode_oracle(rubidium_derived):
    w, chi = rubidium_derived.recoil_frequency, rubidium_derived.chi
    orders, h_dense = oracles.dense_matrix(w, chi, 1, 2, -10, 8)
    v0 = oracles.psi0(orders)
    t1 = math.pi / chi
    times = np.linspace(0.0, t1, 7)[1:]
    ref = oracles.propagate_ode(h_dense, v0, times)

    h = build_hamiltonian(1, 2, rubidium_derived)
    ours = sample_evolution(initial_state(h), h, times)
    assert np.max(np.abs(np.abs(ours) ** 2 - np.abs(ref) ** 2)) < 5e-11


def test_propagator_vs_expm_oracle(rubidium_derived):
    w, chi = rubidium_derived.recoil_frequency, rubidium_derived.chi
    orders, h_dense = oracles.dense_matrix(w, chi, 2, 4, -12, 8)
    v0 = oracles.psi0(orders)
    h = build_hamiltonian(2, 4, rubidium_derived)
    times = (1e-4, 3.7e-3, 0.21)
    for t, ours in zip(times, _evolve(h, rubidium_derived, times)):
        ref = oracles.propagate_expm(h_dense, v0, t)
        # amplitudes, not just populations: global phase must match too
        assert np.max(np.abs(ours - ref)) < 1e-10


def test_propagator_vs_rk4_oracle(rubidium_derived):
    w, chi = rubidium_derived.recoil_frequency, rubidium_derived.chi
    orders, h_dense = oracles.dense_matrix(w, chi, 1, 2, -10, 8)
    v0 = oracles.psi0(orders)
    t = 2.0e-3
    ref = oracles.propagate_rk4(h_dense, v0, t, steps=40000)
    out = _evolve(build_hamiltonian(1, 2, rubidium_derived), rubidium_derived, [t])[0]
    assert np.max(np.abs(out - ref)) < 1e-9


def test_norm_conserved_everywhere(rubidium_derived):
    rng = np.random.default_rng(11)
    for _ in range(20):
        ratio = rng.uniform(0.005, 0.15)
        l0 = int(rng.choice([2, 4]))
        p = with_regime_ratio(replace(rubidium_preset(), l0=l0), ratio)
        d = derive(p)
        h = build_hamiltonian(1, l0, d)
        t = rng.uniform(0.0, 4.0 * math.pi / d.chi)
        out = _evolve(h, d, [t])[0]
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_two_mode_confinement_small_ratio(rubidium_derived):
    # Bragg regime: population stays on {0, -l0} to ~(ratio/2)^2 per neighbor
    h = build_hamiltonian(1, 2, rubidium_derived)
    times = np.linspace(0.0, 2.0 * math.pi / rubidium_derived.chi, 301)
    amps = sample_evolution(initial_state(h), h, times)
    conf = np.sum(np.abs(amps[:, [h.index_of(0), h.index_of(-2)]]) ** 2, axis=1)
    assert conf.min() > 1.0 - 1e-5


def test_vacuum_hamiltonian_is_static(rubidium_derived):
    h = build_hamiltonian(0, 2, rubidium_derived)
    out = _evolve(h, rubidium_derived, [0.37])[0]
    assert abs(out[h.index_of(0)]) ** 2 == pytest.approx(1.0, abs=1e-30)
    # l=0 is also phase-stationary: diagonal element w*l*(l+l0) vanishes there
    assert out[h.index_of(0)] == pytest.approx(1.0 + 0.0j, abs=1e-14)


@pytest.mark.parametrize("include_stark", [False, True])
def test_vacuum_branch_propagates_exactly(rubidium_derived, include_stark):
    h = build_hamiltonian(0, 4, rubidium_derived, include_stark=include_stark)
    rng = np.random.default_rng(2)
    amps = rng.normal(size=h.size) + 1j * rng.normal(size=h.size)
    amps[[0, -1]] = 0.0  # keep the edge bound quiet
    st = amps / np.linalg.norm(amps)
    times = np.array([0.0, 1e-4, 3.7e-3, 0.21])
    ours = sample_evolution(st, h, times)
    d = rubidium_derived
    _, h_dense = oracles.dense_matrix(d.recoil_frequency, d.chi, 0, 4, h.l_min, h.l_max)
    for t, row in zip(times, ours):
        np.testing.assert_array_equal(row, np.exp(-1j * h.diagonal * t) * st)
        ref = oracles.propagate_expm(h_dense, st, t)
        assert np.max(np.abs(row - ref)) < 1e-12


def test_resolution_guard_threshold_is_gershgorin_norm(rubidium_derived):
    h = build_hamiltonian(1, 6, rubidium_derived)
    h_norm = np.max(np.abs(h.diagonal)) + 2.0 * abs(h.off_diagonal)
    limit = ladder.RESOLUTION_LIMIT * np.finfo(float).eps * h_norm
    with pytest.raises(ladder.ResolutionError):
        ladder.check_resolution(h, limit)
    with pytest.raises(ladder.ResolutionError):
        ladder.check_resolution(h, -0.5 * limit)
    ladder.check_resolution(h, 1.01 * limit)
    # l0=6 at chi*n0/w_rec = 0.002 is still resolved, with a margin of 1.3
    p = with_regime_ratio(replace(rubidium_preset(), l0=6), 0.002)
    d = derive(p)
    ladder.check_resolution(build_hamiltonian(1, 6, d), adiabatic.coupling(1, 6, d))


@pytest.mark.parametrize("include_stark", [False, True])
def test_resolution_guard_passes_the_uncoupled_branch(rubidium_derived, include_stark):
    # the vacuum branch has no coupling, so it has no splitting to resolve
    h = build_hamiltonian(0, 10, rubidium_derived, include_stark=include_stark)
    assert h.off_diagonal == 0.0
    ladder.check_resolution(h, 0.0)
    ladder.check_resolution(h, adiabatic.coeffs(0, 10, rubidium_derived).b_n)


def test_truncation_error_raised_when_regime_broken():
    p = with_regime_ratio(rubidium_preset(), 3.0)
    d = derive(p)
    h = build_hamiltonian(1, 2, d)
    with pytest.raises(TruncationError, match="too strong for the l0=2 ladder"):
        _evolve(h, d, [2.0 * math.pi / d.chi])


def test_marginal_ratio_survives_default_guard():
    p = with_regime_ratio(rubidium_preset(), 0.5)
    d = derive(p)
    h = build_hamiltonian(1, 2, d)
    out = _evolve(h, d, [math.pi / d.chi])[0]  # no TruncationError on the (-10, 8) ladder
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_evolve_at_time_zero_is_the_initial_state(rubidium_derived):
    h = build_hamiltonian(1, 2, rubidium_derived)
    start = _evolve(h, rubidium_derived, [0.0])[0]
    np.testing.assert_allclose(start, initial_state(h), rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        _evolve(h, rubidium_derived, [-1.0])


def test_sample_evolution_refuses_wrong_length_and_negative_times(rubidium_derived):
    h = build_hamiltonian(1, 2, rubidium_derived)
    # another ladder's state
    st = initial_state(build_hamiltonian(1, 4, rubidium_derived))
    for wrong in (st, np.ones(3), np.ones((1, h.size))):
        with pytest.raises(ValueError, match="amplitudes for the ladder"):
            sample_evolution(wrong, h, [1e-3])
    with pytest.raises(ValueError, match=">= 0"):
        sample_evolution(initial_state(h), h, [1e-3, -1e-3])


# Each guard is written so that a nan fails it; `nan > tol` is False.


def test_evolve_refuses_a_nan_time(rubidium_derived):
    h = build_hamiltonian(1, 2, rubidium_derived)
    with pytest.raises(ValueError, match=">= 0"):
        _evolve(h, rubidium_derived, [math.nan])


def test_evolve_refuses_a_drift_above_the_tolerance(monkeypatch, rubidium_derived):
    # no real propagation drifts by 1e-9; a negative tolerance refuses every one
    h = build_hamiltonian(1, 2, rubidium_derived)
    _evolve(h, rubidium_derived, [1e-3])
    monkeypatch.setattr(ladder, "NORM_TOL", -1.0)
    with pytest.raises(ladder.NormDriftError):
        _evolve(h, rubidium_derived, [1e-3])


def test_edge_bound_refuses_nan_amplitudes(rubidium_derived):
    h = build_hamiltonian(1, 2, rubidium_derived)
    s = initial_state(h)
    s[-1] = math.nan
    with pytest.raises(TruncationError):
        sample_evolution(s, h, [1e-3])


def test_norm_drift_check_refuses_a_nan_row(rubidium_derived):
    s = initial_state(build_hamiltonian(1, 2, rubidium_derived))
    amps = np.stack([s, np.full_like(s, math.nan)])
    with pytest.raises(ladder.NormDriftError):
        ladder.check_norm_drift(amps, s)


def test_resolution_guard_refuses_a_nan_flip_frequency(rubidium_derived):
    with pytest.raises(ladder.ResolutionError):
        ladder.check_resolution(build_hamiltonian(1, 2, rubidium_derived), math.nan)


def test_extract_flip_frequency_synthetic():
    w = 321.7
    t = np.linspace(0.0, 2.0 * 2.0 * math.pi / w, 400)
    p_flip = np.sin(0.5 * w * t) ** 2
    p_plus = 1.0 - p_flip
    assert extract_flip_frequency(t, p_plus, p_flip) == pytest.approx(w, rel=1e-9)


def _noisy_flip_series():
    rng = np.random.default_rng(3)
    w = 54.3
    t = np.linspace(0.0, 2.0 * 2.0 * math.pi / w, 600)
    p_flip = 0.9999 * np.sin(0.5 * w * t) ** 2 + rng.uniform(0, 1e-6, t.size)
    p_plus = 0.9999 * np.cos(0.5 * w * t) ** 2 + rng.uniform(0, 1e-6, t.size)
    return w, t, p_plus, p_flip


def test_extract_flip_frequency_with_leakage_noise():
    w, t, p_plus, p_flip = _noisy_flip_series()
    assert extract_flip_frequency(t, p_plus, p_flip) == pytest.approx(w, rel=1e-4)


def test_closed_form_slope_is_the_polyfit_slope():
    _, t, p_plus, p_flip = _noisy_flip_series()
    q = p_flip / (p_plus + p_flip)
    c = np.clip(1.0 - 2.0 * q, -1.0, 1.0)
    sign = np.sign(np.gradient(q, t, edge_order=1))
    theta = np.unwrap(np.arctan2(sign * np.sqrt(1.0 - c * c), c))
    expected = abs(np.polyfit(t, theta, 1)[0])
    assert extract_flip_frequency(t, p_plus, p_flip) == pytest.approx(expected, rel=1e-12)


def test_measured_frequency_matches_coupling(rubidium_derived):
    h = build_hamiltonian(1, 2, rubidium_derived)
    times = np.linspace(0.0, 2.0 * math.pi / rubidium_derived.chi, 512)
    amps = _evolve(h, rubidium_derived, times)
    p_plus = np.abs(amps[:, h.index_of(0)]) ** 2
    p_flip = np.abs(amps[:, h.index_of(-2)]) ** 2
    freq = extract_flip_frequency(times, p_plus, p_flip)
    assert freq == pytest.approx(rubidium_derived.chi, rel=1e-4)


def test_timeseries_csv_shape(rubidium_derived, capsys):
    argv = ["simulate", "--duration", "1e-3", "--samples", "4"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t_s,tau," + ",".join(f"p_{l}" for l in range(-10, 10, 2))
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    h = build_hamiltonian(1, 2, rubidium_derived)
    times = np.linspace(0.0, 1e-3, 4)
    pops = np.abs(sample_evolution(initial_state(h), h, times)) ** 2
    for line, t, row in zip(lines[1:], times, pops):
        cells = [t, rubidium_derived.recoil_frequency * t, *row]
        assert line == ",".join(format(float(x), ".15g") for x in cells)


def _cycle_ladder(l0, ratio):
    """Hamiltonian of the default ladder and the length of one flip cycle."""
    p = with_regime_ratio(replace(rubidium_preset(), l0=l0), ratio)
    d = derive(p)
    rate = abs(adiabatic.coeffs(p.n0, l0, d).b_n)
    return build_hamiltonian(p.n0, l0, d), 2.0 * math.pi / rate


def _phase_grids(cycle):
    """linspace grids, with and without an off-grid time appended, and one
    grid that does not start at 0."""
    for n in (2, 3, 4, 5, 200, 512, 513):
        grid = np.linspace(0.0, cycle, n)
        yield grid
        yield np.append(grid, 0.3719 * cycle)
    yield np.linspace(0.1 * cycle, cycle, 50)


@pytest.mark.parametrize("l0, ratio", [(2, 0.02), (8, 0.05)])
def test_phase_table_matches_60_digit_exponential(l0, ratio):
    h, cycle = _cycle_ladder(l0, ratio)
    evals = np.linalg.eigh(h.matrix())[0]
    st = initial_state(h)
    reference = {}  # exp(-i*E*t) at 60 digits, per float t
    worst_et = 0.0
    for times in _phase_grids(cycle):
        phases = ladder._phases(evals, times)
        for t, row in zip(times, phases):
            if t not in reference:
                reference[t] = oracles.phases_mp(evals, t, dps=60)
            et = np.abs(evals * t)
            worst_et = max(worst_et, float(et.max()))
            err = np.abs(row - reference[t])
            assert np.all(err <= 4.0 * np.finfo(float).eps * (1.0 + et)), (t, err.max())
        amps = sample_evolution(st, h, times)
        assert np.max(np.abs(np.linalg.norm(amps, axis=1) - 1.0)) <= 1e-12
    if l0 == 8:
        assert worst_et > 1e11  # the phases are exercised at large E*t


# --- the cycle read off the spectrum -----------------------------------------

# (l0, chi*n0/w_rec) of the cycle checks, from l0 = 2 to the l0 = 8 point whose
# sampled maxima were right to about four digits only
CYCLE_POINTS = [(2, 0.0215), (4, 0.05), (6, 0.02), (8, 0.03)]


def _readout(at_ratio, l0, ratio):
    """(fields, record, Hamiltonian) of cycle_readout at t1 = pi/|b_n|."""
    p = at_ratio(ratio, l0=l0)
    d = derive(p)
    c = adiabatic.coeffs(p.n0, l0, d)
    fields, _ = ladder.cycle_readout(c, math.pi / abs(c.b_n))
    return fields, c, build_hamiltonian(p.n0, l0, d)


@pytest.mark.parametrize("l0", [2, 4, 8])
def test_each_decomposed_matrix_is_its_branch_hamiltonian_bit_for_bit(monkeypatch, at_ratio, l0):
    # the readout is ill-conditioned near the resolution limit: a diagonal one
    # ulp off moves pop_dev_bound by 9 % at l0 = 8, so each matrix eigh
    # receives must be the branch's own build_hamiltonian(...).matrix(), bit for bit
    eigh, seen = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda m: seen.append(m) or eigh(m))
    records = [
        adiabatic.coeffs(n, l0, derive(at_ratio(ratio, l0=l0, sign=sign)), include_stark=stark)
        for ratio, sign, stark, n in itertools.product((0.005, 0.03), (1, -1), (False, True), (1, 2))
    ]
    kept = []
    for c in records:
        try:
            ladder.cycle_readout(c, math.pi / abs(c.b_n))
        except ladder.ResolutionError:
            continue
        kept.append(c)
    # at l0 = 8 the eight branches at chi*n0/w_rec = 0.005 are refused, and never decomposed
    assert len(kept) == (8 if l0 == 8 else len(records))
    assert len(seen) == len(kept)
    for m, c in zip(seen, kept):
        assert np.array_equal(m, build_hamiltonian(c.n, l0, c.d, c.include_stark).matrix())


@pytest.mark.parametrize("l0, ratio", CYCLE_POINTS)
def test_cycle_readout_bounds_a_dense_sampling_of_the_cycle(at_ratio, l0, ratio):
    # 200001 evenly spaced times over one cycle 2*pi/|b_n|, propagated ten
    # chunks at a time, each chunk from the last row of the one before
    fields, c, h = _readout(at_ratio, l0, ratio)
    rate = abs(c.b_n)
    pair = [h.index_of(0), h.index_of(-l0)]
    outside = np.delete(np.arange(h.size), pair)
    chunks, per = 10, 20_000
    dt = 2.0 * math.pi / rate / (chunks * per)
    local = np.arange(per + 1) * dt
    s = initial_state(h)
    max_leak = max_dev = sum_leak = 0.0
    for k in range(chunks):
        amps = sample_evolution(s, h, local)
        s = amps[-1]
        pops = np.abs(amps[: per + (k == chunks - 1)]) ** 2
        leak = pops[:, outside].sum(axis=1)
        half = 0.5 * rate * (k * per * dt + local[: len(pops)])
        dev = np.maximum(
            np.abs(pops[:, pair[0]] - np.cos(half) ** 2), np.abs(pops[:, pair[1]] - np.sin(half) ** 2)
        )
        max_leak, max_dev = max(max_leak, leak.max()), max(max_dev, dev.max())
        sum_leak += leak.sum()
    assert fields["leakage_bound"] >= max_leak
    assert max_dev <= fields["pop_dev_bound"] <= 1.1 * max_dev
    mean = sum_leak / (chunks * per + 1)
    assert fields["mean_leakage"] == pytest.approx(mean, rel=1e-3)


@pytest.mark.parametrize("l0, ratio", [(8, 0.03), (6, 0.02)])
def test_cycle_readout_matches_a_50_digit_decomposition(at_ratio, l0, ratio):
    # the same float matrix decomposed at 50 digits, its eigenvalues grouped
    # into runs by the same resolution limit, each run summed coherently
    fields, _, h = _readout(at_ratio, l0, ratio)
    limit = ladder.RESOLUTION_LIMIT * np.finfo(float).eps
    limit *= np.abs(h.diagonal).max() + 2.0 * abs(h.off_diagonal)
    freq, mean, bound = oracles.LadderMp(h.matrix()).cycle(h.index_of(0), h.index_of(-l0), limit)
    assert fields["mean_leakage"] == pytest.approx(mean, rel=1e-7)
    assert fields["leakage_bound"] == pytest.approx(bound, rel=1e-7)
    assert fields["freq_rad_s"] == pytest.approx(freq, rel=1e-6)


def test_50_digit_oracle_propagates_as_expm_and_the_ladder_do(at_ratio):
    # at l0 = 2 the float64 eigensolver is accurate to about 1e-12 (ROADMAP item 18)
    h, cycle = _cycle_ladder(2, 0.02)
    oracle, st = oracles.LadderMp(h.matrix()), initial_state(h)
    for t in (0.0, 0.3719 * cycle, 0.5 * cycle):
        ref = oracle.propagate(st, t)
        assert np.max(np.abs(ref - oracles.propagate_expm(h.matrix(), st, t))) <= 1e-11
        assert np.max(np.abs(ref - sample_evolution(st, h, [t])[0])) <= 1e-11


@pytest.mark.parametrize(
    "l0",
    [pytest.param(l0, marks=pytest.mark.xfail(
        l0 == 8, strict=True, reason="(w_rec*l)*(l+l0) rounds l = -14 and l = 6 one ulp apart"))
     for l0 in range(2, 13, 2)],
)
def test_the_diagonal_is_mirror_symmetric_bit_for_bit(at_ratio, l0):
    # l -> -l0 - l leaves l*(l+l0) unchanged, and the grid default_range(l0) is
    # its own mirror image, so the diagonal must read the same reversed; + 0.0
    # turns the -0.0 at l = -l0 into the +0.0 at l = 0, as matrix() does
    for sign, stark, ratio in itertools.product((1, -1), (False, True), (0.005, 0.03)):
        h = build_hamiltonian(1, l0, derive(at_ratio(ratio, l0=l0, sign=sign)), include_stark=stark)
        bits = (h.diagonal + 0.0).tobytes()
        assert bits == (h.diagonal[::-1] + 0.0).tobytes(), (sign, stark, ratio)


@pytest.mark.parametrize("include_stark", [False, True])
def test_conjugate_amplitudes_evolve_back_to_the_start(at_ratio, include_stark):
    # H is real, so U(t) conj(U(t) C(0)) = U(t) conj(U(t)) C(0) = C(0) for the real C(0)
    for l0, ratio in itertools.product((2, 4, 6), (0.005, 0.02, 0.05)):
        p = at_ratio(ratio, l0=l0)
        d = derive(p)
        b_n = adiabatic.coeffs(p.n0, l0, d).b_n
        h = build_hamiltonian(p.n0, l0, d, include_stark=include_stark)
        for t in np.array([0.3, 1.0, 2.7]) * math.pi / abs(b_n):
            back = sample_evolution(np.conj(evolve(h, b_n, [t])[0]), h, [t])[0]
            assert np.max(np.abs(back - initial_state(h))) <= 1e-12, (l0, ratio, t)


@pytest.mark.parametrize("l0, ratio", [(2, 0.02), (4, 0.02), (6, 0.05), (8, 0.05)])
def test_detuning_sign_is_a_gauge_of_the_ladder(at_ratio, l0, ratio):
    # G H(-chi) G = H(chi) with G = diag((-1)^{l/2}), so C_l(-chi) = (-1)^{l/2} C_l(chi),
    # and the reduction's b_n ~ chi^{l0/2} follows: b_n(-chi) = (-1)^{l0/2} b_n(chi)
    ds = [derive(at_ratio(ratio, l0=l0, sign=sign)) for sign in (1, -1)]
    plus, minus = (adiabatic.coeffs(1, l0, d) for d in ds)
    assert minus.b_n == (-1) ** (l0 // 2) * plus.b_n
    h_plus, h_minus = (build_hamiltonian(1, l0, d) for d in ds)
    gauge = (-1.0) ** (h_plus.orders // 2)
    times = np.array([0.3, 1.0, 2.7]) * math.pi / abs(plus.b_n)
    np.testing.assert_allclose(
        evolve(h_minus, minus.b_n, times), gauge * evolve(h_plus, plus.b_n, times), rtol=0, atol=1e-12
    )
