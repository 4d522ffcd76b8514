import math

import numpy as np
import pytest
from scipy.linalg import expm

import oracles
from braggbell import adiabatic, cli, ladder
from braggbell.adiabatic import coeffs, coupling, level_shift, pulse_times, solve
from braggbell.params import derive

CHI_RB = 492.6017280828795  # rubidium preset, frozen in test_params


def _assert_leading_order(n, l0, d):
    # the reduction departs from the leading-order product at O((chi n/w_rec)^2)
    ratio = d.chi * n / d.recoil_frequency
    lead = oracles.leading_order_coupling(d.recoil_frequency, d.chi * n, l0)
    assert coeffs(n, l0, d).b_n == pytest.approx(lead, rel=ratio**2)


def test_first_order_coupling_is_chi_n(rubidium_derived):
    for n in (1, 2, 7):
        _assert_leading_order(n, 2, rubidium_derived)
        assert coeffs(n, 2, rubidium_derived).b_n == pytest.approx(n * CHI_RB, rel=1e-3)


def test_second_order_coupling_formula(rubidium_derived):
    # l0=4: b = -(chi n)^2 / (8 w_rec) at leading order; the 8 is (2 w_rec) * (4-2)^2
    w = rubidium_derived.recoil_frequency
    for n in (1, 2, 3):
        _assert_leading_order(n, 4, rubidium_derived)
        assert coeffs(n, 4, rubidium_derived).b_n < 0
        expect = (CHI_RB * n) ** 2 / (8.0 * w)
        assert coupling(n, 4, rubidium_derived) == pytest.approx(expect, rel=1e-3)


def test_higher_order_coupling_general_product(rubidium_derived):
    for n, l0 in [(1, 6), (2, 6), (1, 8), (3, 8), (1, 10)]:
        _assert_leading_order(n, l0, rubidium_derived)


@pytest.mark.parametrize("l0", [2, 4, 6])
@pytest.mark.parametrize("sign", [1, -1])
def test_reduction_matches_dense_ladder(l0, sign, at_ratio):
    d = derive(at_ratio(0.02, l0=l0, sign=sign))
    c = coeffs(1, l0, d)
    _, h = oracles.dense_matrix(d.recoil_frequency, d.chi, 1, l0, *ladder.default_range(l0))
    mean, splitting = oracles.resonant_pair(h)
    assert abs(abs(c.b_n) - splitting) <= 10 * np.finfo(float).eps * np.linalg.norm(h, 2)
    assert c.a_n == pytest.approx(mean, rel=1e-4)


def test_coupling_shrinks_with_order(rubidium_derived):
    values = [coupling(1, l0, rubidium_derived) for l0 in (2, 4, 6, 8)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_vacuum_coupling_zero(rubidium_derived):
    for l0 in (2, 4, 6):
        assert coupling(0, l0, rubidium_derived) == 0.0
        assert level_shift(0, l0, rubidium_derived) == 0.0


def test_level_shift_matches_ladder_phase(at_ratio):
    # over the first fifth of a flip the surviving amplitude C_0 turns at the
    # rate -a_n; measured on the dense ladder propagated by its own eigenbasis
    for l0 in (2, 4):
        d = derive(at_ratio(0.02, l0=l0))
        c = coeffs(1, l0, d)
        orders, h = oracles.dense_matrix(
            d.recoil_frequency, d.chi, 1, l0, *ladder.default_range(l0)
        )
        evals, evecs = np.linalg.eigh(h)
        times = np.linspace(0.0, 0.2 * 2.0 * math.pi / abs(c.b_n), 64)
        coef = evecs[list(orders).index(0)]
        c0 = (coef * np.exp(-1j * np.outer(times, evals))) @ coef
        a_measured = -np.polyfit(times, np.unwrap(np.angle(c0)), 1)[0]
        assert c.a_n == pytest.approx(a_measured, rel=1e-3)
        assert c.a_n < 0 if l0 == 2 else c.a_n > 0


def test_coeffs_bundle(rubidium_derived):
    c = coeffs(2, 4, rubidium_derived)
    assert c.n == 2 and c.l0 == 4
    assert coupling(2, 4, rubidium_derived) == abs(c.b_n)
    assert c.a_n == level_shift(2, 4, rubidium_derived)


def test_coeffs_refuses_a_shift_that_does_not_converge(at_ratio):
    # far outside the Bragg regime the iteration for a = alpha(a) stalls;
    # the last iterate is no fixed point and must not be returned
    with pytest.raises(adiabatic.ConvergenceError, match="did not converge"):
        coeffs(1, 4, derive(at_ratio(10.0, l0=4)))
    # up to ratio 4 every order converges to a fixed point of the dense partition
    for l0 in (2, 4, 6, 8):
        for ratio in (0.02, 0.5, 4.0):
            d = derive(at_ratio(ratio, l0=l0))
            c = coeffs(1, l0, d)
            l_min, l_max = ladder.default_range(l0)
            orders, h = oracles.dense_matrix(d.recoil_frequency, d.chi, 1, l0, l_min, l_max)
            alpha = oracles.partition_self_energy(h, orders, l0, c.a_n)
            assert alpha == pytest.approx(c.a_n, rel=1e-12)


def test_solve_unitary_everywhere(rubidium_derived):
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b = rng.uniform(-1e3, 1e3), rng.uniform(0, 1e3)
        c = adiabatic.TwoLevelCoeffs(a_n=a, b_n=b, n=1, l0=2, d=rubidium_derived)
        z = rng.normal(size=4)
        init = (complex(z[0], z[1]), complex(z[2], z[3]))
        norm = math.sqrt(abs(init[0]) ** 2 + abs(init[1]) ** 2)
        init = (init[0] / norm, init[1] / norm)
        c_plus, c_minus = solve(init, c, rng.uniform(0, 1.0))
        total = abs(c_plus) ** 2 + abs(c_minus) ** 2
        assert abs(total - 1.0) < 1e-12


def test_solve_identity_at_t0(rubidium_derived):
    c = coeffs(1, 2, rubidium_derived)
    c_plus, c_minus = solve((0.6 + 0.0j, 0.8j), c, 0.0)
    assert c_plus == pytest.approx(0.6)
    assert c_minus == pytest.approx(0.8j)


def test_solve_matches_matrix_exponential(rubidium_derived):
    # same dynamics as exp(-i (a I - (b/2) sigma_x) t)
    rng = np.random.default_rng(21)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    for _ in range(25):
        a, b = rng.uniform(-500, 500), rng.uniform(0, 500)
        t = rng.uniform(0, 0.05)
        c = adiabatic.TwoLevelCoeffs(a_n=a, b_n=b, n=1, l0=4, d=rubidium_derived)
        u = expm(-1j * (a * np.eye(2) - 0.5 * b * sx) * t)
        v = u @ np.array([1.0, 0.0])
        c_plus, c_minus = solve((1.0 + 0.0j, 0.0j), c, t)
        assert abs(c_plus - v[0]) < 1e-12
        assert abs(c_minus - v[1]) < 1e-12


def test_pi_pulse_full_flip(rubidium_derived):
    c = coeffs(1, 2, rubidium_derived)
    t1, _ = pulse_times(c, 1)
    assert t1 == math.pi / abs(c.b_n)
    # 1/(2*78.4 Hz) at leading order; the reduction moves it at O((chi/w_rec)^2)
    ratio = CHI_RB / rubidium_derived.recoil_frequency
    assert t1 == pytest.approx(math.pi / CHI_RB, rel=ratio**2)
    assert t1 == pytest.approx(0.006377551020408164, rel=ratio**2)
    c_plus, c_minus = solve((1.0 + 0.0j, 0.0j), c, t1)
    assert abs(c_plus) < 1e-15
    assert abs(c_minus) == pytest.approx(1.0, abs=1e-15)
    # exact propagator leaves a factor i on the flipped amplitude, times the shift phase
    assert c_minus == pytest.approx(1j * np.exp(-1j * c.a_n * t1), abs=1e-12)


@pytest.mark.parametrize("l0", [2, 4, 6])
@pytest.mark.parametrize("sign", [1, -1])
def test_pi_pulse_full_flip_across_orders(l0, sign, at_ratio):
    d = derive(at_ratio(0.02, l0=l0, sign=sign))
    c = coeffs(1, l0, d)
    t1, _ = pulse_times(c, 1)
    assert t1 == math.pi / abs(c.b_n)
    c_plus, c_minus = solve((1.0 + 0.0j, 0.0j), c, t1)
    assert abs(c_plus) < 1e-15
    assert abs(c_minus) == pytest.approx(1.0, abs=1e-15)
    # exact propagator: a factor i*sign(b_n) on the flipped amplitude and the shift phase
    assert c_minus == pytest.approx(1j * np.sign(c.b_n) * np.exp(-1j * c.a_n * t1), abs=1e-12)
    # the dense ladder's deflected amplitude at t1 agrees in amplitude and phase
    orders, h = oracles.dense_matrix(d.recoil_frequency, d.chi, 1, l0, *ladder.default_range(l0))
    evals, evecs = np.linalg.eigh(h)
    i0, im = list(orders).index(0), list(orders).index(-l0)
    ladder_flip = evecs[im] @ (np.exp(-1j * evals * t1) * evecs[i0])
    assert abs(c_minus - ladder_flip) < 1e-4


def test_half_pulse_balanced_splitter(rubidium_derived):
    c = coeffs(1, 2, rubidium_derived)
    c_plus, c_minus = solve((1.0 + 0.0j, 0.0j), c, 0.5 * math.pi / c.b_n)
    assert abs(c_plus) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(c_minus) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_flip_periodicity(rubidium_derived):
    c = coeffs(1, 4, rubidium_derived)
    period = 2.0 * math.pi / abs(c.b_n)
    c_plus, c_minus = solve((1.0 + 0.0j, 0.0j), c, period)
    # population returns, global phase does not have to
    assert abs(c_plus) == pytest.approx(1.0, abs=1e-12)
    assert abs(c_minus) < 1e-12


def test_solve_rejects_unnormalized(rubidium_derived):
    c = coeffs(1, 2, rubidium_derived)
    with pytest.raises(ValueError):
        solve((1.0 + 0.0j, 0.5 + 0.0j), c, 1e-3)


def test_solve_refuses_a_nan_amplitude(rubidium_derived):
    # the norm guard is written so that a nan fails it
    c = coeffs(1, 2, rubidium_derived)
    with pytest.raises(ValueError, match="normalized"):
        solve((math.nan, 0.0), c, 1e-3)


def test_pulse_times_contract(rubidium_derived):
    c = coeffs(1, 2, rubidium_derived)
    t1, t2 = pulse_times(c, 3, offset_r=2)
    assert t1 == pytest.approx(3 * math.pi / c.b_n)
    assert t2 == pytest.approx(7 * math.pi / c.b_n)
    for bad_s in (0, -1, 2, 4):
        with pytest.raises(ValueError):
            pulse_times(c, bad_s)
    with pytest.raises(ValueError):
        pulse_times(c, 1, offset_r=-1)
    zero = coeffs(0, 2, rubidium_derived)
    with pytest.raises(ValueError):
        pulse_times(zero, 1)


def test_shift_to_coupling_ratio_is_a_third_for_l0_4(at_ratio):
    # at leading order l = 2 and l = -2 shift the pair by (chi n/2)^2 / w_rec *
    # (1/4 - 1/12) = (chi n)^2 / (24 w_rec), a third of |b| = (chi n)^2 / (8 w_rec),
    # independent of chi; the dense ladder's resonant pair agrees
    for ratio in (0.005, 0.02):
        d = derive(at_ratio(ratio, l0=4))
        c = coeffs(1, 4, d)
        _, h = oracles.dense_matrix(d.recoil_frequency, d.chi, 1, 4, *ladder.default_range(4))
        mean, splitting = oracles.resonant_pair(h)
        assert c.a_n / abs(c.b_n) == pytest.approx(mean / splitting, rel=1e-4)
        assert c.a_n / abs(c.b_n) == pytest.approx(1.0 / 3.0, rel=ratio**2)


def test_coeffs_csv_format(rubidium_derived, capsys):
    assert cli.main(["coeffs", "--l0", "2,4", "--n", "1,0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,l0,a_n_rad_s,b_n_rad_s,pi_pulse_s"
    expected = [coeffs(1, l0, rubidium_derived) for l0 in (2, 4)]
    for line, c in zip(lines[1::2], expected):
        rate = abs(c.b_n)  # b_n < 0 at l0=4: the table lists the flip rate
        cells = [format(x, ".15g") for x in (c.a_n, rate, math.pi / rate)]
        assert line == ",".join([str(c.n), str(c.l0), *cells])
    assert lines[2::2] == ["0,2,0,0,inf", "0,4,0,0,inf"]
