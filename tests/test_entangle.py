import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from braggbell import adiabatic, entangle, ladder
from braggbell.entangle import (
    BranchAmplitudes,
    FieldSuperposition,
    MeasurementError,
    RegimeError,
    bell_target,
    compose,
    computational_basis,
    concurrence,
    concurrence_pure,
    fidelity,
    ghz_target,
    measure_atom,
    measure_field,
    run_scenario,
    superposition_basis,
)
from braggbell.params import derive, rubidium_preset, with_regime_ratio

INV_SQRT2 = 1.0 / math.sqrt(2.0)


@pytest.fixture
def rb():
    return rubidium_preset()


def _passive_atom(n0=1):
    return BranchAmplitudes(vacuum=(1.0, 0.0), fock=(1.0, 0.0), n0=n0)


def _flipper_atom(n0=1, amp=1.0):
    return BranchAmplitudes(vacuum=(1.0, 0.0), fock=(0.0, amp), n0=n0)


# --- targets and measures ----------------------------------------------------


def test_bell_target_layout():
    psi_p = bell_target("psi_plus")
    np.testing.assert_allclose(psi_p, [0, INV_SQRT2, INV_SQRT2, 0], atol=1e-15)
    psi_m = bell_target("psi_minus")
    np.testing.assert_allclose(psi_m, [0, INV_SQRT2, -INV_SQRT2, 0], atol=1e-15)
    phi_p = bell_target("phi_plus")
    np.testing.assert_allclose(phi_p, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15)
    phase = 0.77
    tgt = bell_target("phi_minus", phase)
    assert tgt[3] == pytest.approx(-np.exp(-1j * phase) * INV_SQRT2)
    with pytest.raises(ValueError):
        bell_target("sigma_plus")


def test_ghz_target_layout():
    g = ghz_target(3)
    assert g.shape == (8,)
    assert g[0] == pytest.approx(INV_SQRT2)
    assert g[7] == pytest.approx(INV_SQRT2)
    assert np.linalg.norm(g) == pytest.approx(1.0)
    minus = ghz_target(4, sign=-1, phase=0.3)
    assert minus[-1] == pytest.approx(-np.exp(-0.3j) * INV_SQRT2)
    with pytest.raises(ValueError):
        ghz_target(2)
    with pytest.raises(ValueError):
        ghz_target(11)
    with pytest.raises(ValueError):
        ghz_target(3, sign=0)


def test_fidelity_basics():
    a = bell_target("psi_plus")
    assert fidelity(a, a) == pytest.approx(1.0, abs=1e-15)
    assert fidelity(a, bell_target("psi_minus")) == pytest.approx(0.0, abs=1e-15)
    # global phase invisible
    assert fidelity(np.exp(0.4j) * a, a) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        fidelity(a, ghz_target(3))
    with pytest.raises(ValueError):
        fidelity(a * 0.5, a)


def test_concurrence_pure_states():
    assert concurrence_pure(bell_target("psi_plus")) == pytest.approx(1.0, abs=1e-12)
    assert concurrence_pure(bell_target("phi_minus", 1.2)) == pytest.approx(1.0, abs=1e-12)
    product = np.kron([1.0, 0.0], [INV_SQRT2, INV_SQRT2])
    assert concurrence_pure(product) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_pure_closed_form():
    # for pure states C = 2|c00*c11 - c01*c10|
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        expect = 2.0 * abs(v[0] * v[3] - v[1] * v[2])
        assert concurrence_pure(v) == pytest.approx(expect, abs=1e-15)


def test_concurrence_pure_matches_density_matrix_path():
    rng = np.random.default_rng(11)
    states = [bell_target("psi_minus"), np.kron([1.0, 0.0], [INV_SQRT2, INV_SQRT2])]
    for _ in range(50):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        states.append(v / np.linalg.norm(v))
    for v in states:
        # the matrix path resolves its degenerate zero eigenvalues only to ~sqrt(eps)
        assert concurrence_pure(v) == pytest.approx(concurrence(np.outer(v, v.conj())), abs=5e-8)


def test_concurrence_pure_validates_input():
    with pytest.raises(ValueError, match="4 amplitudes"):
        concurrence_pure(ghz_target(3))
    with pytest.raises(ValueError, match="normalized"):
        concurrence_pure(0.5 * bell_target("psi_plus"))


def test_concurrence_mixed_states():
    eye4 = np.eye(4) / 4.0
    assert concurrence(eye4) == 0.0
    psi_m = bell_target("psi_minus")
    proj = np.outer(psi_m, psi_m.conj())
    for p, expect in [(1.0, 1.0), (0.5, 0.25), (1.0 / 3.0, 0.0), (0.2, 0.0)]:
        rho = p * proj + (1 - p) * np.eye(4) / 4.0
        assert concurrence(rho) == pytest.approx(expect, abs=1e-12)


def test_concurrence_validates_input():
    bad = np.eye(4) / 4.0 + 0.0j
    bad[0, 1] = 0.1  # not Hermitian
    with pytest.raises(ValueError):
        concurrence(bad)
    with pytest.raises(ValueError):
        concurrence(np.eye(4) / 2.0)  # trace 2
    neg = np.diag([0.5, 0.75, -0.25, 0.0])
    with pytest.raises(ValueError):
        concurrence(neg)
    with pytest.raises(ValueError):
        concurrence(np.eye(8) / 8.0)


# --- composition and measurement ---------------------------------------------


def test_field_superposition_validation():
    f = FieldSuperposition.balanced(2)
    assert abs(f.amp_vacuum) ** 2 + abs(f.amp_fock) ** 2 == pytest.approx(1.0)
    with pytest.raises(ValueError):
        FieldSuperposition(1.0, 1.0, 1)
    with pytest.raises(ValueError):
        FieldSuperposition(1.0, 0.0, 0)


def test_compose_passive_atoms_has_no_entanglement():
    j = compose([_passive_atom(), _passive_atom()], FieldSuperposition.balanced(1))
    assert j.leakage == pytest.approx(0.0, abs=1e-12)
    prob, post = measure_field(j, superposition_basis(), 0)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert concurrence_pure(post) == pytest.approx(0.0, abs=1e-12)
    # orthogonal outcome has zero probability -> must refuse to renormalize
    with pytest.raises(MeasurementError):
        measure_field(j, superposition_basis(), 1)


def test_compose_records_leakage():
    lossy = BranchAmplitudes(vacuum=(1.0, 0.0), fock=(0.0, math.sqrt(0.98)), n0=1)
    j = compose([lossy, _passive_atom()], FieldSuperposition.balanced(1))
    # only the fock branch of atom 1 lost norm: total deficit = 0.02/2
    assert j.leakage == pytest.approx(0.01, rel=1e-9)
    assert np.linalg.norm(j.vector) == pytest.approx(1.0, abs=1e-12)


def test_compose_matches_kron_chain_exactly():
    rng = np.random.default_rng(3)

    def lossy_pair():
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        return tuple(complex(x) for x in v / np.linalg.norm(v) * rng.uniform(0.9, 0.999))

    f = FieldSuperposition(0.6, 0.8j, 1)
    for k in range(1, entangle.MAX_ATOMS + 1):
        atoms = [BranchAmplitudes(vacuum=lossy_pair(), fock=lossy_pair(), n0=1) for _ in range(k)]
        raw_vec = oracles.kron_product_state(
            [[a.vacuum for a in atoms], [a.fock for a in atoms]], [f.amp_vacuum, f.amp_fock]
        )
        raw = float(np.linalg.norm(raw_vec) ** 2)
        j = compose(atoms, f)
        assert j.leakage == 1.0 - raw > 0.0
        np.testing.assert_array_equal(j.vector, raw_vec / math.sqrt(raw))


def test_compose_rejects_mismatched_n0():
    with pytest.raises(ValueError):
        compose([_passive_atom(n0=1)], FieldSuperposition.balanced(2))


def test_compose_entangling_case():
    j = compose([_flipper_atom(), _flipper_atom()], FieldSuperposition.balanced(1))
    _, post = measure_field(j, superposition_basis(), 0)
    assert fidelity(post, bell_target("phi_plus")) == pytest.approx(1.0, abs=1e-12)
    _, post1 = measure_field(j, superposition_basis(), 1)
    assert fidelity(post1, bell_target("phi_minus")) == pytest.approx(1.0, abs=1e-12)


def test_measure_field_validates_basis():
    j = compose([_flipper_atom()], FieldSuperposition.balanced(1))
    with pytest.raises(MeasurementError):
        measure_field(j, np.array([[1.0, 0.0], [1.0, 0.0]]), 0)
    with pytest.raises(MeasurementError):
        measure_field(j, superposition_basis(), 2)


def test_measure_atom_collapses_ghz():
    g = ghz_target(3)
    x_basis = superposition_basis()  # same rotation, reused for atoms
    prob, rest = measure_atom(g, 3, 0, x_basis, 0)
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert fidelity(rest, bell_target("phi_plus")) == pytest.approx(1.0, abs=1e-12)
    prob1, rest1 = measure_atom(g, 3, 0, x_basis, 1)
    assert prob1 == pytest.approx(0.5, abs=1e-12)
    assert fidelity(rest1, bell_target("phi_minus")) == pytest.approx(1.0, abs=1e-12)
    # z measurement instead kills the coherence
    _, restz = measure_atom(g, 3, 0, computational_basis(), 0)
    assert concurrence_pure(restz) == pytest.approx(0.0, abs=1e-12)


# --- full scenarios ----------------------------------------------------------


def test_bell_recipes_adiabatic_exact(rb):
    # all four scheduling recipes hit their targets exactly in the two-level engine
    cases = [
        ("opposite", 0, "psi_plus"),
        ("opposite", 1, "psi_minus"),
        ("same", 0, "phi_plus"),
        ("same", 1, "phi_minus"),
    ]
    for mode, r, kind in cases:
        rep = run_scenario(rb, mode=mode, r=r, engine="adiabatic")
        assert rep.target_kind == kind
        assert rep.fidelity > 1.0 - 1e-12
        assert rep.concurrence > 1.0 - 1e-12
        assert rep.leakage < 1e-12
        for o in rep.outcomes.values():
            assert o["probability"] == pytest.approx(0.5, abs=1e-12)
            assert o["fidelity"] > 1.0 - 1e-12
            assert o["concurrence"] > 1.0 - 1e-12
        assert rep.vacuum_deviation < 1e-14


def test_bell_outcome_kind_flips(rb):
    rep = run_scenario(rb, mode="opposite", engine="adiabatic")
    assert rep.outcomes["plus"]["kind"] == "psi_plus"
    assert rep.outcomes["minus"]["kind"] == "psi_minus"


def test_bell_ladder_engine(rb):
    rep = run_scenario(rb, mode="opposite", engine="ladder")
    # the scheduled phase is the ladder's own: only populations cost fidelity
    fitted = run_scenario(rb, mode="opposite", engine="ladder", fit_phase=True)
    assert rep.fidelity == pytest.approx(fitted.fidelity, abs=1e-9)
    assert rep.fidelity > 0.95
    for o in rep.outcomes.values():
        assert o["fidelity"] > 0.95
        assert o["concurrence"] > 0.9
    assert rep.leakage == pytest.approx(3.61e-6, rel=0.05)
    assert rep.vacuum_deviation < 1e-14


def test_ladder_batched_branches_match_per_atom_evolve(at_ratio):
    # one propagation per field branch, read out for every atom, must equal
    # evolving each atom separately from its own (mirror-aware) initial state
    p = at_ratio(0.05, l0=4)
    d = derive(p)
    directions = [1, -1, 1]
    times = [0.7 * math.pi / d.chi, 1.3 * math.pi / d.chi, 0.2 * math.pi / d.chi]
    c = adiabatic.coeffs(p.n0, p.l0, d)
    atoms = entangle._atom_pairs_ladder(directions, times, c, d, None, False)
    for atom, direction, t in zip(atoms, directions, times):
        for branch, n in (("vacuum", 0), ("fock", p.n0)):
            h = ladder.build_hamiltonian(n, p.l0, d)
            out = ladder.evolve(ladder.initial_state(p.l0, n=n), h, t)
            incident, deflected = out.amplitudes[[out.index_of(0), out.index_of(-p.l0)]]
            # a mirror atom enters on P_{-l0}: its |+> is the deflected order
            expect = (incident, deflected) if direction == 1 else (deflected, incident)
            np.testing.assert_allclose(getattr(atom, branch), expect, rtol=0, atol=1e-12)


def test_ladder_truncation_between_samples_is_caught(at_ratio):
    # the edge population peaks near 4e-10, above the 1e-10 threshold, at
    # t ~ 0.019*t1, between the instants a sampled check would look at; the
    # time-independent bound catches it
    p = at_ratio(0.1, l0=4)
    with pytest.raises(ladder.TruncationError):
        run_scenario(p, engine="ladder", l_range=(-8, 4))


@pytest.mark.parametrize("l0, ratio", [(8, 0.005), (10, 0.02), (12, 0.02)])
def test_ladder_run_refuses_unresolvable_coupling(at_ratio, l0, ratio):
    p = at_ratio(ratio, l0=l0)
    with pytest.raises(ladder.ResolutionError):
        run_scenario(p, engine="ladder")
    # the two-level engine has no eigen-split to resolve
    assert run_scenario(p, engine="adiabatic").fidelity > 0.99


def _phase_gap(a, b):
    return abs(np.exp(1j * (a.phase_measured_rad - b.phase_measured_rad)) - 1.0)


def _check_scheduled_phase(p, **kw):
    """phase_reference_rad is the phase the adiabatic engine prepares.

    The relative amplitude of the prepared state's flipped component,
    e^{-i phase_measured}, must equal sign * e^{-i phase_reference} (sign -1
    for the *_minus kinds) and the product over atoms of the closed-form flip
    factor i*sin(b_n t/2)*e^{-i a_n t}; the ladder engine prepares the same
    phase.
    """
    rep = run_scenario(p, engine="adiabatic", **kw)
    sign = 1.0 if rep.target_kind.endswith("plus") else -1.0
    measured = np.exp(-1j * rep.phase_measured_rad)
    assert abs(sign * np.exp(-1j * rep.phase_reference_rad) - measured) < 1e-9
    a, b = rep.parameters["a_rad_s"], rep.parameters["b_rad_s"]
    flip = np.prod([1j * np.sin(0.5 * b * t) * np.exp(-1j * a * t) for t in rep.parameters["times_s"]])
    assert abs(flip / abs(flip) - measured) < 1e-9
    assert rep.fidelity > 1.0 - 1e-12
    rl = run_scenario(p, engine="ladder", **kw)
    assert _phase_gap(rep, rl) < 1e-3
    return rep, rl


def _signed_ratio_params(l0, sign, ratio=0.02):
    base = rubidium_preset()
    return with_regime_ratio(replace(base, l0=l0, detuning=sign * base.detuning), ratio)


def test_bell_phase_bookkeeping():
    for l0 in (2, 4, 6):
        for sign in (1, -1):
            p = _signed_ratio_params(l0, sign)
            for mode in ("opposite", "same"):
                for s, r in ((1, 0), (1, 1), (3, 0), (3, 1), (3, 2)):
                    _check_scheduled_phase(p, mode=mode, s=s, r=r)


def test_bell_phase_reference_l0_4():
    p = with_regime_ratio(replace(rubidium_preset(), l0=4), 0.02)
    rep, rl = _check_scheduled_phase(p, mode="opposite")
    # psi_plus: the reference is the measured phase itself, -pi/3 up to
    # the O(ratio^2) corrections of a_n/|b_n| = 1/3 (test_adiabatic)
    assert rep.phase_reference_rad == pytest.approx(rep.phase_measured_rad, abs=1e-9)
    assert rep.phase_reference_rad == pytest.approx(-math.pi / 3.0, rel=1e-3)
    assert rl.fidelity > 0.9999


def test_ladder_vs_adiabatic_phase_agree_l0_2(rb):
    ra = run_scenario(rb, mode="opposite", engine="adiabatic")
    rl = run_scenario(rb, mode="opposite", engine="ladder")
    diff = np.exp(1j * (ra.phase_measured_rad - rl.phase_measured_rad))
    assert abs(diff - 1.0) < 0.01  # small residual from intermediate orders


def test_computational_basis_kills_entanglement(rb):
    for engine in ("adiabatic", "ladder"):
        rep = run_scenario(rb, mode="opposite", engine=engine, basis="computational")
        for o in rep.outcomes.values():
            assert o["concurrence"] <= 1e-6
        assert rep.outcome_probabilities["vacuum"] == pytest.approx(0.5, abs=1e-5)


def test_stark_term_is_pure_fock_branch_phase():
    # l0=4 keeps chi*n*(t1+t2) off the 2*pi grid, so the shift is visible
    p = replace(rubidium_preset(), l0=4)
    d = derive(p)
    deltas = {}
    for engine in ("adiabatic", "ladder"):
        plain = run_scenario(p, engine=engine, mode="opposite")
        stark = run_scenario(p, engine=engine, mode="opposite", include_stark=True)
        t_sum = sum(plain.parameters["times_s"])
        delta = stark.phase_measured_rad - plain.phase_measured_rad
        expect = np.exp(-1j * d.chi * p.n0 * t_sum)
        assert abs(np.exp(1j * delta) - expect) < 1e-6
        deltas[engine] = delta
    assert abs(np.exp(1j * (deltas["adiabatic"] - deltas["ladder"])) - 1.0) < 1e-6


def test_fit_phase_isolates_population_error(rb):
    strict = run_scenario(rb, mode="opposite", engine="ladder")
    fitted = run_scenario(rb, mode="opposite", engine="ladder", fit_phase=True)
    assert fitted.fidelity >= strict.fidelity
    assert fitted.fidelity > 1.0 - 1e-9


def test_ghz_adiabatic_exact(rb):
    for k in (3, 4, 6):
        rep = run_scenario(rb, mode="same", k=k, engine="adiabatic")
        assert rep.scenario == "ghz"
        assert rep.fidelity > 1.0 - 1e-12
        assert rep.concurrence is None
        for o in rep.ghz_collapse.values():
            assert o["probability"] == pytest.approx(0.5, abs=1e-12)
            assert o["fidelity"] > 1.0 - 1e-12
        if k == 3:
            for o in rep.ghz_collapse.values():
                assert o["concurrence"] > 1.0 - 1e-12


def test_ghz_ladder(rb):
    rep = run_scenario(rb, mode="same", k=3, engine="ladder")
    assert rep.fidelity > 0.9
    assert rep.fidelity == pytest.approx(0.99999, abs=1e-4)
    for o in rep.ghz_collapse.values():
        assert o["concurrence"] > 0.9
    assert rep.vacuum_deviation < 1e-14


def test_ghz_reference_phase_formulas():
    for l0 in (2, 4, 6):
        for sign in (1, -1):
            p = _signed_ratio_params(l0, sign)
            for k in (3, 5):
                for r in (0, 1):
                    rep, _ = _check_scheduled_phase(p, mode="same", k=k, r=r)
                    assert rep.target_kind == ("ghz_plus" if r == 0 else "ghz_minus")


def test_scenario_validation(rb):
    with pytest.raises(ValueError):
        run_scenario(rb, mode="diagonal")
    with pytest.raises(ValueError):
        run_scenario(rb, engine="exact")
    with pytest.raises(ValueError):
        run_scenario(rb, k=3, mode="opposite")
    with pytest.raises(ValueError):
        run_scenario(rb, k=11, mode="same")
    with pytest.raises(ValueError):
        run_scenario(rb, s=2)


def test_scenario_regime_gate(rb):
    hot = with_regime_ratio(rb, 0.5)
    with pytest.raises(RegimeError):
        run_scenario(hot, engine="adiabatic")
    rep = run_scenario(hot, engine="adiabatic", allow_violated=True)
    assert rep.verdict == "violated"


def test_report_json_stable(rb):
    r1 = run_scenario(rb, mode="same", r=1, engine="ladder")
    r2 = run_scenario(rb, mode="same", r=1, engine="ladder")
    assert r1.to_json() == r2.to_json()
    payload = r1.to_dict()
    for key in (
        "scenario",
        "engine",
        "parameters",
        "fidelity",
        "concurrence",
        "phase_measured_rad",
        "phase_reference_rad",
        "leakage",
        "outcome_probabilities",
    ):
        assert key in payload
