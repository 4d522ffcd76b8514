"""Joint atom-field states, field measurement and entanglement bookkeeping.

Each atom is reduced to a momentum qubit {|+> = P_{+l0}, |-> = P_{-l0}}; in a
ladder-backed run the population outside those two orders is recorded as
leakage rather than silently renormalized away per atom. The joint state of k
atoms and the field superposition (|0> + |n0>)/sqrt(2) keeps one product of
atom amplitudes per field branch, which is exactly the structure the separable
Hamiltonian enforces. compose builds each product as a chain of broadcast
outer products over a (branch, atom, qubit) array, and scales by the field
amplitudes last.

Projecting the field onto {|0>, |n0>} collapses the atoms to a product state;
projecting onto (|0> +- |n0>)/sqrt(2) transfers the branch coherence to the
atoms and yields the Bell (k=2) or GHZ (k>=3) states. Both bases are
available so that this dependence can be demonstrated, not assumed. The
concurrence of a two-qubit pure state is the closed form 2|c00*c11 - c01*c10|
(Wootters); the density-operator formula `concurrence` is kept for mixed
states.

Phase convention: targets are written (|u> + sign * e^{-i phi} |v>)/sqrt(2).
The exact per-atom propagator puts a factor +-i, set by the sign of b_n and
the pulse multiple s, on every flipped amplitude, on top of the level-shift
phase e^{-i a_n t}. The scheduled target takes its phase from the same
closed-form solve that prepares the adiabatic engine's Fock branch, so one
solve per atom serves both; the vacuum branch (a = b = 0) keeps its initial
amplitudes. Reports carry the measured phase and this scheduled phase
(phase_reference_rad) side by side; for the adiabatic engine without the
Stark term they agree exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import adiabatic, ladder
from .params import (
    DerivedParams,
    PhysicalParams,
    RegimeVerdict,
    derive,
    physical_dict,
    validate_bragg_regime,
)

MAX_ATOMS = 10  # joint state dimension 2*2^k; desk-scale bound

BELL_KINDS = ("psi_plus", "psi_minus", "phi_plus", "phi_minus")


class MeasurementError(ValueError):
    """Measurement request is ill-posed (bad basis or zero-probability outcome)."""


class RegimeError(RuntimeError):
    """Requested run sits outside the Bragg regime."""


@dataclass(frozen=True)
class FieldSuperposition:
    """Cavity field a0|0> + a1|n0> with |a0|^2 + |a1|^2 = 1."""

    amp_vacuum: complex
    amp_fock: complex
    n0: int

    def __post_init__(self):
        norm = abs(self.amp_vacuum) ** 2 + abs(self.amp_fock) ** 2
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"field amplitudes must be normalized, |.|^2 = {norm}")
        if self.n0 < 1:
            raise ValueError(f"n0 must be >= 1, got {self.n0}")

    @classmethod
    def balanced(cls, n0: int) -> "FieldSuperposition":
        amp = 1.0 / math.sqrt(2.0)
        return cls(amp_vacuum=amp, amp_fock=amp, n0=n0)


@dataclass(frozen=True)
class BranchAmplitudes:
    """One atom's qubit amplitudes (c_plus, c_minus) in each field branch.

    Branch norms may fall below one; the deficit is two-mode leakage and is
    accounted for when composing the joint state.
    """

    vacuum: tuple[complex, complex]
    fock: tuple[complex, complex]
    n0: int

    def __post_init__(self):
        for name, pair in (("vacuum", self.vacuum), ("fock", self.fock)):
            norm = abs(pair[0]) ** 2 + abs(pair[1]) ** 2
            if norm > 1.0 + 1e-9:
                raise ValueError(f"{name} branch norm {norm} exceeds 1")


@dataclass(frozen=True)
class JointState:
    """Normalized joint vector over (field branch) x (k momentum qubits).

    vector[b, i]: b = 0 vacuum / 1 Fock branch; i = big-endian qubit index
    (atom 0 is the most significant bit, bit 0 = |+>, bit 1 = |->).
    `leakage` is the probability that fell outside the two-mode subspaces
    before normalization.
    """

    vector: np.ndarray
    n0: int
    k: int
    leakage: float = 0.0

    def __post_init__(self):
        vec = np.array(self.vector, dtype=np.complex128)
        object.__setattr__(self, "vector", vec)
        if vec.shape != (2, 2**self.k):
            raise ValueError(f"vector shape {vec.shape}, expected (2, {2**self.k})")
        if not 0.0 <= self.leakage <= 1.0:
            raise ValueError(f"leakage {self.leakage} outside [0, 1]")
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"joint vector must be normalized, got norm {norm}")


def compose(atoms: Sequence[BranchAmplitudes], f: FieldSuperposition) -> JointState:
    """Assemble the joint state per field branch as a product over atoms."""
    if not atoms:
        raise ValueError("need at least one atom")
    if len(atoms) > MAX_ATOMS:
        raise ValueError(f"at most {MAX_ATOMS} atoms supported, got {len(atoms)}")
    for a in atoms:
        if a.n0 != f.n0:
            raise ValueError(f"atom prepared for n0={a.n0}, field has n0={f.n0}")
    k = len(atoms)
    # pairs[b, i] = atom i's (c_plus, c_minus) in branch b; each outer product
    # appends one atom as the next less significant bit
    pairs = np.array(
        [[a.vacuum for a in atoms], [a.fock for a in atoms]], dtype=np.complex128
    )
    vec = np.ones((2, 1), dtype=np.complex128)
    for i in range(k):
        vec = (vec[:, :, None] * pairs[:, i, None, :]).reshape(2, -1)
    vec *= np.array([[f.amp_vacuum], [f.amp_fock]], dtype=np.complex128)
    raw = float(np.linalg.norm(vec) ** 2)
    leakage = max(0.0, 1.0 - raw)
    if raw <= 0.0:
        raise ValueError("joint state has zero norm")
    return JointState(vector=vec / math.sqrt(raw), n0=f.n0, k=k, leakage=leakage)


def superposition_basis() -> np.ndarray:
    """Field basis {(|0> + |n0>)/sqrt2, (|0> - |n0>)/sqrt2} as rows."""
    return np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def computational_basis() -> np.ndarray:
    """Field basis {|0>, |n0>} as rows."""
    return np.eye(2)


def _check_basis(basis: np.ndarray, what: str) -> np.ndarray:
    """`basis` as a complex 2x2 array whose rows are orthonormal within 1e-12."""
    basis = np.asarray(basis, dtype=np.complex128)
    if basis.shape != (2, 2):
        raise MeasurementError(f"{what} basis must be 2x2, got {basis.shape}")
    if np.max(np.abs(basis @ basis.conj().T - np.eye(2))) > 1e-12:
        raise MeasurementError(f"{what} basis is not orthonormal within 1e-12")
    return basis


def measure_field(
    j: JointState, basis: np.ndarray, outcome: int
) -> tuple[float, np.ndarray]:
    """Born-rule projection of the field onto basis row `outcome`.

    Returns (probability, renormalized atom state of dimension 2^k).
    """
    basis = _check_basis(basis, "field")
    if outcome not in (0, 1):
        raise MeasurementError(f"outcome must be 0 or 1, got {outcome}")
    post = basis[outcome].conj() @ j.vector
    prob = float(np.linalg.norm(post) ** 2)
    if prob < 1e-14:
        raise MeasurementError(f"outcome {outcome} has zero probability ({prob:.3e})")
    return prob, post / math.sqrt(prob)


def measure_atom(
    state: np.ndarray, k: int, atom_index: int, basis: np.ndarray, outcome: int
) -> tuple[float, np.ndarray]:
    """Project one atom of a k-qubit state onto basis row `outcome`."""
    basis = _check_basis(basis, "atom")
    if not 0 <= atom_index < k:
        raise MeasurementError(f"atom index {atom_index} outside 0..{k - 1}")
    tensor = np.asarray(state, dtype=np.complex128).reshape((2,) * k)
    post = np.tensordot(basis[outcome].conj(), tensor, axes=([0], [atom_index]))
    post = post.reshape(-1)
    prob = float(np.linalg.norm(post) ** 2)
    if prob < 1e-14:
        raise MeasurementError(f"outcome {outcome} has zero probability ({prob:.3e})")
    return prob, post / math.sqrt(prob)


def bell_target(kind: str, phase: float = 0.0) -> np.ndarray:
    """Two-qubit target (|+-> +- e^{-i phi}|-+>)/sqrt2 or the |++>/|--> pair."""
    if kind not in BELL_KINDS:
        raise ValueError(f"kind must be one of {BELL_KINDS}, got {kind!r}")
    vec = np.zeros(4, dtype=np.complex128)
    sign = 1.0 if kind.endswith("plus") else -1.0
    rel = sign * np.exp(-1j * phase)
    if kind.startswith("psi"):
        vec[0b01] = 1.0
        vec[0b10] = rel
    else:
        vec[0b00] = 1.0
        vec[0b11] = rel
    return vec / math.sqrt(2.0)


def ghz_target(k: int, sign: int = 1, phase: float = 0.0) -> np.ndarray:
    """k-qubit target (|+>^k +- e^{-i phi}|->^k)/sqrt2, k >= 3."""
    if k < 3:
        raise ValueError(f"GHZ needs k >= 3 atoms, got {k}")
    if k > MAX_ATOMS:
        raise ValueError(f"at most {MAX_ATOMS} atoms supported, got {k}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    vec = np.zeros(2**k, dtype=np.complex128)
    vec[0] = 1.0
    vec[-1] = sign * np.exp(-1j * phase)
    return vec / math.sqrt(2.0)


def fidelity(state: np.ndarray, target: np.ndarray) -> float:
    """|<target|state>|^2 for normalized pure states."""
    state = np.asarray(state, dtype=np.complex128).reshape(-1)
    target = np.asarray(target, dtype=np.complex128).reshape(-1)
    if state.shape != target.shape:
        raise ValueError(f"dimension mismatch: {state.shape} vs {target.shape}")
    for name, vec in (("state", state), ("target", target)):
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"{name} must be normalized, got norm {norm}")
    return float(abs(np.vdot(target, state)) ** 2)


_SY_SY = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density operator."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (4, 4):
        raise ValueError(f"density operator must be 4x4, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValueError("density operator is not Hermitian within 1e-10")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError(f"density operator trace {np.trace(rho)} != 1")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ValueError("density operator has a negative eigenvalue beyond 1e-10")
    r = rho @ _SY_SY @ rho.conj() @ _SY_SY
    lams = np.sqrt(np.clip(np.linalg.eigvals(r).real, 0.0, None))
    lams[::-1].sort()
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def concurrence_pure(state: np.ndarray) -> float:
    """Concurrence 2|c00*c11 - c01*c10| of a normalized two-qubit pure state."""
    state = np.asarray(state, dtype=np.complex128).reshape(-1)
    if state.shape != (4,):
        raise ValueError(f"pure state must have 4 amplitudes, got {state.shape[0]}")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"state must be normalized, got norm {norm}")
    return float(2.0 * abs(state[0] * state[3] - state[1] * state[2]))


# --- scenario runner ---------------------------------------------------------

_BASES = {
    "superposition": (("plus", "minus"), superposition_basis),
    "computational": (("vacuum", "fock"), computational_basis),
}


@dataclass(frozen=True)
class EntanglementReport:
    """Flat result record for one Bell/GHZ preparation run."""

    scenario: str
    engine: str
    parameters: dict
    target_kind: str
    fidelity: float
    concurrence: float | None
    phase_measured_rad: float
    phase_reference_rad: float
    leakage: float
    outcome_probabilities: dict
    outcomes: dict
    vacuum_deviation: float
    verdict: str
    selected_outcome: str
    ghz_collapse: dict | None = None

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.ghz_collapse is None:
            del out["ghz_collapse"]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _flip_kind(kind: str) -> str:
    stem, sign = kind.rsplit("_", 1)
    return f"{stem}_{'minus' if sign == 'plus' else 'plus'}"


def _atom_pairs_ladder(
    directions: list[int],
    times: list[float],
    c: adiabatic.TwoLevelCoeffs,
    d: DerivedParams,
    l_range: tuple[int, int] | None,
    include_stark: bool,
) -> list[BranchAmplitudes]:
    # the mirror ladder has the same amplitudes; direction only relabels
    # which resonant order is |+>; c is the Fock branch's reduction, whose
    # b_n the resolution guard checks
    branches = []
    for n_br in (0, c.n):
        h = ladder.build_hamiltonian(n_br, c.l0, d, l_range, include_stark)
        if n_br:
            ladder.check_resolution(h, c.b_n)
        st = ladder.initial_state(c.l0, l_range=l_range, n=n_br)
        amps = ladder.sample_evolution(st, h, times)
        ladder.check_norm_drift(amps, st, ladder.DEFAULT_TOL)
        pairs = amps[:, [st.index_of(0), st.index_of(-c.l0)]].tolist()
        branches.append([(a, b) if dr == 1 else (b, a) for (a, b), dr in zip(pairs, directions)])
    return [BranchAmplitudes(vacuum=v, fock=f, n0=c.n) for v, f in zip(*branches)]


def run_scenario(
    p: PhysicalParams,
    *,
    s: int = 1,
    r: int = 0,
    mode: str = "opposite",
    k: int = 2,
    engine: str = "adiabatic",
    basis: str = "superposition",
    fit_phase: bool = False,
    include_stark: bool = False,
    l_range: tuple[int, int] | None = None,
    selected_outcome: int = 0,
    allow_violated: bool = False,
) -> EntanglementReport:
    """Run the full preparation protocol and report what came out.

    The field starts in (|0> + |n0>)/sqrt2. mode "opposite" sends the atoms
    in with momenta +P_{l0} and -P_{l0} (Bell psi family); "same" sends them
    all in along +P_{l0} (phi family / GHZ). Atom interaction times are
    s*pi/b_n, with the last atom offset by 2*r*pi/b_n. The field is measured
    in the (|0> +- |n0>)/sqrt2 basis by default; the computational
    {|0>, |n0>} basis shows the entanglement disappearing with the branch
    coherence. l_range sets the ladder engine's truncation.
    """
    if mode not in ("opposite", "same"):
        raise ValueError(f"mode must be 'opposite' or 'same', got {mode!r}")
    if engine not in ("adiabatic", "ladder"):
        raise ValueError(f"engine must be 'adiabatic' or 'ladder', got {engine!r}")
    if basis not in _BASES:
        raise ValueError(f"basis must be one of {tuple(_BASES)}, got {basis!r}")
    if k < 2 or k > MAX_ATOMS:
        raise ValueError(f"k must be between 2 and {MAX_ATOMS}, got {k}")
    if k > 2 and mode != "same":
        raise ValueError("GHZ preparation (k >= 3) requires mode='same'")
    if selected_outcome not in (0, 1):
        raise ValueError(f"selected_outcome must be 0 or 1, got {selected_outcome}")

    d = derive(p)
    verdict = validate_bragg_regime(d, p.n0)
    if verdict is RegimeVerdict.VIOLATED and not allow_violated:
        raise RegimeError(
            f"chi*n/w_rec = {abs(d.regime_ratio):.3g} is outside the Bragg regime"
        )

    c = adiabatic.coeffs(p.n0, p.l0, d)
    t1, t2 = adiabatic.pulse_times(c, s, r)
    times = [t1] * (k - 1) + [t2]
    directions = [1, -1] if (k == 2 and mode == "opposite") else [1] * k
    inits = [(1.0 + 0.0j, 0.0j) if drc == 1 else (0.0j, 1.0 + 0.0j) for drc in directions]
    # one closed-form solve per atom's Fock branch serves the adiabatic engine
    # and the scheduled target of either engine
    fock = [adiabatic.solve(init, c, t) for init, t in zip(inits, times)]

    if engine == "adiabatic":
        # the vacuum branch (a = b = 0) keeps its initial amplitudes; a uniform
        # -chi*n shift of the Fock-branch diagonal is a global phase
        # exp(+i chi n t) there, so it can be applied exactly after the solve
        stark_rate = d.chi * p.n0 if include_stark else 0.0
        atoms = [
            BranchAmplitudes(vacuum=init, fock=(ph * sol.c_plus, ph * sol.c_minus), n0=p.n0)
            for init, sol, ph in zip(inits, fock, np.exp(1j * stark_rate * np.array(times)))
        ]
    else:
        atoms = _atom_pairs_ladder(directions, times, c, d, l_range, include_stark)

    joint = compose(atoms, FieldSuperposition.balanced(p.n0))

    # scheduled target: family from the preparation mode, sign from r parity,
    # phase from the closed-form flip coefficient
    sign_name = "plus" if r % 2 == 0 else "minus"
    if k == 2:
        scenario = f"bell-{mode}"
        kind = f"{'psi' if mode == 'opposite' else 'phi'}_{sign_name}"
    else:
        scenario = "ghz"
        kind = f"ghz_{sign_name}"

    init_idx = _bits_to_index([0 if drc == 1 else 1 for drc in directions])
    flip_idx = _bits_to_index([1 if drc == 1 else 0 for drc in directions])

    f_pred = 1.0 + 0.0j
    for init, sol in zip(inits, fock):
        f_pred *= sol.c_minus if init[0] != 0 else sol.c_plus
    sign = 1.0 if r % 2 == 0 else -1.0
    target_phase = -float(np.angle(sign * f_pred))

    phase_measured = -float(
        np.angle(joint.vector[1, flip_idx] * np.conj(joint.vector[0, init_idx]))
    )

    labels, basis_of = _BASES[basis]
    basis_mat = basis_of()
    outcomes: dict[str, dict] = {}
    probs: dict[str, float] = {}
    collapse: dict | None = None
    for idx, label in enumerate(labels):
        prob, post = measure_field(joint, basis_mat, idx)
        out_kind = kind if idx == 0 else _flip_kind(kind)
        target = _scheduled_target(out_kind, target_phase, k)
        if fit_phase:
            fid = _phase_fitted_fidelity(post, k)
        else:
            fid = fidelity(post, target)
        conc = concurrence_pure(post) if k == 2 else None
        outcomes[label] = {
            "probability": prob,
            "fidelity": fid,
            "concurrence": conc,
            "kind": out_kind,
        }
        probs[label] = prob
        if k >= 3 and idx == selected_outcome:
            collapse = _ghz_collapse(post, k, out_kind, target_phase)

    selected_label = labels[selected_outcome]
    selected = outcomes[selected_label]

    vac_branch = joint.vector[0]
    vac_pops = np.abs(vac_branch / np.linalg.norm(vac_branch)) ** 2
    expected = np.zeros_like(vac_pops)
    expected[init_idx] = 1.0
    vacuum_deviation = float(np.max(np.abs(vac_pops - expected)))

    parameters = {
        **physical_dict(p),
        "s": s,
        "r": r,
        "k": k,
        "mode": mode,
        "basis": basis,
        "fit_phase": fit_phase,
        "include_stark": include_stark,
        "times_s": [float(t) for t in times],
        "a_rad_s": c.a_n,
        "b_rad_s": c.b_n,
        "chi_rad_s": d.chi,
        "recoil_rad_s": d.recoil_frequency,
        "regime_ratio": d.regime_ratio,
    }

    return EntanglementReport(
        scenario=scenario,
        engine=engine,
        parameters=parameters,
        target_kind=kind,
        fidelity=selected["fidelity"],
        concurrence=selected["concurrence"],
        phase_measured_rad=phase_measured,
        phase_reference_rad=target_phase,
        leakage=joint.leakage,
        outcome_probabilities=probs,
        outcomes=outcomes,
        vacuum_deviation=vacuum_deviation,
        verdict=verdict.value,
        selected_outcome=selected_label,
        ghz_collapse=collapse,
    )


def _bits_to_index(bits: list[int]) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    return idx


def _scheduled_target(kind: str, phase: float, k: int) -> np.ndarray:
    if kind.startswith("ghz"):
        return ghz_target(k, 1 if kind.endswith("plus") else -1, phase)
    return bell_target(kind, phase)


def _phase_fitted_fidelity(post: np.ndarray, k: int) -> float:
    """Fidelity maximized over the target's relative phase (family fixed)."""
    u_idx, v_idx = (0b01, 0b10) if _looks_psi(post, k) else (0, 2**k - 1)
    return float((abs(post[u_idx]) + abs(post[v_idx])) ** 2 / 2.0)


def _looks_psi(post: np.ndarray, k: int) -> bool:
    if k != 2:
        return False
    psi_weight = abs(post[0b01]) ** 2 + abs(post[0b10]) ** 2
    phi_weight = abs(post[0b00]) ** 2 + abs(post[0b11]) ** 2
    return psi_weight >= phi_weight


def _ghz_collapse(post: np.ndarray, k: int, kind: str, phase: float) -> dict:
    """Measure atom 0 in the (|+> +- |->)/sqrt2 basis; grade the remnant."""
    out: dict[str, dict] = {}
    sign = 1 if kind.endswith("plus") else -1
    for idx, label in enumerate(("x_plus", "x_minus")):
        prob, rest = measure_atom(post, k, 0, superposition_basis(), idx)
        rest_sign = sign if idx == 0 else -sign
        if k - 1 == 2:
            target = bell_target(f"phi_{'plus' if rest_sign == 1 else 'minus'}", phase)
            conc = concurrence_pure(rest)
        else:
            target = ghz_target(k - 1, rest_sign, phase)
            conc = None
        out[label] = {
            "probability": prob,
            "fidelity": fidelity(rest, target),
            "concurrence": conc,
        }
    return out
