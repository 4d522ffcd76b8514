"""Joint atom-field states, field measurement and entanglement bookkeeping.

Each atom is reduced to a momentum qubit {|+> = P_{+l0}, |-> = P_{-l0}}; in a
ladder-backed run the population outside those two orders is recorded as
leakage rather than silently renormalized away per atom. The state is one
complex (branch, atom, qubit) array from preparation to measurement: entry
[b, i] holds atom i's (c_plus, c_minus) in field branch b (0 vacuum, 1 Fock).
The joint state of k atoms and the field (|0> + |n0>)/sqrt(2) (FIELD) keeps
one product of atom amplitudes per field branch, which is exactly the
structure the separable Hamiltonian enforces; compose builds each product as
a chain of broadcast outer products and scales by the field amplitudes last.

Projecting the field onto {|0>, |n0>} collapses the atoms to a product state;
projecting onto (|0> +- |n0>)/sqrt(2) transfers the branch coherence to the
atoms and yields the Bell (k=2) or GHZ (k>=3) states. Both bases are
available so that this dependence can be demonstrated, not assumed. The
concurrence of a two-qubit pure state is the closed form 2|c00*c11 - c01*c10|
(Wootters); the density-operator formula `concurrence` is kept for mixed
states.

Phase convention: targets are written (|u> + sign * e^{-i phi} |v>)/sqrt(2),
with u the atoms' initial qubit index and v the flipped one, both fixed by
the preparation mode. The exact per-atom propagator puts a factor +-i, set
by the sign of b_n and the pulse multiple s, on every flipped amplitude, on
top of the level-shift phase e^{-i a_n t} and, with the Stark term, the
Fock-branch phase e^{+i chi n0 t}. The scheduled target takes its phase from
the same closed-form Fock-branch pairs that the adiabatic engine prepares,
so one solve per atom serves both. The vacuum branch (a = b = 0, no Stark
shift at n = 0) keeps its initial amplitudes in both engines; the ladder
engine propagates the Fock branch only. Reports carry the measured phase and
this scheduled phase (phase_reference_rad) side by side; for the adiabatic
engine they agree exactly, up to the sign that the *_minus kinds carry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

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


# the cavity field (|0> + |n0>)/sqrt2, one amplitude per branch (0 vacuum, 1 Fock)
FIELD = np.full((2, 1), 1.0 / math.sqrt(2.0), dtype=np.complex128)


def compose(pairs: np.ndarray) -> tuple[np.ndarray, float]:
    """Joint state of FIELD and k atoms as a product over atoms per branch.

    pairs[b, i] is atom i's (c_plus, c_minus) in field branch b. Returns the
    normalized (2, 2^k) vector, vector[b, i] with i the big-endian qubit index
    (atom 0 is the most significant bit, bit 0 = |+>, bit 1 = |->), and the
    leakage: the probability that fell outside the two-mode subspaces, where
    an atom's branch norm is below one.
    """
    pairs = np.asarray(pairs, dtype=np.complex128)
    if pairs.ndim != 3 or pairs.shape[::2] != (2, 2) or not 1 <= pairs.shape[1] <= MAX_ATOMS:
        raise ValueError(f"pairs must have shape (2, k <= {MAX_ATOMS}, 2), got {pairs.shape}")
    if np.any(np.sum(np.abs(pairs) ** 2, axis=2) > 1.0 + 1e-9):
        raise ValueError("an atom's branch norm exceeds 1")
    # each outer product appends one atom as the next less significant bit
    vec = np.ones((2, 1), dtype=np.complex128)
    for i in range(pairs.shape[1]):
        vec = (vec[:, :, None] * pairs[:, i, None, :]).reshape(2, -1)
    vec *= FIELD
    raw = float(np.linalg.norm(vec) ** 2)
    if raw <= 0.0:
        raise ValueError("joint state has zero norm")
    return vec / math.sqrt(raw), max(0.0, 1.0 - raw)


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
    vector: np.ndarray, basis: np.ndarray, outcome: int
) -> tuple[float, np.ndarray]:
    """Born-rule projection of compose's (2, 2^k) vector onto field basis row `outcome`.

    Returns (probability, renormalized atom state of dimension 2^k).
    """
    basis = _check_basis(basis, "field")
    if outcome not in (0, 1):
        raise MeasurementError(f"outcome must be 0 or 1, got {outcome}")
    post = basis[outcome].conj() @ vector
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


def ladder_pairs(
    c: adiabatic.TwoLevelCoeffs,
    d: DerivedParams,
    times,
    l_range: tuple[int, int] | None = None,
    include_stark: bool = False,
) -> np.ndarray:
    """Fock-branch (c_plus, c_minus) at each of `times` from one ladder propagation.

    Shape (len(times), 2), for an atom entering on +P_{l0}. c is the Fock
    branch's reduction, whose b_n the resolution guard checks; l_range sets
    the truncation (default ladder.default_range). A mirror atom has the same
    amplitudes with |+> and |-> swapped, a reversal left to the caller.
    """
    h = ladder.build_hamiltonian(c.n, c.l0, d, l_range, include_stark)
    ladder.check_resolution(h, c.b_n)
    st = ladder.initial_state(c.l0, l_range=l_range, n=c.n)
    amps = ladder.sample_evolution(st, h, times)
    ladder.check_norm_drift(amps, st, ladder.DEFAULT_TOL)
    return amps[:, [st.index_of(0), st.index_of(-c.l0)]]


def fitted_fidelity(post: np.ndarray, init_idx: int, flip_idx: int) -> float:
    """Fidelity of `post` with (|init> + e^{-i phi}|flip>)/sqrt2, maximized over phi."""
    return float((abs(post[init_idx]) + abs(post[flip_idx])) ** 2 / 2.0)


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
    selected_outcome: int = 0,
) -> EntanglementReport:
    """Run the full preparation protocol and report what came out.

    The field starts in (|0> + |n0>)/sqrt2. mode "opposite" sends the atoms
    in with momenta +P_{l0} and -P_{l0} (Bell psi family); "same" sends them
    all in along +P_{l0} (phi family / GHZ). Atom interaction times are
    s*pi/b_n, with the last atom offset by 2*r*pi/b_n. The field is measured
    in the (|0> +- |n0>)/sqrt2 basis by default; the computational
    {|0>, |n0>} basis shows the entanglement disappearing with the branch
    coherence.
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
    if verdict is RegimeVerdict.VIOLATED:
        raise RegimeError(
            f"chi*n/w_rec = {abs(d.regime_ratio):.3g} is outside the Bragg regime"
        )

    c = adiabatic.coeffs(p.n0, p.l0, d)
    t1, t2 = adiabatic.pulse_times(c, s, r)
    times = [t1] * (k - 1) + [t2]
    # opposite: |+-> in, |-+> flipped; same: |+...+> in, |-...-> flipped
    if mode == "opposite":
        directions, init_idx, flip_idx = [1, -1], 0b01, 0b10
    else:
        directions, init_idx, flip_idx = [1] * k, 0, 2**k - 1
    inits = np.array([(1, 0) if drc == 1 else (0, 1) for drc in directions], dtype=np.complex128)
    # one closed-form solve per atom's Fock branch serves the adiabatic engine
    # and the scheduled target of either engine; a uniform -chi*n shift of the
    # Fock-branch diagonal is the global phase exp(+i chi n t) there
    stark_rate = d.chi * p.n0 if include_stark else 0.0
    sols = [adiabatic.solve(init, c, t) for init, t in zip(inits, times)]
    closed_form = np.array([(sol.c_plus, sol.c_minus) for sol in sols])
    closed_form *= np.exp(1j * stark_rate * np.array(times))[:, None]
    if engine == "adiabatic":
        fock = closed_form
    else:
        pairs = ladder_pairs(c, d, times, include_stark=include_stark)
        fock = np.where(np.array(directions)[:, None] == 1, pairs, pairs[:, ::-1])
    # the vacuum branch (a = b = 0) keeps its initial amplitudes
    vector, leakage = compose(np.stack([inits, fock]))

    # scheduled target: family from the preparation mode, sign from r parity,
    # phase from the closed-form flip coefficients
    sign_name = "plus" if r % 2 == 0 else "minus"
    if k == 2:
        scenario = f"bell-{mode}"
        kind = f"{'psi' if mode == 'opposite' else 'phi'}_{sign_name}"
    else:
        scenario = "ghz"
        kind = f"ghz_{sign_name}"

    # each atom's flipped amplitude is the one its initial state leaves at zero
    f_pred = math.prod(closed_form[inits == 0], start=1.0 + 0.0j)
    sign = 1.0 if r % 2 == 0 else -1.0
    target_phase = -float(np.angle(sign * f_pred))

    phase_measured = -float(np.angle(vector[1, flip_idx] * np.conj(vector[0, init_idx])))

    labels, basis_of = _BASES[basis]
    basis_mat = basis_of()
    outcomes: dict[str, dict] = {}
    probs: dict[str, float] = {}
    collapse: dict | None = None
    for idx, label in enumerate(labels):
        prob, post = measure_field(vector, basis_mat, idx)
        out_kind = kind if idx == 0 else _flip_kind(kind)
        if fit_phase:
            fid = fitted_fidelity(post, init_idx, flip_idx)
        else:
            target = np.zeros(2**k, dtype=np.complex128)
            target[init_idx] = 1.0
            target[flip_idx] = (1 if out_kind.endswith("plus") else -1) * np.exp(-1j * target_phase)
            fid = fidelity(post, target / math.sqrt(2.0))
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

    vac_pops = np.abs(vector[0] / np.linalg.norm(vector[0])) ** 2
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
        leakage=leakage,
        outcome_probabilities=probs,
        outcomes=outcomes,
        vacuum_deviation=vacuum_deviation,
        verdict=verdict.value,
        selected_outcome=selected_label,
        ghz_collapse=collapse,
    )


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
