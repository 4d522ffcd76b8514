"""Joint atom-field states, field measurement and entanglement bookkeeping.

Each atom is reduced to a momentum qubit {|+> = P_{+l0}, |-> = P_{-l0}}; in a
ladder-backed run the population outside those two orders is recorded as
leakage rather than silently renormalized away per atom. The separable
Hamiltonian keeps the joint state of k atoms and the field
(|0> + |n0>)/sqrt(2) (FIELD) at exactly one product of atom pairs per field
branch, so a state is the pair (weights, pairs) meaning
sum_b weights[b] * (x)_i pairs[b][i], with pairs[b][i] atom i's
(c_plus, c_minus) in field branch b (0 vacuum, 1 Fock). Every score is read
from that form in O(k) complex products; no 2^k vector is built. A qubit
string is a sequence of per-atom indices, 0 for |+> and 1 for |->.

Projecting the field onto {|0>, |n0>} keeps one branch, a product state;
projecting onto (|0> +- |n0>)/sqrt(2) transfers the branch coherence to the
atoms and yields the Bell (k=2) or GHZ (k>=3) states. Both bases are
available so that this dependence can be demonstrated, not assumed. Every
target is (|init> + rel |flip>)/sqrt(2) for the atoms' initial string and
its complement, so a fidelity reads two amplitudes. The concurrence of a
two-atom pure state is the closed form 2|c00*c11 - c01*c10| (Wootters).

Phase convention: targets are written (|u> + sign * e^{-i phi} |v>)/sqrt(2),
with u the atoms' initial qubit string and v the flipped one, both fixed by
the preparation mode. The exact per-atom propagator puts a factor +-i, set
by the sign of b_n and the pulse multiple s, on every flipped amplitude, on
top of the level-shift phase e^{-i a_n t} and, with the Stark term, the
Fock-branch phase e^{+i chi n0 t}. The scheduled target takes its phase from
the same closed-form Fock-branch pairs that the adiabatic engine prepares,
so one solve per atom serves both. Both engines give each atom's Fock-branch
pair as (kept, flipped), for an atom entering on |+>; `prepare` reverses a
mirror atom's pair (one entering on |->) and adds the vacuum branch (a = b =
0, no Stark shift at n = 0), which keeps the initial amplitudes. Reports carry
the measured phase and this scheduled phase (phase_reference_rad) side by
side; for the adiabatic engine they agree exactly, up to the sign that the
*_minus kinds carry.

run_scenario refuses a run outside the Bragg regime with params.RegimeError,
through params.check_regime, the one refusal that `simulate` shares.

The module is plain Python (cmath and math): a basis is a pair of rows, and
superposition_basis/computational_basis return tuples of them; lists,
tuples and ndarrays are all accepted where a basis or pairs are taken. Only
the ladder engine loads `ladder`, and with it numpy, when ladder_pairs is
called.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, fields

from . import adiabatic
from .params import (
    DEFAULT_GUARD,
    DerivedParams,
    PhysicalParams,
    check_regime,
    derive,
    physical_dict,
)

MAX_ATOMS = 10  # desk-scale bound; the tests check scoring against dense 2^k vectors up to it


class MeasurementError(ValueError):
    """Measurement request is ill-posed (bad basis or zero-probability outcome)."""


INV_SQRT2 = 1.0 / math.sqrt(2.0)
# the cavity field (|0> + |n0>)/sqrt2, one amplitude per branch (0 vacuum, 1 Fock)
FIELD = (INV_SQRT2,) * 2


def _norm2(pair) -> float:
    return abs(pair[0]) ** 2 + abs(pair[1]) ** 2


def compose(pairs) -> tuple[tuple, float]:
    """Joint state of FIELD and k atoms as a product over atoms per branch.

    pairs[b][i] is atom i's (c_plus, c_minus) in field branch b, nested
    sequences or an array of shape (2, k, 2). Returns the normalized state
    (weights, pairs), its weights FIELD over the norm, and the leakage: the
    probability that fell outside the two-mode subspaces, where an atom's
    branch norm is below one.
    """
    try:  # unpacking refuses a third branch or a third qubit level
        vacuum, fock = pairs = [[(complex(p), complex(m)) for p, m in branch] for branch in pairs]
        shaped = len(vacuum) == len(fock) and 1 <= len(vacuum) <= MAX_ATOMS
    except (TypeError, ValueError):
        shaped = False
    if not shaped:
        raise ValueError(f"pairs must have shape (2, k <= {MAX_ATOMS}, 2)")
    norms = [[_norm2(pair) for pair in branch] for branch in pairs]
    if max(map(max, norms)) > 1.0 + 1e-9:
        raise ValueError("an atom's branch norm exceeds 1")
    # the field branches are orthogonal, so their norms add
    raw = sum(f * f * math.prod(branch) for f, branch in zip(FIELD, norms))
    if raw <= 0.0:
        raise ValueError("joint state has zero norm")
    return ([f / math.sqrt(raw) for f in FIELD], pairs), max(0.0, 1.0 - raw)


def prepare(fock, init_bits) -> tuple[tuple, float]:
    """compose of atoms entering on init_bits, with Fock-branch pairs `fock`.

    fock[i] is atom i's (kept, flipped) pair: the amplitude left in the mode
    it entered on, then the one in the other mode. A mirror atom (bit 1) has
    its pair reversed into (c_plus, c_minus) order; the vacuum branch keeps
    each atom in its initial mode.
    """
    vacuum = [(1, 0) if q == 0 else (0, 1) for q in init_bits]
    fock = [pair if q == 0 else pair[::-1] for pair, q in zip(fock, init_bits, strict=True)]
    return compose([vacuum, fock])


def superposition_basis() -> tuple:
    """Field basis {(|0> + |n0>)/sqrt2, (|0> - |n0>)/sqrt2} as rows."""
    return ((INV_SQRT2, INV_SQRT2), (INV_SQRT2, -INV_SQRT2))


def computational_basis() -> tuple:
    """Field basis {|0>, |n0>} as rows."""
    return ((1.0, 0.0), (0.0, 1.0))


def _basis_row(basis, outcome: int, what: str) -> list[complex]:
    """Conjugated row `outcome` of a 2x2 basis whose rows are orthonormal within 1e-12."""
    try:
        (u0, u1), (v0, v1) = rows = [(complex(x), complex(y)) for x, y in basis]
    except (TypeError, ValueError):
        raise MeasurementError(f"{what} basis must be 2x2: two rows of two numbers") from None
    # the entries of rows @ rows^H - I; `<=` is False for a nan, which fails too
    gram = (abs(u0) ** 2 + abs(u1) ** 2 - 1, abs(v0) ** 2 + abs(v1) ** 2 - 1,
            abs(u0 * v0.conjugate() + u1 * v1.conjugate()))
    if not all(abs(g) <= 1e-12 for g in gram):
        raise MeasurementError(f"{what} basis is not orthonormal within 1e-12")
    if outcome not in (0, 1):
        raise MeasurementError(f"outcome must be 0 or 1, got {outcome}")
    return [x.conjugate() for x in rows[outcome]]


def _gram_norm2(weights, pairs) -> float:
    """<state|state> of sum_b weights[b] * (x)_i pairs[b][i].

    With A = <a|a>, B = <b|b> and O = <a|b> for the two products, the norm
    |x|^2 A + |y|^2 B + 2 Re(x* y O) cancels when the products nearly
    coincide (a rare outcome). It is summed instead as three terms that are
    never negative, (|x| sqrt(A) - |y| sqrt(B))^2 + 2|x||y| (sqrt(AB) - |O|)
    + 4|x||y||O| cos^2(arg(x* y O) / 2), with AB - |O|^2 built atom by atom
    from Lagrange's identity (|p|^2 + |m|^2)(|q|^2 + |n|^2) - |p* q + m* n|^2
    = |p n - m q|^2, so it keeps its relative accuracy.
    """
    (x, y), (a, b) = weights, pairs
    big_a = big_b = 1.0
    overlap = 1 + 0j
    gap = 0.0  # A*B - |O|^2 over the atoms so far
    for (p, m), (q, n) in zip(a, b):
        norm_a, norm_b = abs(p) ** 2 + abs(m) ** 2, abs(q) ** 2 + abs(n) ** 2
        gap = norm_a * norm_b * gap + abs(p * n - m * q) ** 2 * abs(overlap) ** 2
        big_a, big_b = big_a * norm_a, big_b * norm_b
        overlap *= p.conjugate() * q + m.conjugate() * n
    ax, ay, ao = abs(x), abs(y), abs(overlap)
    root = math.sqrt(big_a * big_b)
    psi = cmath.phase(x.conjugate() * y * overlap)
    return (
        (ax * math.sqrt(big_a) - ay * math.sqrt(big_b)) ** 2
        + 2.0 * ax * ay * (gap / (root + ao) if gap else 0.0)
        + 4.0 * ax * ay * ao * math.cos(0.5 * psi) ** 2
    )


def _check_normalized(state: tuple) -> None:
    norm = math.sqrt(_gram_norm2(*state))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"state must be normalized, got norm {norm}")


def _renormalized(weights: list, pairs: list, outcome: int) -> tuple[float, tuple]:
    """(probability, normalized state) of the projected atom state (weights, pairs)."""
    prob = _gram_norm2(weights, pairs)
    if prob < 1e-14:
        raise MeasurementError(f"outcome {outcome} has zero probability ({prob:.3e})")
    return prob, ([w / math.sqrt(prob) for w in weights], pairs)


def measure_field(state: tuple, basis, outcome: int) -> tuple[float, tuple]:
    """Born-rule projection of compose's state onto field basis row `outcome`.

    Returns (probability, renormalized atom state).
    """
    row = _basis_row(basis, outcome, "field")
    weights, pairs = state
    return _renormalized([u * w for u, w in zip(row, weights)], pairs, outcome)


def measure_atom(
    state: tuple, atom_index: int, basis, outcome: int
) -> tuple[float, tuple]:
    """Project one atom of a state onto basis row `outcome`; the rest remain."""
    v_plus, v_minus = _basis_row(basis, outcome, "atom")
    weights, pairs = state
    k = len(pairs[0])
    if not 0 <= atom_index < k:
        raise MeasurementError(f"atom index {atom_index} outside 0..{k - 1}")
    weights = [
        w * (v_plus * branch[atom_index][0] + v_minus * branch[atom_index][1])
        for w, branch in zip(weights, pairs)
    ]
    pairs = [branch[:atom_index] + branch[atom_index + 1 :] for branch in pairs]
    return _renormalized(weights, pairs, outcome)


def _product(branch: list, bits) -> complex:
    """Amplitude of the qubit string `bits` in one product of atom pairs."""
    return math.prod((pair[q] for pair, q in zip(branch, bits, strict=True)), start=1 + 0j)


def _amplitude(state: tuple, bits) -> complex:
    weights, pairs = state
    return sum(w * _product(branch, bits) for w, branch in zip(weights, pairs))


def fidelity(state: tuple, init_bits, flip_bits, rel: complex) -> float:
    """|<target|state>|^2 of a normalized state, target (|init> + rel |flip>)/sqrt2."""
    _check_normalized(state)
    if abs(abs(rel) - 1.0) > 1e-6:
        raise ValueError(f"target phase factor must have modulus 1, got {abs(rel)}")
    overlap = _amplitude(state, init_bits) + rel.conjugate() * _amplitude(state, flip_bits)
    return abs(overlap) ** 2 / 2.0


def fitted_fidelity(state: tuple, init_bits, flip_bits) -> float:
    """Fidelity of a normalized state with (|init> + e^{-i phi}|flip>)/sqrt2, maximized over phi."""
    _check_normalized(state)
    return (abs(_amplitude(state, init_bits)) + abs(_amplitude(state, flip_bits))) ** 2 / 2.0


def concurrence(state: tuple) -> float:
    """Concurrence 2|c00*c11 - c01*c10| of a normalized two-atom pure state."""
    k = len(state[1][0])
    if k != 2:
        raise ValueError(f"concurrence needs a two-atom state, got {k} atoms")
    _check_normalized(state)
    c00, c01, c10, c11 = (_amplitude(state, bits) for bits in ((0, 0), (0, 1), (1, 0), (1, 1)))
    return 2.0 * abs(c00 * c11 - c01 * c10)


# --- scenario runner ---------------------------------------------------------

_BASES = {
    "superposition": (("plus", "minus"), superposition_basis),
    "computational": (("vacuum", "fock"), computational_basis),
}
_SIGN_NAMES = {1: "plus", -1: "minus"}


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


def ladder_pairs(
    c: adiabatic.TwoLevelCoeffs,
    d: DerivedParams,
    times,
    guard: int = DEFAULT_GUARD,
    include_stark: bool = False,
):
    """Fock-branch (kept, flipped) at each of `times` from one ladder propagation.

    An ndarray of shape (len(times), 2): the (c_plus, c_minus) of an atom
    entering on +P_{l0}. c is the Fock branch's reduction, whose b_n the
    resolution guard checks; the ladder keeps `guard` orders beyond the
    resonant pair (params.default_range). A mirror atom has the same (kept,
    flipped) pair, which `prepare` reverses. Loads `ladder`, and with it
    numpy, on first use.
    """
    from . import ladder

    h = ladder.build_hamiltonian(c.n, c.l0, d, guard, include_stark)
    amps = ladder.evolve(h, c.b_n, times)
    return amps[:, [h.index_of(0), h.index_of(-c.l0)]]


def _grade(prob: float, post: tuple, init_bits, flip_bits, rel: complex | None) -> dict:
    """Scores of one outcome's atom state; rel None fits the target phase."""
    if rel is None:
        fid = fitted_fidelity(post, init_bits, flip_bits)
    else:
        fid = fidelity(post, init_bits, flip_bits, rel)
    conc = concurrence(post) if len(init_bits) == 2 else None
    return {"probability": prob, "fidelity": fid, "concurrence": conc}


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
    coherence. A violated Bragg regime raises params.RegimeError.
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
    verdict = check_regime(d, p.n0)
    c = adiabatic.coeffs(p.n0, p.l0, d)
    t1, t2 = adiabatic.pulse_times(c, s, r)
    times = [t1] * (k - 1) + [t2]
    # opposite: |+-> in, |-+> flipped; same: |+...+> in, |-...-> flipped
    init_bits = [0, 1] if mode == "opposite" else [0] * k
    flip_bits = [1 - q for q in init_bits]
    # one closed-form solve per atom's Fock branch serves the adiabatic engine
    # and the scheduled target of either engine
    sols = [adiabatic.solve((1, 0), c, t) for t in times]
    closed_form = [(sol.c_plus, sol.c_minus) for sol in sols]
    if include_stark:
        # a uniform -chi*n shift of the Fock-branch diagonal is the global
        # phase exp(+i chi n t) there
        stark = [cmath.exp(1j * (d.chi * p.n0) * t) for t in times]
        closed_form = [(kp * f, fl * f) for (kp, fl), f in zip(closed_form, stark)]
    if engine == "adiabatic":
        fock = closed_form
    else:
        fock = ladder_pairs(c, d, times, include_stark=include_stark).tolist()
    state, leakage = prepare(fock, init_bits)
    vacuum, fock_branch = state[1]

    # scheduled target: family from the preparation mode, sign from r parity,
    # phase from the closed-form flipped amplitudes
    sign = 1 - 2 * (r % 2)
    if k == 2:
        scenario, family = f"bell-{mode}", "psi" if mode == "opposite" else "phi"
    else:
        scenario, family = "ghz", "ghz"
    kind = f"{family}_{_SIGN_NAMES[sign]}"
    target_phase = -cmath.phase(sign * math.prod((f for _, f in closed_form), start=1 + 0j))
    target = cmath.exp(-1j * target_phase)

    # both branch weights are FIELD over the same norm
    flipped, kept = _product(fock_branch, flip_bits), _product(vacuum, init_bits)
    phase_measured = -cmath.phase(flipped * kept.conjugate())

    # the second outcome of either basis carries the opposite sign
    labels, basis_of = _BASES[basis]
    outcomes, collapse = {}, None
    for idx, (label, out_sign) in enumerate(zip(labels, (sign, -sign))):
        prob, post = measure_field(state, basis_of(), idx)
        rel = None if fit_phase else out_sign * target
        outcomes[label] = {
            **_grade(prob, post, init_bits, flip_bits, rel),
            "kind": f"{family}_{_SIGN_NAMES[out_sign]}",
        }
        if k >= 3 and idx == selected_outcome:
            # reading atom 0 in (|+> +- |->)/sqrt2 leaves a (k-1)-atom GHZ state
            collapse = {}
            for x, (x_label, x_sign) in enumerate((("x_plus", 1), ("x_minus", -1))):
                x_prob, rest = measure_atom(post, 0, superposition_basis(), x)
                rel = x_sign * out_sign * target
                collapse[x_label] = _grade(x_prob, rest, [0] * (k - 1), [1] * (k - 1), rel)

    selected_label = labels[selected_outcome]
    selected = outcomes[selected_label]

    # the vacuum branch's population outside the initial string, which bounds
    # every other string's population
    vacuum_deviation = 1.0 - abs(kept) ** 2 / math.prod(map(_norm2, vacuum))

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
        outcome_probabilities={label: out["probability"] for label, out in outcomes.items()},
        outcomes=outcomes,
        vacuum_deviation=vacuum_deviation,
        verdict=verdict.value,
        selected_outcome=selected_label,
        ghz_collapse=collapse,
    )
