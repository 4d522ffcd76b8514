"""Joint atom-field states, field measurement and entanglement bookkeeping.

Each atom is reduced to a momentum qubit {|+> = P_{+l0}, |-> = P_{-l0}}; in a
ladder-backed run the population outside those two orders is recorded as
leakage rather than silently renormalized away per atom. The separable
Hamiltonian keeps the joint state of k atoms and the field
(|0> + |n0>)/sqrt(2) (FIELD) at exactly one product of atom pairs per field
branch, so a state is the pair (weights, pairs) meaning
sum_b weights[b] * (x)_i pairs[b][i], with pairs[b][i] atom i's
(c_plus, c_minus) in field branch b (0 vacuum, 1 Fock). Every score is read
from that form in O(k) complex products; no 2^k vector is built. The norm of
a state needs only the Gram summary of its two products (their norms, their
overlap and the gap AB - |O|^2), which depends on the pairs alone: compose
and measure_atom return the pairs as Products, which computes that summary
once, so every later norm is O(1). compose takes each atom's norm once, in
that loop. Products also keeps each qubit string's amplitude in either
product, which both field outcomes and the concurrence read, and the
products measure_atom leaves at an atom index, which both of its outcomes
share. Every guard runs on every call. A norm or probability beyond the
largest float, or a square on the way to it, is refused by the guard that
reads it: compose's norm guard, a score's normalization check or a
measurement's MeasurementError, never an OverflowError. A qubit string is a
sequence of per-atom indices, 0 for |+> and 1 for |->.

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
Fock-branch phase e^{+i chi n0 t}. The Fock branch is one record,
adiabatic.TwoLevelCoeffs, and each engine is one function of it and the
times: adiabatic.branch_pairs or ladder.branch_pairs, which return each
time's (kept, flipped) pair for an atom entering on |+>. The scheduled
target takes its phase from the closed-form pairs, which the adiabatic
engine prepares too. The first k - 1 atoms share the time t1 and the last
has t2, so run_scenario asks the engine for these two times once and gives
each pair to every atom at that time. `prepare` reverses a mirror atom's
pair (one entering on |->) and adds the vacuum branch (a = b = 0, no Stark
shift at n = 0), which keeps the initial amplitudes. Reports carry the
measured phase and this scheduled phase (phase_reference_rad) side by side;
for the adiabatic engine they agree exactly, up to the sign that the *_minus
kinds carry.

run_scenario refuses a run outside the Bragg regime with params.RegimeError,
through params.check_regime, the one refusal that `simulate` shares.

The module is plain Python (cmath and math): a basis is a pair of rows, and
superposition_basis/computational_basis return one module-level tuple of
them each, whose rows are checked once, at import; lists, tuples and
ndarrays are all accepted where a basis or pairs are taken, and any other
basis is checked on every call. Only the ladder engine loads `ladder`, and
with it numpy, when run_scenario calls it. json_text is the one JSON emitter
of the package: the text of json.dumps(obj, sort_keys=True, indent=2) and a
newline, byte for byte. A dict whose keys are all exactly str is written
from a key plan, its sorted keys and their encoded `"key": ` prefixes at
its depth, made once per depth and key tuple (an lru_cache of the default
size); scalars inside a container are written in place. Any other dict
takes json's own key rules. Its report, EntanglementReport, is a namedtuple
(params docstring).
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple
from _json import encode_basestring_ascii  # json.encoder's escaper, without loading json

from . import adiabatic
from .params import PhysicalParams, check_regime, derive, physical_dict

MAX_ATOMS = 10  # desk-scale bound; the tests check scoring against dense 2^k vectors up to it


class MeasurementError(ValueError):
    """Measurement request is ill-posed (bad basis or zero-probability outcome)."""


INV_SQRT2 = 1.0 / math.sqrt(2.0)
# the cavity field (|0> + |n0>)/sqrt2, one amplitude per branch (0 vacuum, 1 Fock)
FIELD = (INV_SQRT2,) * 2


# json's texts of the float reprs nan, inf and -inf; no other scalar's text is one of these
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# keyed by exact type, so repr is float.__repr__ or int.__repr__, json's text for each
_SCALARS = {
    str: encode_basestring_ascii,
    float: repr,
    int: repr,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


# the key types of a dict that a key plan writes; a str subclass may sort its own way
_PLANNED_KEYS = {str}


@functools.lru_cache
def _plan(newline: str, keys: tuple) -> tuple[tuple, str]:
    """(sorted keys, %-template of the text) of a dict with these str keys
    nested below `newline`: each key's encoded `"key": ` prefix at that depth,
    followed by a slot for its value."""
    inner = newline + "  "
    ordered = tuple(sorted(keys))
    items = [encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in ordered]
    return ordered, "{" + inner + ("," + inner).join(items) + newline + "}"


def _texts(values, inner: str) -> list[str]:
    """json text of each value nested at `inner`, a scalar's looked up in place."""
    texts = []
    for value in values:
        scalar = _SCALARS.get(type(value))
        if scalar is None:
            texts.append(_json(value, inner))
        else:
            text = scalar(value)
            texts.append(_NONFINITE.get(text, text))
    return texts


def _json(obj, newline: str) -> str:
    """json.dumps text of obj (sort_keys, indent=2) nested below `newline`,
    a newline and the indentation of the enclosing container."""
    kind = type(obj)
    if kind is dict:
        if obj and {*map(type, obj)} == _PLANNED_KEYS:
            keys, template = _plan(newline, tuple(obj))
            return template % tuple(_texts(map(obj.__getitem__, keys), newline + "  "))
    elif kind is not list and kind is not tuple:
        scalar = _SCALARS.get(kind)
        if scalar is None:  # a subclass, in json's isinstance order
            if isinstance(obj, str):
                scalar = encode_basestring_ascii
            elif isinstance(obj, int):
                scalar = int.__repr__
            elif isinstance(obj, float):
                scalar = float.__repr__
        if scalar is not None:
            text = scalar(obj)
            return _NONFINITE.get(text, text)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join(_texts(obj, inner)) + newline + "]"
    if isinstance(obj, dict):  # a subclass, or keys not all exactly str
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            text = key
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(
                        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
                    )
                text = _json(key, "")
            items.append(f"{encode_basestring_ascii(text)}: {_json(obj[key], inner)}")
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def json_text(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) + "\n", byte for byte.

    The standard library falls back to its pure-Python encoder for an
    indented dump; this one looks each scalar's text up by its exact type
    and writes a dict whose keys are all exactly str from its key plan.
    """
    return _json(obj, "\n") + "\n"


def compose(pairs) -> tuple[tuple, float]:
    """Joint state of FIELD and k atoms as a product over atoms per branch.

    pairs[b][i] is atom i's (c_plus, c_minus) in field branch b, nested
    sequences or an array of shape (2, k, 2). Returns the normalized state
    (weights, pairs), its weights FIELD over the norm and its pairs as
    Products, and the leakage: the probability that fell outside the
    two-mode subspaces, where an atom's branch norm is below one.
    """
    try:  # unpacking refuses a third branch or a third qubit level
        vacuum, fock = pairs = [[(complex(p), complex(m)) for p, m in branch] for branch in pairs]
        shaped = len(vacuum) == len(fock) and 1 <= len(vacuum) <= MAX_ATOMS
    except (TypeError, ValueError):
        shaped = False
    if not shaped:
        raise ValueError(f"pairs must have shape (2, k <= {MAX_ATOMS}, 2)")
    try:
        pairs = Products(pairs, checked=True)
    except OverflowError:  # a square beyond the largest float: a norm far above 1
        raise ValueError(_NORM_REFUSAL) from None
    # the field branches are orthogonal, so their norms add
    (f_vacuum, f_fock), (norm_vacuum, norm_fock) = FIELD, pairs.norms
    raw = 0 + f_vacuum * f_vacuum * norm_vacuum + f_fock * f_fock * norm_fock
    if not raw > 0.0:  # written so that a nan fails it
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


_SUPERPOSITION = ((INV_SQRT2, INV_SQRT2), (INV_SQRT2, -INV_SQRT2))
_COMPUTATIONAL = ((1.0, 0.0), (0.0, 1.0))


def superposition_basis() -> tuple:
    """Field basis {(|0> + |n0>)/sqrt2, (|0> - |n0>)/sqrt2} as rows, one immutable tuple."""
    return _SUPERPOSITION


def computational_basis() -> tuple:
    """Field basis {|0>, |n0>} as rows, one immutable tuple."""
    return _COMPUTATIONAL


def _conjugated_rows(basis, what: str) -> tuple:
    """Conjugated rows of a 2x2 basis whose rows are orthonormal within 1e-12."""
    try:
        (u0, u1), (v0, v1) = rows = [(complex(x), complex(y)) for x, y in basis]
    except (TypeError, ValueError):
        raise MeasurementError(f"{what} basis must be 2x2: two rows of two numbers") from None
    # the entries of rows @ rows^H - I; `<=` is False for a nan, which fails too
    gram = (abs(u0) ** 2 + abs(u1) ** 2 - 1, abs(v0) ** 2 + abs(v1) ** 2 - 1,
            abs(u0 * v0.conjugate() + u1 * v1.conjugate()))
    if not all(abs(g) <= 1e-12 for g in gram):
        raise MeasurementError(f"{what} basis is not orthonormal within 1e-12")
    return tuple([(x.conjugate(), y.conjugate()) for x, y in rows])


# the named bases live as long as the module: their rows are checked once, here
_NAMED_ROWS = {
    id(basis): _conjugated_rows(basis, "field") for basis in (_SUPERPOSITION, _COMPUTATIONAL)
}


def _basis_row(basis, outcome: int, what: str) -> tuple[complex, complex]:
    """Conjugated row `outcome` of a 2x2 basis whose rows are orthonormal within 1e-12."""
    rows = _NAMED_ROWS.get(id(basis))
    if rows is None:
        rows = _conjugated_rows(basis, what)
    if outcome not in (0, 1):
        raise MeasurementError(f"outcome must be 0 or 1, got {outcome}")
    return rows[outcome]


class Products(tuple):
    """The two products of atom pairs of a state, (vacuum branch, Fock branch).

    A tuple of tuples of pairs, so `weights, pairs = state` and pairs[b][i]
    read as before and no caller's edit makes what it keeps stale: `norms`,
    (A, B), and `summary` (_summary), made with it (`checked` runs compose's
    norm guard there), then terms and without, each made on first use. Any
    other sequence of two branches is wrapped by _products on use.
    """

    def __new__(cls, branches, checked: bool = False):
        # tuple() of a list, not of an iterator: CPython sizes a tuple built from
        # an iterator by resizing, off the free list that its release then fills
        branches = [tuple([tuple(pair) for pair in branch]) for branch in branches]
        self = super().__new__(cls, branches)
        self.norms, self.summary = _summary(self, checked)
        self._terms, self._without = {}, {}
        return self

    def terms(self, bits) -> tuple[complex, complex]:
        """Amplitudes of the qubit string `bits` in the vacuum and the Fock product."""
        key = tuple(bits)
        terms = self._terms.get(key)
        if terms is None:
            terms = self._terms[key] = (_product(self[0], bits), _product(self[1], bits))
        return terms

    def without(self, atom: int) -> Products:
        """The two products with atom `atom` (a valid index) left out."""
        rest = self._without.get(atom)
        if rest is None:
            rest = self._without[atom] = _spliced(self, atom)
        return rest


def _spliced(pairs, atom: int) -> Products:
    # spliced, not added: `+` on two ndarray rows would sum them elementwise
    return Products([[*branch[:atom], *branch[atom + 1 :]] for branch in pairs])


def _products(pairs) -> Products:
    return pairs if type(pairs) is Products else Products(pairs)


_NORM_REFUSAL = "an atom's branch norm exceeds 1 or is not a number"


def _summary(pairs, checked: bool) -> tuple[tuple, tuple]:
    """(A, B) and the O(k) part of the norm of sum_b weights[b] * (x)_i pairs[b][i].

    With A = <a|a>, B = <b|b> and O = <a|b> for the two products, the part
    is (sqrt A, sqrt B, O, |O|, (AB - |O|^2) / (sqrt(AB) + |O|)), the last
    sqrt(AB) - |O| without cancellation: AB - |O|^2 is built atom by atom
    from Lagrange's identity (|p|^2 + |m|^2)(|q|^2 + |n|^2) - |p* q + m* n|^2
    = |p n - m q|^2, so it keeps its relative accuracy. When checked, an
    atom whose norm in either branch exceeds 1 + 1e-9, or is not a number,
    is refused as soon as it is read.
    """
    a, b = pairs
    big_a = big_b = 1.0
    overlap = 1 + 0j
    gap = 0.0  # A*B - |O|^2 over the atoms so far
    for (p, m), (q, n) in zip(a, b):
        norm_a, norm_b = abs(p) ** 2 + abs(m) ** 2, abs(q) ** 2 + abs(n) ** 2
        # written so that a nan fails it
        if checked and not (norm_a <= 1.0 + 1e-9 and norm_b <= 1.0 + 1e-9):
            raise ValueError(_NORM_REFUSAL)
        gap = norm_a * norm_b * gap + abs(p * n - m * q) ** 2 * abs(overlap) ** 2
        big_a, big_b = big_a * norm_a, big_b * norm_b
        overlap *= p.conjugate() * q + m.conjugate() * n
    ao = abs(overlap)
    root = math.sqrt(big_a * big_b)
    summary = math.sqrt(big_a), math.sqrt(big_b), overlap, ao, gap / (root + ao) if gap else 0.0
    return (big_a, big_b), summary


def _gram_norm2(weights, summary: tuple) -> float:
    """<state|state> of the state with these weights and pairs of this _summary.

    The norm |x|^2 A + |y|^2 B + 2 Re(x* y O) cancels when the products
    nearly coincide (a rare outcome). It is summed instead as three terms
    that are never negative, (|x| sqrt(A) - |y| sqrt(B))^2
    + 2|x||y| (sqrt(AB) - |O|) + 4|x||y||O| cos^2(arg(x* y O) / 2).
    """
    x, y = weights
    root_a, root_b, overlap, ao, lagrange = summary
    ax, ay = abs(x), abs(y)
    psi = cmath.phase(x.conjugate() * y * overlap)
    return (
        (ax * root_a - ay * root_b) ** 2
        + 2.0 * ax * ay * lagrange
        + 4.0 * ax * ay * ao * math.cos(0.5 * psi) ** 2
    )


def _check_normalized(state: tuple) -> None:
    weights, pairs = state
    try:
        norm = math.sqrt(_gram_norm2(weights, _products(pairs).summary))
    except OverflowError:  # a square beyond the largest float
        norm = math.inf
    if not abs(norm - 1.0) <= 1e-6:
        raise ValueError(f"state must be normalized, got norm {norm}")


def _renormalized(weights: list, pairs: Products, outcome: int) -> tuple[float, tuple]:
    """(probability, normalized state) of the projected atom state (weights, pairs)."""
    prob = _gram_norm2(weights, pairs.summary)
    if not prob >= 1e-14:
        raise MeasurementError(f"outcome {outcome} has zero probability ({prob:.3e})")
    if prob == math.inf:
        raise _beyond_floats(outcome)
    return prob, ([w / math.sqrt(prob) for w in weights], pairs)


def _beyond_floats(outcome: int) -> MeasurementError:
    """The refusal of an outcome whose probability, or a square on the way to
    it, is beyond the largest float."""
    return MeasurementError(f"outcome {outcome} has a probability beyond the largest float")


def measure_field(state: tuple, basis, outcome: int) -> tuple[float, tuple]:
    """Born-rule projection of compose's state onto field basis row `outcome`.

    Returns (probability, renormalized atom state).
    """
    row = _basis_row(basis, outcome, "field")
    weights, pairs = state
    try:
        return _renormalized([u * w for u, w in zip(row, weights)], _products(pairs), outcome)
    except OverflowError:
        raise _beyond_floats(outcome) from None


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
    try:
        # a caller's own pairs are spliced as they are, with nothing kept
        rest = pairs.without(atom_index) if type(pairs) is Products else _spliced(pairs, atom_index)
        return _renormalized(weights, rest, outcome)
    except OverflowError:
        raise _beyond_floats(outcome) from None


def _product(branch: tuple, bits) -> complex:
    """Amplitude of the qubit string `bits` in one product of atom pairs."""
    amp = 1 + 0j
    for pair, q in zip(branch, bits, strict=True):
        amp *= pair[q]
    return amp


def _amplitude(state: tuple, bits) -> complex:
    (x, y), pairs = state
    vacuum, fock = _products(pairs).terms(bits)
    return 0 + x * vacuum + y * fock


def fidelity(state: tuple, init_bits, flip_bits, rel: complex) -> float:
    """|<target|state>|^2 of a normalized state, target (|init> + rel |flip>)/sqrt2."""
    _check_normalized(state)
    if not abs(abs(rel) - 1.0) <= 1e-6:
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


_REPORT_FIELDS = """scenario engine parameters target_kind fidelity concurrence
    phase_measured_rad phase_reference_rad leakage outcome_probabilities outcomes
    vacuum_deviation verdict selected_outcome ghz_collapse"""


class EntanglementReport(namedtuple("EntanglementReport", _REPORT_FIELDS, defaults=(None,))):
    """Flat result record for one Bell/GHZ preparation run.

    str: scenario, engine, target_kind, verdict, selected_outcome. dict:
    parameters, outcome_probabilities, outcomes. float: fidelity, leakage,
    vacuum_deviation, the phases (rad) and concurrence, None beyond two atoms.
    ghz_collapse: dict, default None (two atoms), which to_dict leaves out.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        out = self._asdict()
        if self.ghz_collapse is None:
            del out["ghz_collapse"]
        return out

    def to_json(self) -> str:
        return json_text(self.to_dict())


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
    c = adiabatic.coeffs(p.n0, p.l0, d, include_stark)
    t1, t2 = adiabatic.pulse_times(c, s, r)
    times = [t1] * (k - 1) + [t2]
    # opposite: |+-> in, |-+> flipped; same: |+...+> in, |-...-> flipped
    init_bits, flip_bits = ((0, 1), (1, 0)) if mode == "opposite" else ((0,) * k, (1,) * k)
    # the closed form at each distinct time serves the adiabatic engine and
    # the scheduled target of either engine
    closed_form = adiabatic.branch_pairs(c, (t1, t2))
    if engine == "adiabatic":
        fock = closed_form
    else:
        from . import ladder

        fock = ladder.branch_pairs(c, (t1, t2))
    # the first k - 1 atoms take the pair at t1, the last the pair at t2
    closed_form, fock = ([at_t1] * (k - 1) + [at_t2] for at_t1, at_t2 in (closed_form, fock))
    state, leakage = prepare(fock, init_bits)
    products = state[1]

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
    flipped, kept = products.terms(flip_bits)[1], products.terms(init_bits)[0]
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
                collapse[x_label] = _grade(x_prob, rest, (0,) * (k - 1), (1,) * (k - 1), rel)

    selected_label = labels[selected_outcome]
    selected = outcomes[selected_label]

    # the vacuum branch's population outside the initial string, which bounds
    # every other string's population
    vacuum_deviation = 1.0 - abs(kept) ** 2 / products.norms[0]

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
