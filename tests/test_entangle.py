import cmath
import collections
import enum
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from braggbell import adiabatic, cli, entangle, ladder
from braggbell.entangle import (
    MeasurementError,
    compose,
    computational_basis,
    concurrence,
    fidelity,
    fitted_fidelity,
    measure_atom,
    measure_field,
    run_scenario,
    superposition_basis,
)
from braggbell.params import DerivedParams, RegimeError, derive, rubidium_preset, with_regime_ratio

INV_SQRT2 = 1.0 / math.sqrt(2.0)


# one atom's ((vacuum c_plus, c_minus), (Fock c_plus, c_minus))
PASSIVE = ((1.0, 0.0), (1.0, 0.0))
FLIPPER = ((1.0, 0.0), (0.0, 1.0))

# qubit strings (one index per atom, 0 = |+>) of the Bell families
PSI = ((0, 1), (1, 0))
PHI = ((0, 0), (1, 1))


def _pairs(*atoms):
    """compose's (branch, atom, qubit) array from per-atom branch pairs."""
    return np.array(atoms, dtype=np.complex128).transpose(1, 0, 2)


def _state(weights, *branches):
    """The state sum_b weights[b] * (x)_i branches[b][i] as entangle keeps it."""
    return tuple(weights), [[list(pair) for pair in branch] for branch in branches]


def _bell(bits, rel):
    """(|bits[0]> + rel |bits[1]>)/sqrt2 as two products."""
    return _state((INV_SQRT2, INV_SQRT2 * rel), *([(1, 0) if q == 0 else (0, 1) for q in s] for s in bits))


def _index(bits):
    """Big-endian index of a qubit string in the dense 2^k vector."""
    return int("".join(map(str, bits)), 2)


def _lossy_pairs(rng, k):
    """Random (2, k, 2) pairs, each of norm between 0.9 and 0.999."""
    v = rng.normal(size=(2, k, 2)) + 1j * rng.normal(size=(2, k, 2))
    return v / np.linalg.norm(v, axis=2, keepdims=True) * rng.uniform(0.9, 0.999, size=(2, k, 1))


# --- scores ------------------------------------------------------------------


def test_fidelity_basics():
    psi_plus = _bell(PSI, 1.0)
    assert fidelity(psi_plus, *PSI, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert fidelity(psi_plus, *PSI, -1.0) == pytest.approx(0.0, abs=1e-15)
    assert fidelity(psi_plus, *PHI, 1.0) == pytest.approx(0.0, abs=1e-15)
    # global phase invisible
    rotated = _state((np.exp(0.4j) * INV_SQRT2,) * 2, *psi_plus[1])
    assert fidelity(rotated, *PSI, 1.0) == pytest.approx(1.0, abs=1e-14)
    # the target's relative phase enters conjugated; the fit ignores it
    phased = _bell(PSI, np.exp(-0.77j))
    assert fidelity(phased, *PSI, np.exp(-0.77j)) == pytest.approx(1.0, abs=1e-15)
    assert fidelity(phased, *PSI, 1.0) == pytest.approx(math.cos(0.385) ** 2, abs=1e-15)
    assert fitted_fidelity(phased, *PSI) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        fidelity(psi_plus, (0, 1, 0), (1, 0, 1), 1.0)
    # an unnormalized state or a target phase factor off the unit circle is refused
    half = _state((0.5 * INV_SQRT2,) * 2, *psi_plus[1])
    with pytest.raises(ValueError, match="normalized"):
        fidelity(half, *PSI, 1.0)
    with pytest.raises(ValueError, match="normalized"):
        fitted_fidelity(half, *PSI)
    with pytest.raises(ValueError, match="modulus"):
        fidelity(psi_plus, *PSI, 0.5)


def test_concurrence_pure_states():
    assert concurrence(_bell(PSI, 1.0)) == pytest.approx(1.0, abs=1e-12)
    assert concurrence(_bell(PHI, -np.exp(-1.2j))) == pytest.approx(1.0, abs=1e-12)
    product = _state((1.0, 0.0), ((1, 0), (INV_SQRT2, INV_SQRT2)), ((0, 1), (1, 0)))
    assert concurrence(product) == pytest.approx(0.0, abs=1e-12)


def _cos_sin(theta):
    """cos(theta)|++> + sin(theta)|-->, whose concurrence is |sin(2 theta)|."""
    return _state((math.cos(theta), math.sin(theta)), ((1, 0), (1, 0)), ((0, 1), (0, 1)))


def test_concurrence_pure_closed_form():
    # for pure states C = 2|c00*c11 - c01*c10|
    for theta in np.linspace(0.0, math.pi, 13):
        assert concurrence(_cos_sin(theta)) == pytest.approx(abs(math.sin(2.0 * theta)), abs=1e-15)
    # non-orthogonal products: (|+>(|+> + |->) + |->|+>)/sqrt3 has C = 2/3
    skew = _state((1.0 / math.sqrt(3.0),) * 2, ((1, 0), (1, 1)), ((0, 1), (1, 0)))
    assert concurrence(skew) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_concurrence_pure_matches_density_matrix_path():
    bell = _bell(PSI, -1.0)
    product = _state((1.0, 0.0), ((1, 0), (INV_SQRT2, INV_SQRT2)), ((1, 0), (1, 0)))
    states = [(bell, [0, INV_SQRT2, -INV_SQRT2, 0]), (product, [INV_SQRT2, INV_SQRT2, 0, 0])]
    states += [(_cos_sin(t), [math.cos(t), 0, 0, math.sin(t)]) for t in (0.3, 1.1, 2.0)]
    for state, v in states:
        # the matrix path resolves its degenerate zero eigenvalues only to ~sqrt(eps)
        rho = np.outer(v, np.conj(v))
        assert concurrence(state) == pytest.approx(oracles.wootters_concurrence(rho), abs=5e-8)


def test_concurrence_pure_validates_input():
    ghz = _state((INV_SQRT2, INV_SQRT2), ((1, 0),) * 3, ((0, 1),) * 3)
    with pytest.raises(ValueError, match="two-atom"):
        concurrence(ghz)
    with pytest.raises(ValueError, match="normalized"):
        concurrence(_state((0.5, 0.5), ((1, 0), (0, 1)), ((0, 1), (1, 0))))


def test_concurrence_mixed_states():
    eye4 = np.eye(4) / 4.0
    assert oracles.wootters_concurrence(eye4) == 0.0
    psi_m = np.array([0.0, INV_SQRT2, -INV_SQRT2, 0.0])
    proj = np.outer(psi_m, psi_m.conj())
    for p, expect in [(1.0, 1.0), (0.5, 0.25), (1.0 / 3.0, 0.0), (0.2, 0.0)]:
        rho = p * proj + (1 - p) * np.eye(4) / 4.0
        assert oracles.wootters_concurrence(rho) == pytest.approx(expect, abs=1e-12)


def test_concurrence_validates_input():
    bad = np.eye(4) / 4.0 + 0.0j
    bad[0, 1] = 0.1  # not Hermitian
    with pytest.raises(ValueError):
        oracles.wootters_concurrence(bad)
    with pytest.raises(ValueError):
        oracles.wootters_concurrence(np.eye(4) / 2.0)  # trace 2
    neg = np.diag([0.5, 0.75, -0.25, 0.0])
    with pytest.raises(ValueError):
        oracles.wootters_concurrence(neg)
    with pytest.raises(ValueError):
        oracles.wootters_concurrence(np.eye(8) / 8.0)


# --- composition and measurement ---------------------------------------------


def test_compose_passive_atoms_has_no_entanglement():
    state, leakage = compose(_pairs(PASSIVE, PASSIVE))
    assert leakage == pytest.approx(0.0, abs=1e-12)
    prob, post = measure_field(state, superposition_basis(), 0)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert concurrence(post) == pytest.approx(0.0, abs=1e-12)
    # orthogonal outcome has zero probability -> must refuse to renormalize
    with pytest.raises(MeasurementError):
        measure_field(state, superposition_basis(), 1)


def test_compose_records_leakage():
    lossy = ((1.0, 0.0), (0.0, math.sqrt(0.98)))
    state, leakage = compose(_pairs(lossy, PASSIVE))
    # only the fock branch of atom 1 lost norm: total deficit = 0.02/2
    assert leakage == pytest.approx(0.01, rel=1e-9)
    weights, pairs = state
    assert np.linalg.norm(oracles.kron_product_state(pairs, weights)) == pytest.approx(1.0, abs=1e-12)


def _coincident_pairs(rng, k):
    """Lossy pairs whose Fock branch is the vacuum branch times a phase near 1.

    The two products then nearly coincide, and the superposition outcome 1
    has a probability near 1e-9.
    """
    vacuum = _lossy_pairs(rng, k)[0]
    return np.stack([vacuum, vacuum * np.exp(1e-4j / k * rng.uniform(0.5, 1.0, size=(k, 1)))])


@pytest.mark.parametrize("k", range(1, entangle.MAX_ATOMS + 1))
def test_scoring_matches_dense_oracle(k):
    # the two-product scores against the dense 2^k vector of tests/oracles.py
    # (np.kron chains, a field-row projection, np.tensordot over atom 0 and
    # Wootters' density-matrix formula); the paths differ only in rounding.
    # Both lose accuracy as eps/sqrt(prob) for an outcome of probability
    # prob, so the tolerance is 1e-13 absolute at prob = 1/2 and grows as
    # 1/sqrt(prob); measured worst over k <= 10: 8e-16 on the random pairs,
    # 1.1e-11 on the nearly coincident ones (prob down to 1e-9, tolerance 2e-9)
    rng = np.random.default_rng(100 + k)
    x_basis = superposition_basis()
    ghz = ((0,) * k, (1,) * k)
    alternating = (tuple(i % 2 for i in range(k)), tuple(1 - i % 2 for i in range(k)))
    for pairs in [_lossy_pairs(rng, k) for _ in range(4)] + [_coincident_pairs(rng, k)]:
        joint = oracles.kron_product_state(pairs, entangle.FIELD)
        raw = float(np.linalg.norm(joint) ** 2)
        state, leakage = compose(pairs)
        assert leakage == pytest.approx(1.0 - raw, abs=1e-13)
        for basis in (superposition_basis(), computational_basis()):
            for outcome in (0, 1):
                prob, post = measure_field(state, basis, outcome)
                dense_prob, dense = oracles.project_field(joint / math.sqrt(raw), basis[outcome])
                tol = 1e-13 / math.sqrt(2.0 * dense_prob)
                assert prob == pytest.approx(dense_prob, rel=tol)
                for init, flip in (ghz, alternating):
                    i, f = _index(init), _index(flip)
                    rel = rng.choice([1, -1]) * np.exp(-1j * rng.uniform(0.0, 2.0 * math.pi))
                    expect = abs(dense[i] + np.conj(rel) * dense[f]) ** 2 / 2.0
                    assert fidelity(post, init, flip, rel) == pytest.approx(expect, abs=tol)
                    expect = (abs(dense[i]) + abs(dense[f])) ** 2 / 2.0
                    assert fitted_fidelity(post, init, flip) == pytest.approx(expect, abs=tol)
                if k == 2:
                    expect = 2.0 * abs(dense[0] * dense[3] - dense[1] * dense[2])
                    assert concurrence(post) == pytest.approx(expect, abs=tol)
                    rho = np.outer(dense, dense.conj())
                    # Wootters resolves a pure state's zero eigenvalues to ~sqrt(eps)
                    assert concurrence(post) == pytest.approx(oracles.wootters_concurrence(rho), abs=5e-8)
                if k < 3:
                    continue
                # the GHZ collapse: atom 0 measured in the x basis
                for x_out in (0, 1):
                    atom_prob, rest = measure_atom(post, 0, x_basis, x_out)
                    dense_atom_prob, dense_rest = oracles.project_atom(dense, k, 0, x_basis[x_out])
                    assert atom_prob == pytest.approx(dense_atom_prob, abs=tol)
                    rel = np.exp(-1j * rng.uniform(0.0, 2.0 * math.pi))
                    expect = abs(dense_rest[0] + np.conj(rel) * dense_rest[-1]) ** 2 / 2.0
                    assert fidelity(rest, ghz[0][1:], ghz[1][1:], rel) == pytest.approx(expect, abs=tol)
                    if k == 3:
                        v = dense_rest
                        expect = 2.0 * abs(v[0] * v[3] - v[1] * v[2])
                        assert concurrence(rest) == pytest.approx(expect, abs=tol)


def test_prepare_is_compose_with_the_mirror_pairs_reversed():
    # fock pairs in (kept, flipped) order; a mirror atom (bit 1) enters on |->
    rng = np.random.default_rng(7)
    bits = (0, 1, 1, 0)
    fock = _lossy_pairs(rng, len(bits))[1]
    explicit = np.array([
        [(1, 0) if q == 0 else (0, 1) for q in bits],
        [pair if q == 0 else pair[::-1] for pair, q in zip(fock, bits)],
    ])
    assert entangle.prepare(fock.tolist(), bits) == compose(explicit)
    with pytest.raises(ValueError):
        entangle.prepare(fock.tolist(), bits[:3])


def test_compose_rejects_bad_input():
    bad_shapes = [
        np.ones((2, 2)),  # no atom axis
        np.ones((3, 1, 2)),  # three field branches
        np.ones((2, 1, 3)),  # qubit with three levels
        np.ones((2, 0, 2)),  # k = 0
        np.full((2, entangle.MAX_ATOMS + 1, 2), INV_SQRT2),
    ]
    for pairs in bad_shapes:
        with pytest.raises(ValueError, match="shape"):
            compose(pairs)
    with pytest.raises(ValueError, match="branch norm"):
        compose(_pairs(PASSIVE, ((1.0, 0.0), (0.8, 0.61))))


# Each guard is written so that a nan fails it; `nan > tol` is False, so a
# guard written `if x > tol: raise` would let a nan through.


def test_compose_refuses_a_nan_amplitude():
    with pytest.raises(ValueError, match="branch norm"):
        compose([[(1, 0), (0, 1)], [(math.nan, 0), (0, 1)]])


def test_measure_field_refuses_a_nan_probability():
    weights, pairs = _bell(PSI, 1.0)
    with pytest.raises(MeasurementError, match="zero probability"):
        measure_field(((math.nan, weights[1]), pairs), superposition_basis(), 0)


def test_scores_refuse_a_nan_norm():
    weights, pairs = _bell(PSI, 1.0)
    nan_state = ((math.nan, weights[1]), pairs)
    for score in (lambda s: fidelity(s, *PSI, 1.0), lambda s: fitted_fidelity(s, *PSI), concurrence):
        with pytest.raises(ValueError, match="normalized"):
            score(nan_state)


# an amplitude whose square is beyond the largest float, in one atom of either branch
HUGE_PAIRS = [[(1e160, 0)], [(1, 0)]]
HUGE_STATE = ((INV_SQRT2, INV_SQRT2), HUGE_PAIRS)
HUGE_PAIR_OF_ATOMS = ((INV_SQRT2, INV_SQRT2), [[(1e160, 0), (1, 0)], [(1, 0), (0, 1)]])


@pytest.mark.parametrize("call, error, match", [
    (lambda: compose(HUGE_PAIRS), ValueError, "branch norm exceeds 1"),
    (lambda: compose([[(1, 0)], [(complex(1e308, 1e308), 0)]]), ValueError, "branch norm exceeds 1"),
    (lambda: fidelity(HUGE_STATE, (0,), (1,), 1.0), ValueError, "must be normalized, got norm inf"),
    (lambda: fitted_fidelity(HUGE_STATE, (0,), (1,)), ValueError, "must be normalized, got norm inf"),
    (lambda: concurrence(HUGE_PAIR_OF_ATOMS), ValueError, "must be normalized, got norm inf"),
    (lambda: measure_field(HUGE_STATE, superposition_basis(), 0), MeasurementError, "largest float"),
    (lambda: measure_field(HUGE_STATE, computational_basis(), 1), MeasurementError, "largest float"),
    (lambda: measure_atom(HUGE_STATE, 0, superposition_basis(), 0), MeasurementError, "largest float"),
    (lambda: measure_atom(HUGE_PAIR_OF_ATOMS, 1, computational_basis(), 0), MeasurementError,
     "largest float"),
    # no square overflows here, but the product of three norms does
    (lambda: measure_field(((INV_SQRT2, INV_SQRT2), [[(1e110, 0)] * 3, [(0, 0)] * 3]),
                           computational_basis(), 0), MeasurementError, "largest float"),
], ids=["compose", "compose-complex", "fidelity", "fitted_fidelity", "concurrence",
        "measure_field", "measure_field-other-branch", "measure_atom", "measure_atom-other-atom",
        "measure_field-product"])
def test_an_overflowing_square_is_the_documented_refusal(call, error, match):
    # never an OverflowError, and never a probability of inf
    with pytest.raises(error, match=match):
        call()


def test_fidelity_refuses_a_nan_target_phase():
    with pytest.raises(ValueError, match="modulus"):
        fidelity(_bell(PSI, 1.0), *PSI, complex(math.nan, 0.0))


def test_compose_entangling_case():
    state, _ = compose(_pairs(FLIPPER, FLIPPER))
    _, post = measure_field(state, superposition_basis(), 0)
    assert fidelity(post, *PHI, 1.0) == pytest.approx(1.0, abs=1e-12)
    _, post1 = measure_field(state, superposition_basis(), 1)
    assert fidelity(post1, *PHI, -1.0) == pytest.approx(1.0, abs=1e-12)


def test_measure_field_validates_basis():
    state, _ = compose(_pairs(FLIPPER))
    with pytest.raises(MeasurementError):
        measure_field(state, np.array([[1.0, 0.0], [1.0, 0.0]]), 0)
    with pytest.raises(MeasurementError):
        measure_field(state, superposition_basis(), 2)


BAD_BASES = [
    [[1.0, 0.0]],  # one row
    [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],  # three rows
    [[1.0, 0.0], [0.0]],  # ragged
    [[1.0, 0.0, 0.0], [0.0, 1.0]],  # ragged the other way
    [[1.0, 1e-11], [0.0, 1.0]],  # 1e-11 off orthonormal
    [[1.0, 0.0], [0.0, 1.0 + 1e-11]],
    [[1.0, 0.0], [0.0, float("nan")]],
    [1.0, 0.0],  # no rows
    "xy",
]


@pytest.mark.parametrize("basis", BAD_BASES)
def test_bad_basis_is_a_measurement_error(basis):
    state, _ = compose(_pairs(FLIPPER, FLIPPER))
    with pytest.raises(MeasurementError):
        measure_field(state, basis, 0)
    with pytest.raises(MeasurementError):
        measure_atom(state, 0, basis, 0)


def test_basis_may_be_lists_tuples_or_arrays():
    state, _ = compose(_pairs(FLIPPER, FLIPPER))
    rows = superposition_basis()
    assert rows == ((INV_SQRT2, INV_SQRT2), (INV_SQRT2, -INV_SQRT2))
    assert computational_basis() == ((1.0, 0.0), (0.0, 1.0))
    for outcome in (0, 1):
        field = measure_field(state, rows, outcome)
        atom = measure_atom(field[1], 0, rows, outcome)
        for basis in ([list(row) for row in rows], np.array(rows), np.array(rows, dtype=complex)):
            assert measure_field(state, basis, outcome) == field
            assert measure_atom(field[1], 0, basis, outcome) == atom


def test_compose_rejects_ragged_lists():
    ragged = [
        [[(1, 0), (1, 0)], [(1, 0)]],  # k differs between branches
        [[(1, 0)], [(1, 0, 0)]],  # a three-level qubit
        [[(1, 0)], [1.0]],  # a number where a pair belongs
        [[(1, 0)]],  # one branch
        [[(1, "x")], [(1, 0)]],  # not a number
    ]
    for pairs in ragged:
        with pytest.raises(ValueError, match="shape"):
            compose(pairs)


def test_measure_atom_collapses_ghz():
    # (|+++> + |--->)/sqrt2 as two products
    g = _state((INV_SQRT2, INV_SQRT2), ((1, 0),) * 3, ((0, 1),) * 3)
    x_basis = superposition_basis()  # same rotation, reused for atoms
    prob, rest = measure_atom(g, 0, x_basis, 0)
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert fidelity(rest, *PHI, 1.0) == pytest.approx(1.0, abs=1e-12)
    prob1, rest1 = measure_atom(g, 0, x_basis, 1)
    assert prob1 == pytest.approx(0.5, abs=1e-12)
    assert fidelity(rest1, *PHI, -1.0) == pytest.approx(1.0, abs=1e-12)
    # z measurement instead kills the coherence
    _, restz = measure_atom(g, 0, computational_basis(), 0)
    assert concurrence(restz) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(MeasurementError):
        measure_atom(g, 3, x_basis, 0)
    for outcome in (2, -1):
        with pytest.raises(MeasurementError, match="outcome"):
            measure_atom(g, 0, x_basis, outcome)


@pytest.mark.parametrize("k, atom", [(2, 0), (3, 1)])
def test_measure_atom_gives_the_same_state_for_ndarray_pairs(k, atom):
    # the measured atom is spliced out of each branch; `+` on two ndarray
    # slices would add them elementwise: no atom left at k = 2, atom 0, and
    # the two neighbours summed into one at k = 3, atom 1
    rng = np.random.default_rng(k)
    raw = rng.normal(size=(2, k, 2)) + 1j * rng.normal(size=(2, k, 2))
    weights, pairs = compose(raw / np.linalg.norm(raw, axis=-1, keepdims=True))[0]
    as_lists = measure_atom((weights, pairs), atom, superposition_basis(), 0)
    prob, (rest_weights, rest_pairs) = measure_atom(
        (weights, np.array(pairs)), atom, superposition_basis(), 0
    )
    assert np.shape(rest_pairs) == (2, k - 1, 2)
    assert prob == as_lists[0]
    assert rest_weights == as_lists[1][0]
    np.testing.assert_array_equal(np.array(rest_pairs), np.array(as_lists[1][1]))


# --- what one state keeps for its measurements ---------------------------------


def _bits_of(values):
    """The exact bits of complex or float values, -0.0 and nan included."""
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


@pytest.mark.parametrize("k", [2, 3, 5])
def test_a_warm_products_gives_the_bits_of_a_fresh_one(k):
    rng = np.random.default_rng(k)
    raw = rng.normal(size=(2, k, 2)) + 1j * rng.normal(size=(2, k, 2))
    pairs = (raw / np.linalg.norm(raw, axis=-1, keepdims=True)).tolist()
    strings = list(itertools.product((0, 1), repeat=k))
    warm = compose(pairs)[0]
    # fill every memo, in an order of its own, before reading anything back
    for bits in reversed(strings):
        warm[1].terms(list(bits))
    for atom in reversed(range(k)):
        measure_atom(warm, atom, superposition_basis(), 1)
    for bits in strings:
        fresh = compose(pairs)[0]
        assert _bits_of(warm[1].terms(bits)) == _bits_of(fresh[1].terms(bits))
    for atom, outcome in itertools.product(range(k), (0, 1)):
        fresh = compose(pairs)[0]
        (prob, (weights, rest)), (fresh_prob, (fresh_weights, fresh_rest)) = (
            measure_atom(state, atom, superposition_basis(), outcome) for state in (warm, fresh)
        )
        assert _bits_of([prob, *weights]) == _bits_of([fresh_prob, *fresh_weights])
        assert rest == fresh_rest and rest.summary == fresh_rest.summary
        # both outcomes of one atom share one splice and its Gram summary
        assert rest is measure_atom(warm, atom, superposition_basis(), 1 - outcome)[1][1]
    for outcome in (0, 1):
        post, fresh_post = (
            measure_field(state, superposition_basis(), outcome)[1] for state in (warm, compose(pairs)[0])
        )
        scores = [fitted_fidelity(s, (0,) * k, (1,) * k) for s in (post, fresh_post)]
        if k == 2:
            scores += [concurrence(s) for s in (post, fresh_post)]
        assert _bits_of(scores[::2]) == _bits_of(scores[1::2])


def test_products_keep_tuples_so_an_edit_of_the_callers_lists_changes_nothing():
    state = _bell(PSI, 1.0)  # pairs as the caller's nested lists
    _, post = measure_field(state, computational_basis(), 1)
    before = _bits_of(post[1].terms((1, 0)))
    state[1][1][0][:] = [1.0, 0.0]
    assert all(type(pair) is tuple for branch in post[1] for pair in branch)
    assert _bits_of(post[1].terms((1, 0))) == before == _bits_of(
        measure_field(_bell(PSI, 1.0), computational_basis(), 1)[1][1].terms((1, 0))
    )
    # a refusal is never kept: a string of the wrong length fails every time
    for _ in range(2):
        with pytest.raises(ValueError):
            post[1].terms((0,))


def test_the_named_bases_are_immutable_tuples():
    for basis in (superposition_basis(), computational_basis()):
        assert type(basis) is tuple and all(type(row) is tuple for row in basis)
        with pytest.raises(TypeError):
            basis[0] = (1.0, 0.0)
    assert superposition_basis() is superposition_basis()
    assert computational_basis() is computational_basis()


@pytest.mark.parametrize("kind", [list, np.array, tuple], ids=["list", "ndarray", "tuple"])
def test_a_non_orthonormal_basis_is_refused_on_every_call(kind):
    state, _ = compose(_pairs(FLIPPER, FLIPPER))
    good = kind([kind(row) for row in superposition_basis()])
    bad = kind([kind(row) for row in ((1.0, 1e-11), (0.0, 1.0))])
    for _ in range(3):  # a good basis of this kind first, then the bad one
        assert measure_field(state, good, 0) == measure_field(state, superposition_basis(), 0)
        with pytest.raises(MeasurementError, match="orthonormal"):
            measure_field(state, bad, 0)
        with pytest.raises(MeasurementError, match="orthonormal"):
            measure_atom(state, 0, bad, 0)
    if kind is list:  # a list checked once is checked again after an edit
        good[1][1] = 1.0 + 1e-11
        with pytest.raises(MeasurementError, match="orthonormal"):
            measure_field(state, good, 0)


# --- full scenarios ----------------------------------------------------------


def test_bell_recipes_adiabatic_exact(rubidium):
    # all four scheduling recipes hit their targets exactly in the two-level engine
    cases = [
        ("opposite", 0, "psi_plus"),
        ("opposite", 1, "psi_minus"),
        ("same", 0, "phi_plus"),
        ("same", 1, "phi_minus"),
    ]
    for mode, r, kind in cases:
        rep = run_scenario(rubidium, mode=mode, r=r, engine="adiabatic")
        assert rep.target_kind == kind
        assert rep.fidelity > 1.0 - 1e-12
        assert rep.concurrence > 1.0 - 1e-12
        assert rep.leakage < 1e-12
        for o in rep.outcomes.values():
            assert o["probability"] == pytest.approx(0.5, abs=1e-12)
            assert o["fidelity"] > 1.0 - 1e-12
            assert o["concurrence"] > 1.0 - 1e-12
        assert rep.vacuum_deviation < 1e-14


def test_bell_outcome_kind_flips(rubidium):
    rep = run_scenario(rubidium, mode="opposite", engine="adiabatic")
    assert rep.outcomes["plus"]["kind"] == "psi_plus"
    assert rep.outcomes["minus"]["kind"] == "psi_minus"


def test_bell_ladder_engine(rubidium):
    rep = run_scenario(rubidium, mode="opposite", engine="ladder")
    # the scheduled phase is the ladder's own: only populations cost fidelity
    fitted = run_scenario(rubidium, mode="opposite", engine="ladder", fit_phase=True)
    assert rep.fidelity == pytest.approx(fitted.fidelity, abs=1e-9)
    assert rep.fidelity > 0.95
    for o in rep.outcomes.values():
        assert o["fidelity"] > 0.95
        assert o["concurrence"] > 0.9
    assert rep.leakage == pytest.approx(3.61e-6, rel=0.05)
    assert rep.vacuum_deviation < 1e-14


def test_ladder_batched_branches_match_per_atom_evolve(at_ratio):
    # one propagation of the Fock branch, read out at every atom's time, must
    # equal evolving each atom separately; the vacuum branch, which the
    # scenario runner does not propagate, keeps its initial amplitudes
    p = at_ratio(0.05, l0=4)
    d = derive(p)
    times = [0.7 * math.pi / d.chi, 1.3 * math.pi / d.chi, 0.2 * math.pi / d.chi]
    c = adiabatic.coeffs(p.n0, p.l0, d)
    fock = ladder.branch_pairs(c, times)
    assert np.shape(fock) == (3, 2)
    for pair, t in zip(fock, times):
        for n in (0, p.n0):
            h = ladder.build_hamiltonian(n, p.l0, d)
            out = ladder.evolve(h, adiabatic.coeffs(n, p.l0, d).b_n, [t])[0]
            expect = out[[h.index_of(0), h.index_of(-p.l0)]]
            if n:
                np.testing.assert_allclose(pair, expect, rtol=0, atol=1e-12)
            else:
                np.testing.assert_array_equal(expect, [1.0, 0.0])


def test_both_engines_give_rows_of_one_shape_from_one_record(at_ratio):
    for l0 in (2, 4):
        c = adiabatic.coeffs(1, l0, derive(at_ratio(0.02, l0=l0)))
        times = [0.0, 0.3 * math.pi / abs(c.b_n), math.pi / abs(c.b_n)]
        closed, exact = adiabatic.branch_pairs(c, times), ladder.branch_pairs(c, times)
        assert np.shape(closed) == np.shape(exact) == (3, 2)
        np.testing.assert_array_equal(closed[0], [1.0, 0.0])
        # ... and both hand entangle plain Python rows of complex
        for rows in (closed, exact):
            assert {type(x) for row in rows for x in row} == {complex}
            assert all(type(row) is tuple for row in rows)


def test_stark_rows_are_plain_rows_times_the_branch_phase(rubidium_derived):
    # the constant -chi*n shift is the global phase exp(+i chi n t) of the branch
    c = adiabatic.coeffs(1, 2, rubidium_derived)
    stark = adiabatic.coeffs(1, 2, rubidium_derived, include_stark=True)
    assert (stark.a_n, stark.b_n) == (c.a_n, c.b_n)
    times = [0.0, 0.3 * math.pi / abs(c.b_n), math.pi / abs(c.b_n)]
    phase = [cmath.exp(1j * (rubidium_derived.chi * c.n) * t) for t in times]
    plain, shifted = adiabatic.branch_pairs(c, times), adiabatic.branch_pairs(stark, times)
    # the closed form applies the phase itself, so bit for bit
    assert shifted == [(kept * f, flipped * f) for (kept, flipped), f in zip(plain, phase)]
    # the ladder keeps the shift on its diagonal, so only to rounding
    plain, shifted = ladder.branch_pairs(c, times), ladder.branch_pairs(stark, times)
    np.testing.assert_allclose(shifted, plain * np.array(phase)[:, None], rtol=0, atol=1e-12)


def test_ladder_truncation_between_samples_is_caught(capsys, at_ratio):
    # on the (-10, 8) ladder at l0=2, chi*n0/w_rec=2.35 the edge population
    # peaks near 1.4e-10, above the 1e-10 threshold, between the instants of
    # a four-sample cycle and t1, where it stays near 8e-11; the
    # time-independent bound catches it, whatever times are read
    code = cli.main(["validate", "--chi-ratio", "2.35"])
    out = capsys.readouterr()
    assert code == 2
    rep = json.loads(out.out)
    assert rep["error"].startswith(
        "ladder truncation: boundary population bound 1.651e-10 exceeds"
    )
    d = derive(at_ratio(2.35))
    orders, h = oracles.dense_matrix(d.recoil_frequency, d.chi, 1, 2, -10, 8)
    cycle = 2.0 * math.pi / rep["b_rad_s"]
    sampled = [*np.linspace(0.0, cycle, 4), 0.5 * cycle]

    def edge(t):
        v = oracles.propagate_expm(h, oracles.psi0(orders), t)
        return max(abs(v[0]) ** 2, abs(v[-1]) ** 2)

    assert max(map(edge, sampled)) < ladder.EDGE_THRESHOLD
    assert max(edge(t) for t in np.linspace(0.0, cycle, 2001)) > ladder.EDGE_THRESHOLD


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


def test_bell_phase_bookkeeping(at_ratio):
    for l0 in (2, 4, 6):
        for sign in (1, -1):
            p = at_ratio(0.02, l0=l0, sign=sign)
            for mode in ("opposite", "same"):
                for s, r in ((1, 0), (1, 1), (3, 0), (3, 1), (3, 2)):
                    _check_scheduled_phase(p, mode=mode, s=s, r=r)


def test_bell_phase_reference_l0_4(at_ratio):
    p = at_ratio(0.02, l0=4)
    rep, rl = _check_scheduled_phase(p, mode="opposite")
    # psi_plus: the reference is the measured phase itself, -pi/3 up to
    # the O(ratio^2) corrections of a_n/|b_n| = 1/3 (test_adiabatic)
    assert rep.phase_reference_rad == pytest.approx(rep.phase_measured_rad, abs=1e-9)
    assert rep.phase_reference_rad == pytest.approx(-math.pi / 3.0, rel=1e-3)
    assert rl.fidelity > 0.9999


def test_ladder_vs_adiabatic_phase_agree_l0_2(rubidium):
    ra = run_scenario(rubidium, mode="opposite", engine="adiabatic")
    rl = run_scenario(rubidium, mode="opposite", engine="ladder")
    diff = np.exp(1j * (ra.phase_measured_rad - rl.phase_measured_rad))
    assert abs(diff - 1.0) < 0.01  # small residual from intermediate orders


def test_computational_basis_kills_entanglement(rubidium):
    for engine in ("adiabatic", "ladder"):
        rep = run_scenario(rubidium, mode="opposite", engine=engine, basis="computational")
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


@pytest.mark.parametrize("l0", [2, 4, 6])
def test_stark_phase_is_in_the_scheduled_target(l0):
    # the Fock-branch phase exp(+i chi n0 t) per atom is prepared, so the
    # scheduled target carries it too
    p = replace(rubidium_preset(), l0=l0)
    rep = run_scenario(p, engine="adiabatic", include_stark=True)
    assert rep.phase_reference_rad == pytest.approx(rep.phase_measured_rad, abs=1e-9)
    assert rep.fidelity > 1.0 - 1e-12
    rl = run_scenario(p, engine="ladder", include_stark=True)
    assert abs(np.exp(1j * (rl.phase_measured_rad - rl.phase_reference_rad)) - 1.0) < 1e-3
    assert _phase_gap(rep, rl) < 1e-3


SYMMETRY_GRID = list(
    itertools.product(("adiabatic", "ladder"), (2, 4, 6), (1, 3), (0, 1), (0.005, 0.02, 0.05))
)


@pytest.mark.parametrize("include_stark", [False, True])
def test_opposite_and_same_incidence_score_bit_equal_fidelity(at_ratio, include_stark):
    # a mirror atom's pair is the incident atom's pair reversed, so psi and phi
    # preparations differ by a relabelling of one atom's qubit
    for engine, l0, s, r, ratio in SYMMETRY_GRID:
        p = at_ratio(ratio, l0=l0)
        kw = dict(engine=engine, s=s, r=r, include_stark=include_stark)
        opposite, same = (run_scenario(p, mode=mode, **kw) for mode in ("opposite", "same"))
        assert opposite.fidelity == same.fidelity, (engine, l0, s, r, ratio)


def test_detuning_sign_leaves_the_scores_bit_equal_without_stark(at_ratio):
    # chi -> -chi is the gauge (-1)^(l/2) on the ladder, so no population or
    # score moves; with the Stark shift the two differ by rounding (not tested)
    for engine, l0, s, r, ratio in SYMMETRY_GRID:
        kw = dict(engine=engine, s=s, r=r)
        plus, minus = (run_scenario(at_ratio(ratio, l0=l0, sign=sign), **kw) for sign in (1, -1))
        assert (minus.fidelity, minus.leakage, minus.outcome_probabilities) == (
            plus.fidelity, plus.leakage, plus.outcome_probabilities
        ), (engine, l0, s, r, ratio)


@pytest.mark.parametrize("include_stark", [False, True])
def test_four_more_pulses_leave_the_adiabatic_fidelity(at_ratio, include_stark):
    # s -> s + 4 lengthens t1 by two flip periods, which returns the closed-form
    # pair up to the level-shift phase that the scheduled target carries too;
    # rounding moves the fidelity by a few eps (3 on this grid)
    for l0, k, s, r in itertools.product((2, 4, 6, 8), (2, 4), (1, 3), (0, 1)):
        p = at_ratio(0.02, l0=l0)
        kw = dict(engine="adiabatic", k=k, mode="opposite" if k == 2 else "same", r=r,
                  include_stark=include_stark)
        base, later = (run_scenario(p, s=pulses, **kw) for pulses in (s, s + 4))
        assert abs(later.fidelity - base.fidelity) <= 2e-15, (l0, k, s, r)


@pytest.mark.parametrize("engine, tol", [("adiabatic", (2e-15, 1e-15)), ("ladder", (1e-7, 1e-7))])
def test_outcome_minus_at_r_scores_as_plus_at_r_plus_one(at_ratio, engine, tol):
    # one more flip period for the last atom flips the sign of the scheduled
    # target, and the minus outcome carries the opposite sign of the plus one,
    # so both name the same target kind.
    # The closed form returns after a period up to the phase the target
    # carries; the ladder does not, since its leakage oscillates at frequencies
    # other than |b_n| and its splitting differs from |b_n|, so its scores
    # drift with r (up to 4.6e-8 on this grid). Swapping the two outcome signs
    # moves both sides alike and escapes this relation.
    for l0, s, r, ratio in itertools.product((2, 4, 6), (1, 3), (0, 1), (0.005, 0.02, 0.05)):
        p = at_ratio(ratio, l0=l0)
        minus = run_scenario(p, engine=engine, s=s, r=r).outcomes["minus"]
        plus = run_scenario(p, engine=engine, s=s, r=r + 1).outcomes["plus"]
        assert minus["kind"] == plus["kind"], (l0, s, r, ratio)
        assert abs(minus["fidelity"] - plus["fidelity"]) <= tol[0], (l0, s, r, ratio)
        assert abs(minus["probability"] - plus["probability"]) <= tol[1], (l0, s, r, ratio)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    l0=st.sampled_from((2, 4, 6, 8, 10, 12)),
    k=st.integers(2, 10),
    s=st.sampled_from((1, 3, 5, 7)),
    r=st.integers(0, 2),
    ratio=st.floats(1e-3, 0.05),
    sign=st.sampled_from((1, -1)),
    include_stark=st.booleans(),
)
def test_adiabatic_relations_hold_across_the_grid(l0, k, s, r, ratio, sign, include_stark):
    # the relations above, each at its bound, on random points of a wider grid.
    # Without Stark the detuning sign is bit-equal at k = 2 only: at larger k
    # the products of the (2, k, 2) pairs round differently (up to 4.4e-16 at
    # k = 7 and 9), so there it is held to 2e-15 like the s + 4 relation.
    base = rubidium_preset()
    p = with_regime_ratio(replace(base, l0=l0, detuning=sign * base.detuning), ratio)
    mode = "opposite" if k == 2 else "same"
    kw = dict(engine="adiabatic", k=k, include_stark=include_stark)
    rep = run_scenario(p, s=s, r=r, mode=mode, **kw)
    if k == 2:
        assert run_scenario(p, s=s, r=r, mode="same", **kw).fidelity == rep.fidelity
    if not include_stark:
        flipped = with_regime_ratio(replace(p, detuning=-p.detuning), ratio)
        other = run_scenario(flipped, s=s, r=r, mode=mode, **kw)
        scores = [(x.fidelity, x.leakage, *x.outcome_probabilities.values()) for x in (rep, other)]
        if k == 2:
            assert scores[0] == scores[1]
        else:
            assert np.max(np.abs(np.subtract(*scores))) <= 2e-15
    later = run_scenario(p, s=s + 4, r=r, mode=mode, **kw)
    assert abs(later.fidelity - rep.fidelity) <= 2e-15
    minus = rep.outcomes["minus"]
    plus = run_scenario(p, s=s, r=r + 1, mode=mode, **kw).outcomes["plus"]
    assert minus["kind"] == plus["kind"]
    assert abs(minus["fidelity"] - plus["fidelity"]) <= 2e-15
    assert abs(minus["probability"] - plus["probability"]) <= 1e-15


def test_fit_phase_isolates_population_error(rubidium):
    strict = run_scenario(rubidium, mode="opposite", engine="ladder")
    fitted = run_scenario(rubidium, mode="opposite", engine="ladder", fit_phase=True)
    assert fitted.fidelity >= strict.fidelity
    assert fitted.fidelity > 1.0 - 1e-9


def test_ghz_adiabatic_exact(rubidium):
    for k in (3, 4, 6):
        rep = run_scenario(rubidium, mode="same", k=k, engine="adiabatic")
        assert rep.scenario == "ghz"
        assert rep.fidelity > 1.0 - 1e-12
        assert rep.concurrence is None
        for o in rep.ghz_collapse.values():
            assert o["probability"] == pytest.approx(0.5, abs=1e-12)
            assert o["fidelity"] > 1.0 - 1e-12
        if k == 3:
            for o in rep.ghz_collapse.values():
                assert o["concurrence"] > 1.0 - 1e-12
    # the collapse of the selected field outcome, whose sign is the r parity
    # times that outcome's, graded against x_plus/x_minus's own signs
    for k in (3, 4):
        for r in (0, 1):
            for outcome in (0, 1):
                rep = run_scenario(rubidium, mode="same", k=k, r=r, selected_outcome=outcome)
                assert rep.target_kind == ("ghz_plus" if r == 0 else "ghz_minus")
                assert rep.selected_outcome == ("plus", "minus")[outcome]
                for o in rep.ghz_collapse.values():
                    assert o["probability"] == pytest.approx(0.5, abs=1e-12)
                    assert o["fidelity"] > 1.0 - 1e-12


def test_ghz_ladder(rubidium):
    rep = run_scenario(rubidium, mode="same", k=3, engine="ladder")
    assert rep.fidelity > 0.9
    assert rep.fidelity == pytest.approx(0.99999, abs=1e-4)
    for o in rep.ghz_collapse.values():
        assert o["concurrence"] > 0.9
    assert rep.vacuum_deviation < 1e-14


def test_ghz_reference_phase_formulas(at_ratio):
    for l0 in (2, 4, 6):
        for sign in (1, -1):
            p = at_ratio(0.02, l0=l0, sign=sign)
            for k in (3, 5):
                for r in (0, 1):
                    rep, _ = _check_scheduled_phase(p, mode="same", k=k, r=r)
                    assert rep.target_kind == ("ghz_plus" if r == 0 else "ghz_minus")


def test_scenario_validation(rubidium):
    with pytest.raises(ValueError):
        run_scenario(rubidium, mode="diagonal")
    with pytest.raises(ValueError):
        run_scenario(rubidium, engine="exact")
    with pytest.raises(ValueError):
        run_scenario(rubidium, k=3, mode="opposite")
    with pytest.raises(ValueError):
        run_scenario(rubidium, k=11, mode="same")
    with pytest.raises(ValueError):
        run_scenario(rubidium, s=2)


def test_scenario_regime_gate(at_ratio):
    hot = at_ratio(0.5)
    with pytest.raises(RegimeError):
        run_scenario(hot, engine="adiabatic")


def test_report_json_stable(rubidium):
    r1 = run_scenario(rubidium, mode="same", r=1, engine="ladder")
    r2 = run_scenario(rubidium, mode="same", r=1, engine="ladder")
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


# --- JSON emission -----------------------------------------------------------


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


TEXTS = st.one_of(st.text(max_size=8), st.sampled_from(['"', "\\", "\n", "\x00\x1f", "\u00e9\u2028", "\U0001f600"]))
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16]),
    TEXTS,
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXTS, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES)
@example({"a": [], "b": {}, "c": ()})
@example([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 10**30, True, None])
def test_json_text_is_json_dumps_byte_for_byte(obj):
    assert entangle.json_text(obj) == _dumps(obj)


class _Level(enum.IntEnum):
    TWO = 2


class _Ratio(float):
    pass


class _Name(str):
    pass


class _Backwards(str):
    def __lt__(self, other):
        return str.__gt__(self, other)


_Point = collections.namedtuple("_Point", "x y")


@pytest.mark.parametrize(
    "obj",
    [
        # subclasses take json's isinstance order
        {"level": _Level.TWO, "ratio": _Ratio(0.5), "name": _Name('a"b'), "point": np.float64(0.1)},
        # non-string keys are spelled as json spells them
        {1: "int", 2.5: "float", -3: "negative"},
        {None: "null"},
        {True: "t", False: "f"},
        {float("nan"): 0, float("inf"): 1},
        # str and str-subclass keys together, and a subclass that sorts backwards
        {"b": 0, _Name("a"): 1, _Name("c"): 2},
        {_Backwards("a"): 0, _Backwards("b"): [_Point(1.0, 2)]},
        "top-level text",
        7,
    ],
)
def test_json_text_matches_json_dumps_on_subclasses_and_keys(obj):
    assert entangle.json_text(obj) == _dumps(obj)


@pytest.mark.parametrize(
    "obj", [{"x": object()}, [{1, 2}], {(1, 2): 0}, np.int64(3), {"a": 1, 2: 0}, {"a": 1, None: 2}]
)
def test_json_text_refuses_what_json_dumps_refuses(obj):
    with pytest.raises(TypeError):
        _dumps(obj)
    with pytest.raises(TypeError):
        entangle.json_text(obj)


def test_a_key_plan_gives_json_dumps_bytes_at_two_depths_and_in_two_orders():
    inner = {"b": 2.5, "a%s": "%d", "c": [None, {"a%s": 1, "b": True, "c": _Point(1, "x")}]}
    outer = {"c": inner, "a%s": -0.0, "b": [inner]}
    for obj in (outer, dict(reversed(outer.items())), [outer, {"a%s": 0, "c": 1, "b": 2}]):
        for _ in range(2):  # the second pass reads every plan back
            assert entangle.json_text(obj) == _dumps(obj)
    assert entangle._plan.cache_info().hits > 0


def test_the_key_plans_stay_bounded():
    for i in range(1000):
        obj = {f"k{i}": i, f"k{i + 1}": {f"k{i}": [i]}}
        assert entangle.json_text(obj) == _dumps(obj)
    info = entangle._plan.cache_info()
    assert info.currsize == info.maxsize == 128


# --- records -----------------------------------------------------------------

REPORT_KEYS = [
    "scenario", "engine", "parameters", "target_kind", "fidelity", "concurrence",
    "phase_measured_rad", "phase_reference_rad", "leakage", "outcome_probabilities", "outcomes",
    "vacuum_deviation", "verdict", "selected_outcome", "ghz_collapse",
]
# each record with values for its fields without a default, then those defaults
RECORDS = [
    (DerivedParams, dict(wavenumber=1.0, recoil_frequency=2.0, chi=3.0, regime_ratio=4.0), {}),
    (adiabatic.TwoLevelCoeffs, dict(a_n=1.0, b_n=-2.0, n=1, l0=2, d=derive(rubidium_preset())),
     {"include_stark": False}),
    (ladder.LadderHamiltonian, dict(diagonal=np.zeros(3), off_diagonal=1.0, l_min=-2, l_max=2,
                                    l0=2, n=1), {"include_stark": False}),
    (entangle.EntanglementReport, {key: f"v{i}" for i, key in enumerate(REPORT_KEYS[:-1])},
     {"ghz_collapse": None}),
]


@pytest.mark.parametrize("cls, required, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_and_built_by_keyword_or_position(cls, required, defaults):
    assert cls._fields == (*required, *defaults)
    by_keyword, by_position = cls(**required), cls(*required.values())
    expected = [*required.values(), *defaults.values()]
    for record in (by_keyword, by_position):
        assert all(getattr(record, f) is v for f, v in zip(cls._fields, expected))
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[0], 0.0)
        with pytest.raises(AttributeError):
            record.unknown_field = 0.0


def test_report_to_dict_keeps_the_keys_and_drops_a_missing_ghz_collapse():
    ghz = run_scenario(rubidium_preset(), k=3, mode="same").to_dict()
    assert list(ghz) == REPORT_KEYS
    assert ghz["ghz_collapse"] is not None
    assert list(run_scenario(rubidium_preset()).to_dict()) == REPORT_KEYS[:-1]
