"""The per-branch caches: adiabatic._partition (the fixed point of the
reduction), ladder._branch (each branch's record: its Hamiltonian, its
decomposition and the flip cycle read off it) and ladder._pair_rows (each
branch's (kept, flipped) rows at the times of one call).

A warm call must give the bits of a cold one, a cached array or row must
refuse a write, and every guard must still run on every call with the
threshold it reads at that moment: the caches hold results, never refusals.
The tests count the calls that do the work (building and decomposing a
Hamiltonian, iterating the partition, reading a cycle, forming phases and
row norms), not cache hits, so that they hold whatever the caches are keyed
on.
"""

import collections
import itertools
import math
import re

import numpy as np
import pytest

from braggbell import adiabatic, cli, entangle, ladder, params
from braggbell.params import derive


@pytest.fixture
def calls(monkeypatch):
    """A Counter of the calls, by name, of the functions that build, decompose,
    propagate and read a branch; 'norm(s)' counts np.linalg.norm of one vector
    only, 'norm(rows)' that of the rows of a 2-d array."""
    counted = collections.Counter()

    def counting(name, fn, counts=lambda *args, **kwargs: True):
        def wrapper(*args, **kwargs):
            counted[name] += counts(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in ((ladder, "build_hamiltonian"), (ladder, "initial_state"),
                        (ladder, "_cycle_terms"), (ladder.LadderHamiltonian, "matrix"),
                        (ladder, "_phases"), (np.linalg, "eigh"), (adiabatic, "_self_energies")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", counting("norm(s)", norm,
                                                    lambda x, *args, **kwargs: np.ndim(x) == 1))
    monkeypatch.setattr(np.linalg, "norm", counting("norm(rows)", np.linalg.norm,
                                                    lambda x, *args, **kwargs: np.ndim(x) == 2))
    return counted


def _bits(c, rows):
    """The record's shift and coupling and the rows, as exact bit patterns."""
    return c.a_n.hex(), c.b_n.hex(), np.asarray(rows).tobytes()


def _branch(c):
    """ladder.branch_pairs of c at its pulse times (t1, t2) for s = 1, r = 1."""
    return ladder.branch_pairs(c, adiabatic.pulse_times(c, 1, 1))


def _work(calls):
    """The counts of the calls that build or decompose a branch or iterate a partition."""
    return {name: calls[name] for name in ("build_hamiltonian", "eigh", "_self_energies")}


@pytest.mark.parametrize("l0, sign, stark", itertools.product((2, 4, 6), (1, -1), (False, True)))
def test_a_warm_call_gives_the_bits_of_a_cold_one(at_ratio, calls, l0, sign, stark):
    d = derive(at_ratio(0.02, l0=l0, sign=sign))
    cold_c = adiabatic.coeffs(1, l0, d, stark)
    cold = _bits(cold_c, _branch(cold_c))
    work = _work(calls)
    assert work["build_hamiltonian"] == work["eigh"] == 1 and work["_self_energies"] > 0
    warm_c = adiabatic.coeffs(1, l0, d, stark)
    assert _bits(warm_c, _branch(warm_c)) == cold
    assert _work(calls) == work
    # the record is built on each call: the other Stark flag shares the
    # partition and carries its own flag
    other = adiabatic.coeffs(1, l0, d, not stark)
    assert other == cold_c._replace(include_stark=not stark)
    assert calls["_self_energies"] == work["_self_energies"]


def test_cached_arrays_refuse_in_place_writes(rubidium_derived):
    c = adiabatic.coeffs(1, 2, rubidium_derived)
    _branch(c)
    record = ladder._branch(*ladder._branch_key(c))
    evals, evecs = record.eigen
    for array in (record.diagonal, record.start, evals, evecs, record.start_projection[0]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    # what a caller receives is shared with every warm call, and immutable
    rows = _branch(c)
    _, pair = ladder.cycle_readout(c, math.pi / abs(c.b_n))
    for row in (rows, rows[0], pair):
        assert type(row) is tuple
        with pytest.raises(TypeError, match="does not support item assignment"):
            row[0] = 0.0
    assert {type(x) for x in itertools.chain(pair, *rows)} == {complex}


def test_a_patched_guard_changes_both_results(monkeypatch, calls, rubidium_derived):
    c = adiabatic.coeffs(1, 2, rubidium_derived)
    rows = _branch(c)
    # at l0 = 2 the orders beyond l = 4 move a_n by less than an ulp
    monkeypatch.setattr(params, "GUARD", 4)
    patched = adiabatic.coeffs(1, 2, rubidium_derived)
    patched_rows = _branch(patched)
    assert patched.a_n != c.a_n
    assert not np.array_equal(patched_rows, rows)
    # the patched ladder is a new key of both caches
    assert calls["build_hamiltonian"] == calls["eigh"] == 2
    # ... and the results are the patched ladder's, as a cold call computes them
    adiabatic._partition.cache_clear()
    ladder._branch.cache_clear()
    cold = adiabatic.coeffs(1, 2, rubidium_derived)
    assert _bits(cold, _branch(cold)) == _bits(patched, patched_rows)


def _warm_scenario(p):
    return entangle.run_scenario(p, engine="ladder")


REPORTED_AS = {
    ladder.NormDriftError: "ladder norm drift: ",
    ladder.TruncationError: "ladder truncation: ",
    ladder.ResolutionError: "ladder resolution: ",
}


def _warm_validate(p):
    """validate_point's report, its ladder refusal raised as the scenario raises it."""
    report = cli.validate_point(p)
    for error, prefix in REPORTED_AS.items():
        if report.get("error", "").startswith(prefix):
            raise error(report["error"])
    return report


THRESHOLDS = [
    ("NORM_TOL", 0.0, ladder.NormDriftError),
    ("EDGE_THRESHOLD", 0.0, ladder.TruncationError),
    ("RESOLUTION_LIMIT", 1e300, ladder.ResolutionError),
]


@pytest.mark.parametrize(
    "run, name, value, error",
    [pytest.param(_warm_scenario, *case, id="-".join(map(str, case[:2])) + f"-{case[2].__name__}")
     for case in THRESHOLDS]
    + [pytest.param(_warm_validate, *case, id=f"validate-{case[0]}") for case in THRESHOLDS],
)
def test_a_threshold_set_after_a_warm_run_still_refuses_it(monkeypatch, calls, run, name, value,
                                                          error):
    p = params.rubidium_preset()
    warm = run(p)
    work = _work(calls)
    assert work["eigh"] >= 1
    assert run(p) == warm
    assert _work(calls) == work
    monkeypatch.setattr(ladder, name, value)
    with pytest.raises(error):
        run(p)


def _cycle_bits(c):
    """cycle_readout of c at t1 = pi/|b_n|, its fields and pair as exact bit patterns."""
    fields, pair = ladder.cycle_readout(c, math.pi / abs(c.b_n))
    return {k: v.hex() for k, v in fields.items()}, np.asarray(pair).tobytes()


@pytest.mark.parametrize("l0, ratio", [(2, 0.02), (6, 0.02), (8, 0.03)])
def test_a_warm_cycle_readout_gives_the_bits_of_a_cold_one(at_ratio, calls, l0, ratio):
    c = adiabatic.coeffs(1, l0, derive(at_ratio(ratio, l0=l0)))
    cold = _cycle_bits(c)
    assert calls["_cycle_terms"] == calls["eigh"] == 1
    assert _cycle_bits(c) == cold
    # the cached terms hold no b_n: a record with another rate shares them
    other = c._replace(b_n=2.0 * c.b_n)
    fields, _ = ladder.cycle_readout(other, math.pi / abs(c.b_n))
    assert fields["freq_rad_s"].hex() == cold[0]["freq_rad_s"]
    assert fields["pop_dev_bound"].hex() != cold[0]["pop_dev_bound"]
    assert calls["_cycle_terms"] == calls["eigh"] == 1


def test_a_patched_resolution_limit_is_a_new_readout_key(monkeypatch, calls, at_ratio):
    # the runs are grouped within the limit read at call time, so a warm
    # readout cannot serve a branch under another limit
    c = adiabatic.coeffs(1, 4, derive(at_ratio(0.02, l0=4)))
    ladder.cycle_readout(c, math.pi / abs(c.b_n))
    monkeypatch.setattr(ladder, "RESOLUTION_LIMIT", 2.0 * ladder.RESOLUTION_LIMIT)
    patched = _cycle_bits(c)
    assert calls["_cycle_terms"] == 2
    # ... and the one decomposition serves both
    assert calls["eigh"] == 1
    # ... with the terms a cold readout under the patched limit computes
    ladder._branch.cache_clear()
    assert _cycle_bits(c) == patched


def test_a_resolution_refused_branch_is_never_decomposed(calls, at_ratio):
    # at l0 = 8 and chi*n0/w_rec = 0.005, |b_n| is below the resolution limit
    refused = adiabatic.coeffs(1, 8, derive(at_ratio(0.005, l0=8)))
    for _ in range(2):
        with pytest.raises(ladder.ResolutionError):
            ladder.branch_pairs(refused, [1.0])
    assert calls["eigh"] == 0
    # a branch whose record is cached is refused as well, before anything is
    # propagated, for a flip frequency below the limit or a duration that overflows
    c = adiabatic.coeffs(1, 4, derive(at_ratio(0.02, l0=4)))
    _branch(c)
    work = _work(calls)
    with pytest.raises(ladder.ResolutionError, match="flip frequency"):
        ladder.branch_pairs(c._replace(b_n=1e-300), [1.0])
    with pytest.raises(ladder.ResolutionError, match="overflows"):
        ladder.branch_pairs(c, [1e308])
    assert _work(calls) == work
    assert calls["eigh"] == 1


def test_a_refused_partition_is_refused_on_every_call(capsys, calls):
    for run in range(1, 4):
        assert cli.main(["coeffs", "--l0", "4", "--chi-ratio", "8"]) == cli.EXIT_PHYSICS
        assert capsys.readouterr().err.startswith("error: level shift a_1 at l0=4 did not converge")
        # every call iterates to the cap again: the refusal was not kept
        assert calls["_self_energies"] == run * adiabatic.MAX_ITERATIONS


def test_the_caches_keep_what_a_grid_of_scenarios_shares(calls):
    # every atom, pulse multiple and offset of one (l0, ratio, sign) meets the
    # same two branches: one partition and one decomposition serve them all
    p = params.rubidium_preset()
    for i, (s, r, mode) in enumerate(itertools.product((1, 3), (0, 1), ("opposite", "same"))):
        entangle.run_scenario(p, s=s, r=r, mode=mode, engine="ladder")
        if i == 0:
            partition = calls["_self_energies"]
    assert calls["_self_energies"] == partition
    assert calls["build_hamiltonian"] == calls["eigh"] == 1


@pytest.mark.parametrize("readout", [False, True], ids=["branch_pairs", "cycle_readout"])
def test_a_warm_call_builds_and_decomposes_nothing(calls, at_ratio, readout):
    # a warm call reads the branch's record and its rows: it runs the guards,
    # and builds, decomposes, starts, propagates and normalizes nothing
    c = adiabatic.coeffs(1, 4, derive(at_ratio(0.02, l0=4)))
    t1 = math.pi / abs(c.b_n)

    def call():
        return ladder.cycle_readout(c, t1)[1] if readout else _branch(c)

    cold = call()
    assert calls["build_hamiltonian"] == calls["matrix"] == calls["eigh"] == 1
    assert calls["_phases"] == calls["norm(rows)"] == 1
    calls.clear()
    for _ in range(3):
        assert np.asarray(call()).tobytes() == np.asarray(cold).tobytes()
    assert not +calls, calls


def test_the_scenarios_of_one_schedule_propagate_it_once(calls):
    # bell-opposite, bell-same and ghz3-8 read the branch at the same (t1, t2)
    p = params.rubidium_preset()
    for s, r in ((1, 0), (3, 1)):
        calls.clear()
        reports = [entangle.run_scenario(p, s=s, r=r, mode=mode, k=k, engine="ladder")
                   for mode, k in [("opposite", 2), ("same", 2), *(("same", k) for k in range(3, 9))]]
        assert len({rep.scenario for rep in reports}) == 3
        assert calls["_phases"] == 1, (s, r)


# (refused times, or a threshold set before the call, and the refusal)
REFUSED = [
    pytest.param([1.0, math.nan], None, ValueError, id="nan-time"),
    pytest.param([-1.0], None, ValueError, id="negative-time"),
    pytest.param([1.0, 1e308], None, ladder.ResolutionError, id="overflowing-time"),
    *(pytest.param(None, case[:2], case[2], id=case[0]) for case in THRESHOLDS),
]


@pytest.mark.parametrize("times, threshold, error", REFUSED)
@pytest.mark.parametrize("readout", [False, True], ids=["branch_pairs", "cycle_readout"])
def test_a_refused_call_is_refused_on_every_call_and_leaves_no_entry(monkeypatch, at_ratio,
                                                                     times, threshold, error,
                                                                     readout):
    c = adiabatic.coeffs(1, 4, derive(at_ratio(0.02, l0=4)))
    times = times or [math.pi / abs(c.b_n)]
    if threshold:
        monkeypatch.setattr(ladder, *threshold)
    for _ in range(3):
        with pytest.raises(error):
            if readout:  # at the refused time alone
                ladder.cycle_readout(c, times[-1])
            else:
                ladder.branch_pairs(c, times)
        assert ladder._pair_rows.cache_info().currsize == 0


@pytest.mark.parametrize("times", [[math.nan], [1e308, math.nan], [math.nan, 1e308], [-math.inf],
                                   [math.inf], [-1.0, 1e308], [1.0, 1e308]], ids=str)
def test_a_refused_time_gets_the_refusal_evolve_gives(at_ratio, times):
    # the duration guard runs before the lookup, on the times as evolve reads
    # them: a nan is left to the time guard, a negative time does not count
    c = adiabatic.coeffs(1, 4, derive(at_ratio(0.02, l0=4)))
    h = ladder._branch(*ladder._branch_key(c))
    with pytest.raises(Exception) as expected:
        ladder.evolve(h, c.b_n, times)
    with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
        ladder.branch_pairs(c, times)
    assert ladder._pair_rows.cache_info().currsize == 0


def test_the_row_cache_is_bounded(rubidium_derived):
    c = adiabatic.coeffs(1, 2, rubidium_derived)
    period = 2.0 * math.pi / abs(c.b_n)
    for i in range(1000):
        ladder.branch_pairs(c, [i * period / 1000])
    assert 0 < ladder._pair_rows.cache_info().currsize <= 128


def test_rows_at_times_that_share_a_first_time_are_their_own(calls, at_ratio):
    # the rows are keyed on every time of a call, in order, so no call is
    # served another's rows; each gives the bits of the uncached propagation
    c = adiabatic.coeffs(1, 4, derive(at_ratio(0.02, l0=4)))
    h = ladder._branch(*ladder._branch_key(c))
    t1, t2 = adiabatic.pulse_times(c, 1, 1)
    schedules = [(t1,), (t1, t2), (t1, t1), (t1, 0.5 * t2), (t1, t2, 0.5 * t2), (t2, t1)]
    for _ in range(2):
        for times in schedules:
            expect = ladder.evolve(h, c.b_n, times)[:, list(h.pair)]
            assert np.asarray(ladder.branch_pairs(c, times)).tobytes() == expect.tobytes(), times
            _, pair = ladder.cycle_readout(c, times[0])
            alone = ladder.evolve(h, c.b_n, times[:1])[0, list(h.pair)]
            assert np.asarray(pair).tobytes() == alone.tobytes()
    # one propagation per call of evolve and per distinct tuple of times (t1 alone among them)
    assert calls["_phases"] == 4 * len(schedules) + len({*schedules, (t1,), (t2,)})
