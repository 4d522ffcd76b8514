"""A seeded table of mutants of the package and the tests that must kill each.

    python tests/mutants.py [name ...]

Each mutant replaces one piece of text, which occurs exactly once in its file
under src/braggbell/, by another. The runner copies src/ to a temporary
directory, applies the mutant there and runs the mutant's pytest node ids
against the copy (PYTHONPATH points at it). A mutant is killed when one of
its node ids fails, and survives when all of them pass. A known survivor
carries the reason its tests cannot kill it; it is run all the same, so the
table shows when a new test starts to. With no names, every mutant runs. The
exit code is 0 when every mutant met its row (killed, or a known survivor
that survived), 1 when one did not, and 2 for an unknown name or a run
pytest could not collect.

The table is not collected by tier-1 (its name does not match test_*.py);
tests/test_tooling.py checks that each text occurs exactly once and that
each node id exists, without running a mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

Mutant = namedtuple("Mutant", "name path old new nodes survives", defaults=(None,))

MUTANTS = (
    Mutant(
        "readout-runs-incoherent",
        "ladder.py",
        "in_run = np.eye(len(evals))[runs]",
        "in_run = np.eye(len(evals))",
        ("tests/test_ladder.py::test_cycle_readout_matches_a_50_digit_decomposition",),
    ),
    Mutant(
        "readout-pop-dev-second-term",
        "ladder.py",
        "pop_dev = np.maximum(",
        "pop_dev = (lambda _, second: second)(",
        ("tests/test_ladder.py::test_cycle_readout_bounds_a_dense_sampling_of_the_cycle",),
    ),
    Mutant(
        "readout-pop-dev-first-term",
        "ladder.py",
        "pop_dev = np.maximum(",
        "pop_dev = (lambda first, _: first)(",
        ("tests/test_ladder.py::test_cycle_readout_bounds_a_dense_sampling_of_the_cycle",),
        survives="the second term exceeds the first by at most 6.5e-9 relative over "
        "l0 <= 10 and chi*n0/w_rec <= 1",
    ),
    Mutant(
        "diagonal-rounded-symmetric",
        "ladder.py",
        "diagonal = d.recoil_frequency * orders * (orders + l0)",
        "diagonal = d.recoil_frequency * (orders * (orders + l0))",
        ("tests/test_golden.py::test_golden_case[validate-l8-chi0.03]",
         "tests/test_ladder.py::test_the_diagonal_is_mirror_symmetric_bit_for_bit[8]"),
    ),
    Mutant(
        "decompose-conjugated-start",
        "ladder.py",
        "coeffs = evecs.T @ s\n",
        "coeffs = evecs.T @ s.conj()\n",
        ("tests/test_ladder.py::test_conjugate_amplitudes_evolve_back_to_the_start",),
    ),
    Mutant(
        "cached-arrays-writable",
        "ladder.py",
        "array.flags.writeable = False",
        "array.flags.writeable = True",
        ("tests/test_caches.py::test_cached_arrays_refuse_in_place_writes",),
    ),
    Mutant(
        "resolution-guard-dropped",
        "ladder.py",
        "    check_resolution(h, b_n)\n",
        "",
        ("tests/test_cli.py::test_simulate_duration_zero_is_refused_like_any_duration",),
    ),
    Mutant(
        "pair-rows-resolution-guard-dropped",
        "ladder.py",
        "    check_resolution(h, c.b_n)\n",
        "",
        ("tests/test_caches.py::test_a_resolution_refused_branch_is_never_decomposed",),
    ),
    Mutant(
        "norm-drift-guard-dropped",
        "ladder.py",
        "    _check_drift(_drift(amps, h.start_norm))\n",
        "",
        ("tests/test_ladder.py::test_evolve_refuses_a_drift_above_the_tolerance",),
    ),
    Mutant(
        "pair-rows-miss-skips-drift",
        "ladder.py",
        "    _check_drift(drift)\n    kept, flipped = h.pair\n",
        "    kept, flipped = h.pair\n",
        ("tests/test_caches.py::test_a_refused_call_is_refused_on_every_call_and_leaves_no_entry",),
    ),
    Mutant(
        "pair-rows-hit-skips-drift",
        "ladder.py",
        "    _check_drift(drift)\n    return h, rows",
        "    return h, rows",
        ("tests/test_caches.py::test_a_threshold_set_after_a_warm_run_still_refuses_it",),
    ),
    Mutant(
        "pair-rows-hit-skips-edge",
        "ladder.py",
        "    _check_edge(h.start_projection[1], h)\n",
        "",
        ("tests/test_caches.py::test_a_threshold_set_after_a_warm_run_still_refuses_it",),
    ),
    Mutant(
        "pair-rows-keyed-on-first-time",
        "ladder.py",
        "rows, drift = _pair_rows(*key, struct.pack(f\"<{len(times)}d\", *times))",
        "rows, drift = vars(_pair_rows).setdefault((key, times[0]), _pair_rows(*key, "
        "struct.pack(f\"<{len(times)}d\", *times)))",
        ("tests/test_caches.py::test_rows_at_times_that_share_a_first_time_are_their_own",),
    ),
    Mutant(
        "threshold-frozen-in-record",
        "ladder.py",
        "    return RESOLUTION_LIMIT * sys.float_info.epsilon * _as_branch(h).h_norm\n",
        "    b = _as_branch(h)\n"
        "    return vars(b).setdefault('limit', RESOLUTION_LIMIT * sys.float_info.epsilon * b.h_norm)\n",
        ("tests/test_caches.py::test_a_threshold_set_after_a_warm_run_still_refuses_it",),
    ),
    Mutant(
        "partition-reads-GUARD",
        "adiabatic.py",
        "    _, l_max = default_range(l0)\n"
        "    if n < 0:\n"
        "        raise ValueError(f\"photon number must be >= 0, got {n}\")\n"
        "    a, b = _partition(n, l0, l_max, d.recoil_frequency, d.chi)\n"
        "    return TwoLevelCoeffs(a, b, n, l0, d, include_stark)\n"
        "\n"
        "\n"
        "@functools.lru_cache\n"
        "def _partition(n: int, l0: int, l_max: int, w: float, chi: float) -> tuple[float, float]:\n"
        "    \"\"\"(a_n, b_n) of the n-photon ladder on the orders -l0-l_max..l_max (module docstring).\"\"\"\n",
        "    if n < 0:\n"
        "        raise ValueError(f\"photon number must be >= 0, got {n}\")\n"
        "    a, b = _partition(n, l0, d.recoil_frequency, d.chi)\n"
        "    return TwoLevelCoeffs(a, b, n, l0, d, include_stark)\n"
        "\n"
        "\n"
        "@functools.lru_cache\n"
        "def _partition(n: int, l0: int, w: float, chi: float) -> tuple[float, float]:\n"
        "    \"\"\"(a_n, b_n) of the n-photon ladder on the orders -l0-l_max..l_max (module docstring).\"\"\"\n"
        "    _, l_max = default_range(l0)\n",
        ("tests/test_caches.py::test_a_patched_guard_changes_both_results",),
    ),
    Mutant(
        "closed-form-time-reversal-lost",
        "adiabatic.py",
        "half = 0.5 * c.b_n * t",
        "half = 0.5 * c.b_n * abs(t)",
        ("tests/test_adiabatic.py::test_solve_backwards_is_the_conjugate_forwards",),
    ),
    Mutant(
        "json-plan-ignores-depth",
        "entangle.py",
        "            keys, template = _plan(newline, tuple(obj))\n",
        "            keys, template = vars(_plan).setdefault(tuple(obj), _plan(newline, tuple(obj)))\n",
        ("tests/test_entangle.py::test_a_key_plan_gives_json_dumps_bytes_at_two_depths_and_in_two_orders",),
    ),
    Mutant(
        "products-terms-ignore-bits",
        "entangle.py",
        "        key = tuple(bits)\n",
        "        key = ()\n",
        ("tests/test_entangle.py::test_a_warm_products_gives_the_bits_of_a_fresh_one",),
    ),
    Mutant(
        "basis-check-skipped-for-any-tuple",
        "entangle.py",
        "        rows = _conjugated_rows(basis, what)\n",
        "        rows = tuple(basis) if type(basis) is tuple else _conjugated_rows(basis, what)\n",
        ("tests/test_entangle.py::test_a_non_orthonormal_basis_is_refused_on_every_call",),
    ),
    Mutant(
        "mirror-pairs-not-reversed",
        "entangle.py",
        "pair if q == 0 else pair[::-1]",
        "pair if q == 0 else pair",
        ("tests/test_entangle.py::test_opposite_and_same_incidence_score_bit_equal_fidelity",
         "tests/test_acceptance.py::test_criterion_6_bell_suite"),
    ),
    Mutant(
        "target-sign-without-r-parity",
        "entangle.py",
        "sign = 1 - 2 * (r % 2)",
        "sign = 1",
        ("tests/test_entangle.py::test_outcome_minus_at_r_scores_as_plus_at_r_plus_one",),
    ),
    Mutant(
        "outcome-signs-swapped",
        "entangle.py",
        "zip(labels, (sign, -sign))",
        "zip(labels, (-sign, sign))",
        ("tests/test_entangle.py::test_outcome_minus_at_r_scores_as_plus_at_r_plus_one",
         "tests/test_entangle.py::test_four_more_pulses_leave_the_adiabatic_fidelity",
         "tests/test_entangle.py::test_adiabatic_relations_hold_across_the_grid"),
        survives="both sides of each symmetry relation move alike; an end-to-end oracle "
        "must kill it",
    ),
)


def node_ids(mutants=MUTANTS) -> list[str]:
    """Every node id of the mutants, each once, in table order."""
    return list(dict.fromkeys(node for m in mutants for node in m.nodes))


def run(mutant: Mutant) -> int:
    """pytest's exit code on the mutant's node ids, against a mutated copy of src/."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "braggbell" / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: its text occurs {text.count(mutant.old)} times")
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.nodes]
        return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True).returncode


def main(names: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}; known: {', '.join(by_name)}")
        return 2
    status = 0
    for mutant in [by_name[name] for name in names] or MUTANTS:
        code = run(mutant)
        # pytest exits 1 when a test failed; anything else is no verdict
        if code not in (0, 1):
            print(f"{mutant.name}: error (pytest exit {code})")
            status = 2
        elif mutant.survives is None:
            print(f"{mutant.name}: {'killed' if code else 'SURVIVED'}")
            status = max(status, 1 - code)
        else:
            print(f"{mutant.name}: {'KILLED, listed as a survivor' if code else 'survived, as listed'}"
                  f" ({mutant.survives})")
            status = max(status, code)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
