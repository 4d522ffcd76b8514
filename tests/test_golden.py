"""Every golden case in tests/golden/ regenerates to what is committed.

Each case reruns `cli.main` in-process (tests/golden/regenerate.py, which
also rewrites the corpus). Exit codes, stderr and the text of every output
must match byte for byte. A case that reads the ladder may differ only in
its numbers, each within 1e-12 relative: LAPACK builds differ in the last
digits of an eigendecomposition.
"""

import json
import math
import re
from pathlib import Path

import pytest

from golden.regenerate import run_case

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(GOLDEN.glob("*.json"))
LADDER_RTOL = 1e-12
_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")


def _lines_match(got: list[str], want: list[str], ladder: bool) -> bool:
    """Byte-equal lines, or for a ladder case, equal but for numbers within LADDER_RTOL."""
    if got == want:
        return True
    if not ladder or len(got) != len(want):
        return False
    for g, w in zip(got, want):
        g_parts, w_parts = _NUMBER.split(g), _NUMBER.split(w)
        if len(g_parts) != len(w_parts):
            return False
        # split with one group alternates text (even indices) and numbers (odd)
        for i, (a, b) in enumerate(zip(g_parts, w_parts)):
            if a != b and (i % 2 == 0 or not math.isclose(float(a), float(b), rel_tol=LADDER_RTOL)):
                return False
    return True


def test_corpus_is_present():
    assert len(CASES) >= 45
    assert sum(path.stat().st_size for path in CASES) < 150_000


@pytest.mark.parametrize("path", CASES, ids=lambda path: path.stem)
def test_golden_case(path):
    want = json.loads(path.read_text())
    got = run_case(want["argv"])
    assert got["ladder"] == want["ladder"]
    assert (got["exit"], got["stderr"]) == (want["exit"], want["stderr"])
    assert _lines_match(got["stdout"], want["stdout"], want["ladder"]), "stdout"
    assert sorted(got["files"]) == sorted(want["files"])
    for name, file in want["files"].items():
        assert got["files"][name]["lines"] == file["lines"], name
        assert _lines_match(got["files"][name]["head"], file["head"], want["ladder"]), name


def test_one_ulp_fails_an_adiabatic_case_and_passes_only_within_tolerance_on_the_ladder():
    value = 0.9999999999999998
    ulp = math.nextafter(value, 2.0)
    line, moved = f'  "fidelity": {value!r},', f'  "fidelity": {ulp!r},'
    assert not _lines_match([moved], [line], ladder=False)
    assert _lines_match([moved], [line], ladder=True)
    assert not _lines_match([f'  "fidelity": {value * (1 + 1e-11)!r},'], [line], ladder=True)
    # text is never forgiven, not even in a ladder case
    assert not _lines_match(['  "fidelity": 1.0 '], ['  "fidelity": 1.0'], ladder=True)
