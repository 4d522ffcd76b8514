"""Every golden case in tests/golden/ regenerates to what is committed.

Each case reruns `cli.main` in-process (tests/golden/regenerate.py, which
also rewrites the corpus). Exit codes, stderr and the text of every output
must match byte for byte. A case that reads the ladder may differ only in
its numbers, each within 1e-12 relative: LAPACK builds differ in the last
digits of an eigendecomposition.
"""

import json
import math
from pathlib import Path

import pytest

from golden import regenerate
from golden.regenerate import LADDER_RTOL, _lines_match, mismatch, run_case

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(GOLDEN.glob("*.json"))


def test_corpus_is_present():
    assert len(CASES) >= 45
    assert sum(path.stat().st_size for path in CASES) < 150_000


@pytest.mark.parametrize("path", CASES, ids=lambda path: path.stem)
def test_golden_case(path):
    want = json.loads(path.read_text())
    assert mismatch(run_case(want["argv"], want.get("inputs")), want) is None


@pytest.mark.parametrize("name", ["bell-set-g-2pi-hz", "bell-config-file"])
def test_spelled_out_rubidium_is_plain_bell(name):
    # g_2pi_hz = 112e3 and the preset spelled out in a file are the preset itself
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert want["exit"] == 0
    assert want["stdout"] == run_case(["bell"])["stdout"]


def test_one_ulp_fails_an_adiabatic_case_and_passes_only_within_tolerance_on_the_ladder():
    value = 0.9999999999999998
    ulp = math.nextafter(value, 2.0)
    line, moved = f'  "fidelity": {value!r},', f'  "fidelity": {ulp!r},'
    assert not _lines_match([moved], [line], ladder=False)
    assert _lines_match([moved], [line], ladder=True)
    assert not _lines_match([f'  "fidelity": {value * (1 + 1e-11)!r},'], [line], ladder=True)
    # text is never forgiven, not even in a ladder case
    assert not _lines_match(['  "fidelity": 1.0 '], ['  "fidelity": 1.0'], ladder=True)


def test_regenerate_rewrites_only_the_cases_the_rule_rejects(tmp_path, monkeypatch):
    # one cheap ladder case committed with its flip frequency moved within the
    # rule and past it, one case not yet committed, and one no longer listed
    argv = ["validate"]
    fresh = run_case(argv)

    def moved(rel: float) -> str:
        record = json.loads(json.dumps(fresh))
        i = next(i for i, line in enumerate(record["stdout"]) if '"freq_rad_s"' in line)
        value = float(record["stdout"][i].split(":")[1].rstrip(","))
        record["stdout"][i] = record["stdout"][i].replace(repr(value), repr(value * (1.0 + rel)))
        assert record != fresh
        return json.dumps(record, indent=1)

    monkeypatch.setattr(regenerate, "HERE", tmp_path)
    monkeypatch.setattr(regenerate, "cases", lambda: dict.fromkeys(("kept", "rewritten", "new"), argv))
    kept = moved(0.1 * LADDER_RTOL)
    (tmp_path / "kept.json").write_text(kept)
    (tmp_path / "rewritten.json").write_text(moved(10.0 * LADDER_RTOL))
    (tmp_path / "stale.json").write_text(kept)
    assert regenerate.main() == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["kept.json", "new.json", "rewritten.json"]
    assert (tmp_path / "kept.json").read_text() == kept
    for name in ("rewritten", "new"):
        assert json.loads((tmp_path / f"{name}.json").read_text()) == fresh
