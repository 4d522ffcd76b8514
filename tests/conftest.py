import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # makes `oracles` importable

from braggbell import adiabatic, entangle, ladder, params


@pytest.fixture(autouse=True)
def _cold_caches():
    """Each test starts with empty per-branch caches, row caches and JSON key
    plans, so no result depends on test order."""
    adiabatic._partition.cache_clear()
    ladder._branch.cache_clear()
    ladder._pair_rows.cache_clear()
    entangle._plan.cache_clear()


@pytest.fixture
def rubidium():
    return params.rubidium_preset()


@pytest.fixture
def rubidium_derived(rubidium):
    return params.derive(rubidium)


@pytest.fixture
def at_ratio():
    """Rubidium with the coupling rescaled to an exact chi*n0/w_rec, the
    detuning (and so chi) of the given sign."""

    def _make(ratio, l0=2, n0=1, sign=1):
        from dataclasses import replace

        base = params.rubidium_preset()
        p = replace(base, l0=l0, n0=n0, detuning=sign * base.detuning)
        return params.with_regime_ratio(p, ratio)

    return _make
