"""Bragg-cavity momentum entanglement simulator.

Atoms Bragg-deflect off a cavity standing wave held in a superposition of
photon-number states; measuring the field in the superposition basis leaves
the atomic momenta in Bell or GHZ states. This package provides the full
momentum-ladder integrator, the two-level reduction derived from it, and the
joint-state bookkeeping needed to score the entanglement.
"""

from .adiabatic import TwoLevelCoeffs, TwoLevelSolution, coeffs, coupling, level_shift, pulse_times, solve
from .entangle import (
    BranchAmplitudes,
    EntanglementReport,
    FieldSuperposition,
    JointState,
    MeasurementError,
    RegimeError,
    bell_target,
    compose,
    computational_basis,
    concurrence,
    fidelity,
    ghz_target,
    measure_atom,
    measure_field,
    run_scenario,
    superposition_basis,
)
from .ladder import (
    LadderHamiltonian,
    LadderState,
    TruncationError,
    build_hamiltonian,
    default_range,
    evolve,
    extract_flip_frequency,
    initial_state,
    sample_evolution,
)
from .params import (
    DerivedParams,
    ParameterError,
    PhysicalParams,
    RegimeVerdict,
    derive,
    get_preset,
    resolve_params,
    rubidium_preset,
    validate_bragg_regime,
    with_regime_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "BranchAmplitudes",
    "DerivedParams",
    "EntanglementReport",
    "FieldSuperposition",
    "JointState",
    "LadderHamiltonian",
    "LadderState",
    "MeasurementError",
    "ParameterError",
    "PhysicalParams",
    "RegimeError",
    "RegimeVerdict",
    "TruncationError",
    "TwoLevelCoeffs",
    "TwoLevelSolution",
    "bell_target",
    "build_hamiltonian",
    "coeffs",
    "compose",
    "computational_basis",
    "concurrence",
    "coupling",
    "default_range",
    "derive",
    "evolve",
    "extract_flip_frequency",
    "fidelity",
    "get_preset",
    "ghz_target",
    "initial_state",
    "level_shift",
    "measure_atom",
    "measure_field",
    "pulse_times",
    "resolve_params",
    "rubidium_preset",
    "run_scenario",
    "sample_evolution",
    "solve",
    "superposition_basis",
    "validate_bragg_regime",
    "with_regime_ratio",
]
