"""Bragg-cavity momentum entanglement simulator.

Atoms Bragg-deflect off a cavity standing wave held in a superposition of
photon-number states; measuring the field in the superposition basis leaves
the atomic momenta in Bell or GHZ states. This package provides the full
momentum-ladder integrator (`ladder`), the two-level reduction derived from it
(`adiabatic`), and the joint-state bookkeeping needed to score the
entanglement (`entangle`); import names from those submodules.
"""

__version__ = "0.1.0"
