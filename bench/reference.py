"""Independent reference for the Bragg momentum ladder.

Everything here is built from the rate equation

    i dC_l/dt = w_rec*l*(l+l0)*C_l - (chi*n/2)*(C_{l+2} + C_{l-2})

without importing braggbell, so a fault shared with the package cannot cancel
out. The dense ladder matrix is diagonalised once per Hamiltonian in 60-digit
arithmetic (mpmath), and each atom's branch is propagated with the matrix
exponential exp(-iHt) = V exp(-i E t) V^T in the same precision. Float64
cannot do this job: the flip frequency b_n falls to ~1e-19 rad/s at l0=12,
far below float64 eigen-resolution of a matrix whose norm is ~1e6 rad/s, and
the interaction times reach 1e6 s at l0=6 (1e19 s at l0=12), where
scipy.linalg.expm already misses unit norm by ~1e-5.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

HBAR = 1.054571817e-34  # J*s (CODATA 2018)
GUARD = 8               # orders kept beyond the resonant pair {0, -l0}
MP_DIGITS = 60

# The rubidium preset as the package README documents it; the CLI commands
# run on it, so their outputs are checked against these values
RB_MASS = 1.42e-25
RB_WAVELENGTH = 0.8e-6
RB_G = 2.0 * math.pi * 112e3
RB_DETUNING = 2.0 * math.pi * 80e6


def recoil(mass: float, wavelength: float) -> float:
    k = 2.0 * math.pi / wavelength
    return HBAR * k * k / (2.0 * mass)


def chi(g: float, detuning: float) -> float:
    return abs(g) ** 2 / (2.0 * detuning)


def orders(l0: int) -> list[int]:
    return list(range(-l0 - GUARD, GUARD + 1, 2))


class LadderReference:
    """Ladders and per-atom amplitudes, cached by (chi*n/w_rec, l0[, tau])."""

    def __init__(self):
        self._ladders: dict = {}
        self._pairs: dict = {}

    def ladder(self, chi_n_over_w: float, l0: int) -> "MpLadder":
        key = (chi_n_over_w, l0)
        if key not in self._ladders:
            self._ladders[key] = MpLadder(chi_n_over_w, l0)
        return self._ladders[key]

    def pair(self, chi_n_over_w: float, l0: int, tau: float) -> tuple[complex, complex]:
        key = (chi_n_over_w, l0, tau)
        if key not in self._pairs:
            self._pairs[key] = self.ladder(chi_n_over_w, l0).pair(tau)
        return self._pairs[key]

    def joint(self, w_rec, chi_n, l0, directions, times) -> tuple[np.ndarray, float]:
        """Normalised (2, 2^k) joint state, row 0 vacuum branch, row 1 Fock
        branch, and the population that left the two resonant orders.

        Atom 0 is the most significant qubit; bit 0 = P_{+l0}, bit 1 = P_{-l0}.
        A mirror-incident atom (direction -1) starts in P_{-l0}, so its ladder
        amplitudes map onto the qubit swapped.
        """
        rows = []
        for ratio in (0.0, chi_n / w_rec):
            prod = np.array([1.0 + 0.0j])
            for drc, t in zip(directions, times):
                a0, am = self.pair(ratio, l0, w_rec * t)
                qubit = (a0, am) if drc == 1 else (am, a0)
                prod = np.kron(prod, np.array(qubit))
            rows.append(prod / math.sqrt(2.0))
        vec = np.array(rows)
        norm = float(np.linalg.norm(vec))
        return vec / norm, 1.0 - norm * norm


def bits_index(bits) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    return idx


def fitted_fidelity(post: np.ndarray, k: int) -> float:
    """Fidelity with the best-phase Bell/GHZ target of the state's family."""
    post = np.asarray(post).reshape(-1)
    psi = abs(post[0b01]) ** 2 + abs(post[0b10]) ** 2 if k == 2 else -1.0
    phi = abs(post[0]) ** 2 + abs(post[-1]) ** 2
    u, v = (0b01, 0b10) if psi >= phi else (0, 2**k - 1)
    return float((abs(post[u]) + abs(post[v])) ** 2 / 2.0)


class MpLadder:
    """One ladder Hamiltonian diagonalised in MP_DIGITS-digit arithmetic.

    Energies are in units of w_rec, so the resonant pair's splitting is the
    flip frequency b_n / w_rec.
    """

    def __init__(self, chi_n_over_w: float, l0: int):
        mpmath.mp.dps = MP_DIGITS
        ls = orders(l0)
        dim = len(ls)
        h = mpmath.zeros(dim)
        for i, l in enumerate(ls):
            h[i, i] = mpmath.mpf(l) * (l + l0)
            if i + 1 < dim:
                h[i, i + 1] = h[i + 1, i] = -mpmath.mpf(chi_n_over_w) / 2
        self.energies, self.vectors = mpmath.eigsy(h)
        self.i0, self.im = ls.index(0), ls.index(-l0)
        weight = [self.vectors[self.i0, j] ** 2 + self.vectors[self.im, j] ** 2 for j in range(dim)]
        j1, j2 = sorted(range(dim), key=lambda j: -weight[j])[:2]
        self.b_over_w = float(abs(self.energies[j1] - self.energies[j2]))
        self.norm_over_w = float(max(abs(e) for e in self.energies))

    def column(self, tau: float) -> np.ndarray:
        """Amplitudes of every order at dimensionless time tau = w_rec*t,
        from unit amplitude at l=0."""
        mpmath.mp.dps = MP_DIGITS
        dim = len(self.energies)
        phases = [mpmath.expj(-self.energies[j] * mpmath.mpf(tau)) * self.vectors[self.i0, j]
                  for j in range(dim)]
        return np.array([complex(mpmath.fsum(self.vectors[i, j] * phases[j] for j in range(dim)))
                         for i in range(dim)])

    def pair(self, tau: float) -> tuple[complex, complex]:
        """(C_0, C_{-l0}) at dimensionless time tau."""
        col = self.column(tau)
        return col[self.i0], col[self.im]


def mp_bell_fitted_fidelity(fock: MpLadder, vacuum: MpLadder, tau: float) -> float:
    """Phase-fitted fidelity of the opposite-incidence Bell run, both atoms at tau,
    field measured on (|0> + |n0>)/sqrt2."""
    vac, fk = vacuum.pair(tau), fock.pair(tau)
    branches = [np.kron(np.array(q), np.array(q[::-1])) for q in (vac, fk)]
    post = branches[0] + branches[1]
    return fitted_fidelity(post / np.linalg.norm(post), 2)
