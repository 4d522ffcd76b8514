"""Truncated momentum-ladder dynamics for one atom in one field Fock branch.

A Bragg-incident atom couples momentum states P_l = P_{l0} + l*hbar*k with l
even. In the rotating frame the amplitude C_l obeys

    i dC_l/dt = w_rec*l*(l+l0)*C_l - (chi*n/2)*(C_{l+2} + C_{l-2}),

a real symmetric tridiagonal generator once the even orders are packed into a
contiguous index. Orders l=0 and l=-l0 are degenerate at zero energy (the two
Bragg-resonant propagation directions); everything else is detuned by
multiples of w_rec, which is what confines the dynamics to two modes when
w_rec >> chi*n.

Propagation has one entry point, evolve(h, b_n, times), which checks that
the flip frequency b_n is resolved, starts the atom at order l = 0 and
samples its amplitudes at every requested time, then checks the norm; the
engine's branch_pairs(c, times) calls it on the branch of the record c. It
uses the exact propagator from one eigendecomposition H = V E V^T of the
(time-independent) generator, for any duration and number of times, so norm
is conserved to machine precision: the amplitudes at time t are
V exp(-iE*t) V^T C(0), one row of phases per time.

cycle_readout(c, t1), which `validate` calls, samples nothing: it reads a
whole flip cycle off the same decomposition (the flip frequency as an
eigenvalue splitting, the time-averaged leakage out of the resonant pair and
bounds on the leakage and on the deviation from the two-level populations at
every time) and propagates the one row at t1, under the same guards.

Truncation is policed, not assumed: with c = V^T C(0),
max_t |C_edge(t)|^2 <= (sum_j |V_edge,j c_j|)^2, and a bound above
EDGE_THRESHOLD aborts with TruncationError.

Resolution is policed too: the flip frequency b_n of the resonant pair is an
eigenvalue splitting, which the eigen-solver resolves only down to about
eps*||H||. check_resolution refuses a coupled branch whose |b_n| is within
RESOLUTION_LIMIT*eps*||H||, with ||H|| bounded by Gershgorin's
max|diagonal| + 2|off_diagonal|, and raises ResolutionError. A row whose norm
drifts from the initial one by more than NORM_TOL raises NormDriftError. The
three thresholds are constants. The ladder's range is fixed by l0 alone,
params.default_range(l0), the grid the two-level reduction is taken on too;
the two-level engine and the CLI read it without loading this module or
numpy.

A mirror-incident atom (initial momentum -P_{l0}) obeys the same equations on
a sign-flipped momentum grid, so the same Hamiltonian and propagation serve
it: its |+> and |-> are the orders -l0 and 0 instead of 0 and -l0, a
relabelling left to the caller.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .adiabatic import TwoLevelCoeffs
from .params import DerivedParams, PhysicsError, default_range

NORM_TOL = 1e-9         # largest |norm(t) - norm(0)| accepted
EDGE_THRESHOLD = 1e-10  # largest bound on the edge population accepted
RESOLUTION_LIMIT = 1e3  # |b_n| must exceed this many eps*||H||


class TruncationError(PhysicsError):
    """Population reached the ladder boundary: the coupling is too strong for the l0 ladder."""


class ResolutionError(PhysicsError):
    """The flip frequency is below what the eigen-solver resolves for this ladder."""


class NormDriftError(PhysicsError):
    """The propagation did not conserve the norm to within NORM_TOL."""


@dataclass(frozen=True)
class LadderHamiltonian:
    """Tridiagonal generator of the ladder equations, rad/s.

    diagonal[i] = w_rec*l*(l+l0) for order l at index i (minus chi*n when the
    constant light shift is kept); off_diagonal couples l <-> l+-2.
    """

    diagonal: np.ndarray
    off_diagonal: float
    l_min: int
    l_max: int
    l0: int
    n: int
    include_stark: bool = False

    @property
    def size(self) -> int:
        return self.diagonal.shape[0]

    @property
    def orders(self) -> np.ndarray:
        """Ladder order l of each index."""
        return np.arange(self.l_min, self.l_max + 1, 2)

    def index_of(self, l: int) -> int:
        if l % 2 or not self.l_min <= l <= self.l_max:
            raise ValueError(f"order {l} outside ladder [{self.l_min}, {self.l_max}]")
        return (l - self.l_min) // 2

    def matrix(self) -> np.ndarray:
        """Dense matrix form (real symmetric)."""
        m = np.zeros((self.size, self.size))
        flat, step = m.reshape(-1), self.size + 1  # a view; each diagonal is a strided slice
        # added to zeros, as a sum of diagonal matrices would be: -0.0 becomes +0.0
        flat[::step] += self.diagonal
        flat[1::step] += self.off_diagonal
        flat[self.size :: step] += self.off_diagonal
        return m


def build_hamiltonian(
    n: int,
    l0: int,
    d: DerivedParams,
    include_stark: bool = False,
) -> LadderHamiltonian:
    """Assemble the ladder generator for a branch with n photons on the
    params.default_range(l0) grid.

    With include_stark the constant -chi*n light shift (dropped from the rate
    equations because it is common to every order) is kept on the diagonal;
    it matters only for the phase between different field branches.
    """
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    l_min, l_max = default_range(l0)
    orders = np.arange(l_min, l_max + 1, 2)
    diagonal = d.recoil_frequency * orders * (orders + l0)
    if include_stark:
        diagonal = diagonal - d.chi * n
    return LadderHamiltonian(
        diagonal=diagonal,
        off_diagonal=-d.chi * n / 2.0,
        l_min=l_min,
        l_max=l_max,
        l0=l0,
        n=n,
        include_stark=include_stark,
    )


def initial_state(h: LadderHamiltonian) -> np.ndarray:
    """Unit amplitude at order l = 0 of h's ladder: incidence along P_{l0}."""
    amps = np.zeros(h.size, dtype=np.complex128)
    amps[h.index_of(0)] = 1.0
    return amps


def sample_evolution(s: np.ndarray, h: LadderHamiltonian, times: np.ndarray) -> np.ndarray:
    """Amplitudes at each requested time (seconds) from the amplitudes s at t = 0.

    Returns an array of shape (len(times), size). Raises TruncationError when
    the time-independent edge bound (module docstring), which also holds
    between the requested times, exceeds EDGE_THRESHOLD.
    """
    s = np.asarray(s, dtype=np.complex128)
    if s.shape != (h.size,):
        raise ValueError(f"expected {h.size} amplitudes for the ladder, got shape {s.shape}")
    times = np.asarray(times, dtype=np.float64)
    # each guard is written so that a nan fails it
    if not (times >= 0).all():
        raise ValueError("sample times must be >= 0 and not nan")
    evals, evecs, coeffs = _decompose(s, h)
    return _phases(evals, times) * coeffs @ evecs.T


def _decompose(s: np.ndarray, h: LadderHamiltonian) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, V, c = V^T s) of H = V E V^T, eigenvalues ascending; raises
    TruncationError when the edge bound exceeds EDGE_THRESHOLD."""
    evals, evecs = np.linalg.eigh(h.matrix())
    coeffs = evecs.T @ s
    edge = np.abs(evecs[[0, -1]] * coeffs).sum(axis=1) ** 2
    if not (edge <= EDGE_THRESHOLD).all():
        worst = float(edge.max())
        raise TruncationError(
            f"boundary population bound {worst:.3e} exceeds edge threshold "
            f"{EDGE_THRESHOLD:.1e}; the coupling is too strong for the l0={h.l0} "
            f"ladder [{h.l_min}, {h.l_max}]"
        )
    return evals, evecs, coeffs


def _phases(evals: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i*E*t), one row per time, one column per eigenvalue."""
    return np.exp(-1j * np.outer(times, evals))


def check_resolution(h: LadderHamiltonian, b_n: float) -> None:
    """Raise ResolutionError if |b_n| <= RESOLUTION_LIMIT * eps * ||H|| (module docstring).

    A branch without coupling has no flip to resolve, so it always passes.
    """
    if h.off_diagonal == 0.0:
        return
    limit = _resolution_limit(h)
    if not abs(b_n) > limit:
        raise ResolutionError(
            f"flip frequency |b_n| = {abs(b_n):.3e} rad/s is not above "
            f"{limit:.3e} rad/s, the smallest splitting the eigen-solver resolves "
            f"in the l0={h.l0} ladder; lower l0 or raise the coupling"
        )


def _resolution_limit(h: LadderHamiltonian) -> float:
    """RESOLUTION_LIMIT*eps*||H||, ||H|| bounded by Gershgorin (module docstring)."""
    h_norm = float(np.abs(h.diagonal).max()) + 2.0 * abs(h.off_diagonal)
    return RESOLUTION_LIMIT * sys.float_info.epsilon * h_norm


def check_norm_drift(amplitudes: np.ndarray, s: np.ndarray) -> None:
    """Raise NormDriftError if a row of `amplitudes` differs in norm from s by > NORM_TOL."""
    drift = np.max(np.abs(np.linalg.norm(amplitudes, axis=-1) - np.linalg.norm(s)))
    if not drift <= NORM_TOL:
        raise NormDriftError(f"norm drift {drift:.3e} exceeds tol {NORM_TOL:.1e}")


def evolve(h: LadderHamiltonian, b_n: float, times: np.ndarray) -> np.ndarray:
    """Amplitudes of an atom entering at l = 0, at each of `times` (seconds) under h.

    Shape (len(times), size). b_n is the branch's flip frequency (its sign
    is not used), which check_resolution checks before anything is
    propagated; the edge bound and the norm are checked after (module
    docstring).
    """
    check_resolution(h, b_n)
    s = initial_state(h)
    amps = sample_evolution(s, h, times)
    check_norm_drift(amps, s)
    return amps


def branch_pairs(c: TwoLevelCoeffs, times) -> np.ndarray:
    """(kept, flipped) of an atom entering on +P_{l0}, one row per time, from the
    branch of the record c (adiabatic.TwoLevelCoeffs), whose b_n the guard checks."""
    h = build_hamiltonian(c.n, c.l0, c.d, c.include_stark)
    amps = evolve(h, c.b_n, times)
    return amps[:, [h.index_of(0), h.index_of(-c.l0)]]


def cycle_readout(c: TwoLevelCoeffs, t1: float) -> tuple[dict, np.ndarray]:
    """One flip cycle of an atom entering on +P_{l0}, read off one decomposition
    of the branch of the record c, and its (kept, flipped) pair at t1.

    With H = V E V^T, c_j = V_{0,j}, w_j = c_j^2 and u_j = V_{0,j} V_{-l0,j},
    the keys are
    - freq_rad_s: |E_a - E_b|, a and b the two largest w_j;
    - mean_leakage: sum over l outside {0, -l0} and runs g of |sum_{j in g} V_lj c_j|^2,
      the time average of the population outside the pair;
    - leakage_bound: sum over the same l of (sum_g |sum_{j in g} V_lj c_j|)^2,
      a bound on that population at every time;
    - pop_dev_bound: a bound on |P_+- - cos^2/sin^2(|b_n| t/2)| over the cycle
      0 <= t <= 2*pi/|b_n|, pi*|freq_rad_s/|b_n| - 1| +
      max(4 rho_A + (w_a - w_b)^2, (u_a + u_b)^2 + |1 - (u_a - u_b)^2| + 2 rho_B + rho_B^2),
      where rho_A = sum_{j not a, b} w_j and rho_B = sum_g |sum_{j in g, j not a, b} u_j|.
    A run g is a stretch of sorted eigenvalues spaced within the resolution
    limit (check_resolution): the solver returns a degenerate run, such as an
    off-resonant mirror pair, in an arbitrary basis, so each run is summed
    coherently. The guards are those of evolve, and the pair row is checked
    for norm drift.
    """
    h = build_hamiltonian(c.n, c.l0, c.d, c.include_stark)
    check_resolution(h, c.b_n)
    s = initial_state(h)
    evals, evecs, coeffs = _decompose(s, h)
    row = _phases(evals, [t1])[0] * coeffs @ evecs.T
    check_norm_drift(row, s)

    pair = [h.index_of(0), h.index_of(-c.l0)]
    v0 = evecs[pair[0]]
    w, u = v0 * v0, v0 * evecs[pair[1]]
    a, b = np.argsort(w)[-2:]
    freq = abs(float(evals[a] - evals[b]))
    order = np.argsort(evals)
    starts = np.flatnonzero(np.diff(evals[order]) > _resolution_limit(h)) + 1
    starts = np.concatenate(([0], starts))

    def by_run(x: np.ndarray) -> np.ndarray:
        return np.add.reduceat(x[..., order], starts, axis=-1)

    outside = np.ones(h.size, dtype=bool)
    outside[pair] = False
    rest = np.ones(h.size, dtype=bool)
    rest[[a, b]] = False
    leak = by_run(evecs[outside] * v0)
    rho_a = float(w[rest].sum())
    rho_b = float(np.abs(by_run(np.where(rest, u, 0.0))).sum())
    pop_dev = max(
        4.0 * rho_a + (w[a] - w[b]) ** 2,
        (u[a] + u[b]) ** 2 + abs(1.0 - (u[a] - u[b]) ** 2) + 2.0 * rho_b + rho_b**2,
    )
    fields = {
        "freq_rad_s": freq,
        "mean_leakage": float(np.sum(leak**2)),
        "leakage_bound": float(np.sum(np.abs(leak).sum(axis=1) ** 2)),
        "pop_dev_bound": math.pi * abs(freq / abs(c.b_n) - 1.0) + float(pop_dev),
    }
    return fields, row[pair]


def extract_flip_frequency(times: np.ndarray, p_plus: np.ndarray, p_flip: np.ndarray) -> float:
    """Angular frequency of the population exchange between the two resonant orders.

    Works on sampled populations only (no model fit): within the two-mode
    subspace p_flip/(p_plus+p_flip) = sin^2(w*t/2), so cos(w*t) is recovered
    directly, its sign-resolved angle unwrapped, and the least-squares slope
    taken in closed form. Needs at least ~half an oscillation inside the window.
    """
    times = np.asarray(times, dtype=np.float64)
    q = np.asarray(p_flip) / (np.asarray(p_plus) + np.asarray(p_flip))
    c = np.clip(1.0 - 2.0 * q, -1.0, 1.0)
    sin_sign = np.sign(np.gradient(q, times, edge_order=1))
    angle = np.unwrap(np.arctan2(sin_sign * np.sqrt(1.0 - c * c), c))
    tc = times - times.mean()
    slope = tc @ (angle - angle.mean()) / (tc @ tc)
    return float(abs(slope))
