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
samples its amplitudes at every requested time, then checks the norm. It
uses the exact propagator from one eigendecomposition H = V E V^T of the
(time-independent) generator, for any duration and number of times, so norm
is conserved to machine precision. Sampling a cycle on an evenly spaced grid
from zero (np.linspace(0, T, n)) costs that one decomposition and phases
exp(-iE*t) from two tables of ceil(sqrt(n)) rows, each grid time taking the
product of one row of each; any other time gets its own row.

Truncation is policed, not assumed: with c = V^T C(0),
max_t |C_edge(t)|^2 <= (sum_j |V_edge,j c_j|)^2, and a bound above
EDGE_THRESHOLD aborts with TruncationError. A branch without coupling (the
vacuum, n = 0) is already diagonal and is propagated from its diagonal
without a decomposition.

Resolution is policed too: the flip frequency b_n of the resonant pair is an
eigenvalue splitting, which the eigen-solver resolves only down to about
eps*||H||. check_resolution refuses a coupled branch whose |b_n| is within
RESOLUTION_LIMIT*eps*||H||, with ||H|| bounded by Gershgorin's
max|diagonal| + 2|off_diagonal|, and raises ResolutionError. A row whose norm
drifts from the initial one by more than NORM_TOL raises NormDriftError. The
three thresholds are constants. The ladder's range is set by one integer,
the guard, through params.default_range, which the two-level engine and the
CLI use without loading this module or numpy.

A mirror-incident atom (initial momentum -P_{l0}) obeys the same equations on
a sign-flipped momentum grid, so the same Hamiltonian and propagation serve
it: its |+> and |-> are the orders -l0 and 0 instead of 0 and -l0, a
relabelling left to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import DEFAULT_GUARD, DerivedParams, PhysicsError, default_range

NORM_TOL = 1e-9         # largest |norm(t) - norm(0)| accepted
EDGE_THRESHOLD = 1e-10  # largest bound on the edge population accepted
RESOLUTION_LIMIT = 1e3  # |b_n| must exceed this many eps*||H||


class TruncationError(PhysicsError):
    """Population reached the ladder boundary; widen the range or fix the regime."""


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
        m = np.diag(self.diagonal)
        off = np.full(self.size - 1, self.off_diagonal)
        m += np.diag(off, 1) + np.diag(off, -1)
        return m


def build_hamiltonian(
    n: int,
    l0: int,
    d: DerivedParams,
    guard: int = DEFAULT_GUARD,
    include_stark: bool = False,
) -> LadderHamiltonian:
    """Assemble the ladder generator for a branch with n photons on the
    params.default_range(l0, guard) grid.

    With include_stark the constant -chi*n light shift (dropped from the rate
    equations because it is common to every order) is kept on the diagonal;
    it matters only for the phase between different field branches.
    """
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    l_min, l_max = default_range(l0, guard)
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
    if np.any(times < 0):
        raise ValueError("sample times must be >= 0")
    if h.off_diagonal == 0.0:
        evals, evecs = h.diagonal, np.eye(h.size)
    else:
        evals, evecs = np.linalg.eigh(h.matrix())
    coeffs = evecs.T @ s
    edge = np.sum(np.abs(evecs[[0, -1]] * coeffs), axis=1) ** 2
    if np.any(edge > EDGE_THRESHOLD):
        worst = float(edge.max())
        raise TruncationError(
            f"boundary population bound {worst:.3e} exceeds edge threshold "
            f"{EDGE_THRESHOLD:.1e}; ladder range [{h.l_min}, {h.l_max}] is too "
            "narrow for this coupling"
        )
    return _phases(evals, times) * coeffs @ evecs.T


def _phases(evals: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i*E*t), one row per time, one column per eigenvalue.

    A leading run times[j] == j*dt, which is what np.linspace(0, T, n) yields,
    takes its phases from two tables of B = ceil(sqrt(run)) rows, since
    j*dt = (hi*B + lo)*dt; every other time gets its own row.
    """
    run = _grid_run(times)
    if run == 0:
        return np.exp(-1j * np.outer(times, evals))
    dt = times[1]
    b = math.isqrt(run - 1) + 1
    lo = np.exp(-1j * np.outer(np.arange(b) * dt, evals))
    hi = np.exp(-1j * np.outer(np.arange(0, run, b) * dt, evals))
    grid = (hi[:, np.newaxis] * lo).reshape(-1, evals.size)[:run]
    if run == times.size:
        return grid
    return np.concatenate([grid, np.exp(-1j * np.outer(times[run:], evals))])


def _grid_run(times: np.ndarray) -> int:
    """Length of the leading run times[j] == j*times[1], or 0 when there is none."""
    if times.size < 2 or times[0] != 0.0 or not times[1] > 0.0:
        return 0
    on_grid = times == np.arange(times.size) * times[1]
    return times.size if on_grid.all() else int(on_grid.argmin())


def check_resolution(h: LadderHamiltonian, b_n: float) -> None:
    """Raise ResolutionError if |b_n| <= RESOLUTION_LIMIT * eps * ||H|| (module docstring).

    A branch without coupling is never decomposed, so it always passes.
    """
    if h.off_diagonal == 0.0:
        return
    h_norm = float(np.max(np.abs(h.diagonal))) + 2.0 * abs(h.off_diagonal)
    limit = RESOLUTION_LIMIT * np.finfo(np.float64).eps * h_norm
    if abs(b_n) <= limit:
        raise ResolutionError(
            f"flip frequency |b_n| = {abs(b_n):.3e} rad/s is not above "
            f"{limit:.3e} rad/s, the smallest splitting the eigen-solver resolves "
            f"in the l0={h.l0} ladder; lower l0 or raise the coupling"
        )


def check_norm_drift(amplitudes: np.ndarray, s: np.ndarray) -> None:
    """Raise NormDriftError if a row of `amplitudes` differs in norm from s by > NORM_TOL."""
    drift = np.max(np.abs(np.linalg.norm(amplitudes, axis=-1) - np.linalg.norm(s)))
    if drift > NORM_TOL:
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
