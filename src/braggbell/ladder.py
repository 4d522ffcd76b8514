"""Truncated momentum-ladder dynamics for one atom in one field Fock branch.

A Bragg-incident atom couples momentum states P_l = P_{l0} + l*hbar*k with l
even. In the rotating frame the amplitude C_l obeys

    i dC_l/dt = w_rec*l*(l+l0)*C_l - (chi*n/2)*(C_{l+2} + C_{l-2}),

a real symmetric tridiagonal generator once the even orders are packed into a
contiguous index. Orders l=0 and l=-l0 are degenerate at zero energy (the two
Bragg-resonant propagation directions); everything else is detuned by
multiples of w_rec, which is what confines the dynamics to two modes when
w_rec >> chi*n.

Evolution uses the exact propagator from one eigendecomposition H = V E V^T
of the (time-independent) generator, for any duration and number of times,
so norm is conserved to machine precision. Sampling a cycle on an evenly
spaced grid from zero (np.linspace(0, T, n)) costs that one decomposition
and phases exp(-iE*t) from two tables of ceil(sqrt(n)) rows, each grid time
taking the product of one row of each; any other time gets its own row.

Truncation is policed, not assumed: with c = V^T C(0),
max_t |C_edge(t)|^2 <= (sum_j |V_edge,j c_j|)^2, and a bound above
`edge_threshold` aborts with TruncationError. A branch without coupling (the
vacuum, n = 0) is already diagonal and is propagated from its diagonal
without a decomposition.

Resolution is policed too: the flip frequency b_n of the resonant pair is an
eigenvalue splitting, which the eigen-solver resolves only down to about
eps*||H||. check_resolution refuses a branch whose |b_n| is within
RESOLUTION_LIMIT*eps*||H||, with ||H|| bounded by Gershgorin's
max|diagonal| + 2|off_diagonal|, and raises ResolutionError.

A mirror-incident atom (initial momentum -P_{l0}) obeys the same equations on
a sign-flipped momentum grid, so the same Hamiltonian and propagation serve
it: its |+> and |-> are the orders -l0 and 0 instead of 0 and -l0, a
relabelling left to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .params import DerivedParams

DEFAULT_GUARD = 8       # extra orders kept beyond the resonant pair
MIN_GUARD = 4           # below this the truncation cannot be trusted
DEFAULT_TOL = 1e-9
DEFAULT_EDGE_THRESHOLD = 1e-10
RESOLUTION_LIMIT = 1e3  # |b_n| must exceed this many eps*||H||


class TruncationError(RuntimeError):
    """Population reached the ladder boundary; widen the range or fix the regime."""


class ResolutionError(RuntimeError):
    """The flip frequency is below what the eigen-solver resolves for this ladder."""


def default_range(l0: int, guard: int = DEFAULT_GUARD) -> tuple[int, int]:
    """Symmetric-guard ladder range bracketing both resonant orders."""
    if guard < MIN_GUARD:
        raise ValueError(f"guard must be >= {MIN_GUARD}, got {guard}")
    guard += guard % 2
    _check_range(-l0 - guard, guard, l0)
    return (-l0 - guard, guard)


def _check_range(l_min: int, l_max: int, l0: int) -> None:
    if l0 < 2 or l0 % 2:
        raise ValueError(f"l0 must be a positive even integer, got {l0}")
    if l_min % 2 or l_max % 2:
        raise ValueError(f"ladder range [{l_min}, {l_max}] must have even endpoints")
    if l_min > -l0 - MIN_GUARD or l_max < MIN_GUARD:
        raise ValueError(
            f"ladder range [{l_min}, {l_max}] must bracket the resonant orders "
            f"[-{l0}, 0] with a guard of at least {MIN_GUARD}"
        )


@dataclass(frozen=True)
class LadderState:
    """Complex amplitudes over even ladder orders l_min..l_max (step 2).

    Order l carries momentum P_{l0} + l*hbar*k; `n` is the photon number of
    the field branch this state evolves under.
    """

    amplitudes: np.ndarray
    l_min: int
    l_max: int
    l0: int
    n: int

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        _check_range(self.l_min, self.l_max, self.l0)
        expected = (self.l_max - self.l_min) // 2 + 1
        if amps.shape != (expected,):
            raise ValueError(
                f"expected {expected} amplitudes for range "
                f"[{self.l_min}, {self.l_max}], got shape {amps.shape}"
            )

    @property
    def orders(self) -> np.ndarray:
        return np.arange(self.l_min, self.l_max + 1, 2)

    def index_of(self, l: int) -> int:
        if l % 2 or not self.l_min <= l <= self.l_max:
            raise ValueError(f"order {l} outside ladder [{self.l_min}, {self.l_max}]")
        return (l - self.l_min) // 2

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


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

    def __post_init__(self):
        diag = np.array(self.diagonal, dtype=np.float64)
        object.__setattr__(self, "diagonal", diag)
        _check_range(self.l_min, self.l_max, self.l0)
        expected = (self.l_max - self.l_min) // 2 + 1
        if diag.shape != (expected,):
            raise ValueError(f"diagonal shape {diag.shape}, expected ({expected},)")

    @property
    def size(self) -> int:
        return self.diagonal.shape[0]

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
    l_range: tuple[int, int] | None = None,
    include_stark: bool = False,
) -> LadderHamiltonian:
    """Assemble the ladder generator for a branch with n photons.

    With include_stark the constant -chi*n light shift (dropped from the rate
    equations because it is common to every order) is kept on the diagonal;
    it matters only for the phase between different field branches.
    """
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    l_min, l_max = l_range if l_range is not None else default_range(l0)
    _check_range(l_min, l_max, l0)
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


def initial_state(
    l0: int,
    l_range: tuple[int, int] | None = None,
    n: int = 1,
) -> LadderState:
    """Unit amplitude at ladder index l=0: incidence along P_{l0}."""
    l_min, l_max = l_range if l_range is not None else default_range(l0)
    amps = np.zeros((l_max - l_min) // 2 + 1, dtype=np.complex128)
    amps[(0 - l_min) // 2] = 1.0
    return LadderState(amplitudes=amps, l_min=l_min, l_max=l_max, l0=l0, n=n)


def _check_compatible(s: LadderState, h: LadderHamiltonian) -> None:
    if (s.l_min, s.l_max, s.l0) != (h.l_min, h.l_max, h.l0):
        raise ValueError(
            f"state range [{s.l_min}, {s.l_max}] l0={s.l0} does not match "
            f"Hamiltonian [{h.l_min}, {h.l_max}] l0={h.l0}"
        )
    if s.n != h.n:
        raise ValueError(f"state is branch n={s.n}, Hamiltonian is n={h.n}")


def sample_evolution(
    s: LadderState,
    h: LadderHamiltonian,
    times: np.ndarray,
    edge_threshold: float = DEFAULT_EDGE_THRESHOLD,
) -> np.ndarray:
    """Amplitudes at each requested time (seconds after the state s).

    Returns an array of shape (len(times), size). Raises TruncationError when
    the time-independent edge bound (module docstring), which also holds
    between the requested times, exceeds edge_threshold.
    """
    _check_compatible(s, h)
    times = np.asarray(times, dtype=np.float64)
    if np.any(times < 0):
        raise ValueError("sample times must be >= 0")
    if h.off_diagonal == 0.0:
        evals, evecs = h.diagonal, np.eye(h.size)
    else:
        evals, evecs = np.linalg.eigh(h.matrix())
    coeffs = evecs.T @ s.amplitudes
    edge = np.sum(np.abs(evecs[[0, -1]] * coeffs), axis=1) ** 2
    if np.any(edge > edge_threshold):
        worst = float(edge.max())
        raise TruncationError(
            f"boundary population bound {worst:.3e} exceeds edge threshold "
            f"{edge_threshold:.1e}; ladder range [{h.l_min}, {h.l_max}] is too "
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
    """Raise ResolutionError if |b_n| <= RESOLUTION_LIMIT * eps * ||H|| (module docstring)."""
    h_norm = float(np.max(np.abs(h.diagonal))) + 2.0 * abs(h.off_diagonal)
    limit = RESOLUTION_LIMIT * np.finfo(np.float64).eps * h_norm
    if abs(b_n) <= limit:
        raise ResolutionError(
            f"flip frequency |b_n| = {abs(b_n):.3e} rad/s is not above "
            f"{limit:.3e} rad/s, the smallest splitting the eigen-solver resolves "
            f"in the l0={h.l0} ladder; lower l0 or raise the coupling"
        )


def check_norm_drift(amplitudes: np.ndarray, s: LadderState, tol: float) -> None:
    """Raise RuntimeError if a row of `amplitudes` differs in norm from s by > tol."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    drift = np.max(np.abs(np.linalg.norm(amplitudes, axis=-1) - s.norm()))
    if drift > tol:
        raise RuntimeError(f"norm drift {drift:.3e} exceeds tol {tol:.1e}")


def evolve(
    s: LadderState,
    h: LadderHamiltonian,
    duration: float,
    tol: float = DEFAULT_TOL,
    edge_threshold: float = DEFAULT_EDGE_THRESHOLD,
) -> LadderState:
    """Propagate the state by `duration` seconds under h.

    The propagator is exact (eigendecomposition), so the norm-drift contract
    |norm - 1| <= tol holds with large margin. Only the endpoint is
    evaluated; the edge bound of sample_evolution covers the whole interval.
    """
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    if duration == 0:
        return s
    final = sample_evolution(s, h, [duration], edge_threshold=edge_threshold)[0]
    check_norm_drift(final, s, tol)
    return replace(s, amplitudes=final)


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


def format_timeseries_csv(
    times: np.ndarray, recoil_frequency: float, pops: np.ndarray, orders: np.ndarray
) -> str:
    """CSV text: columns t_s, tau (= w_rec*t), then p_<l> per ladder order."""
    header = "t_s,tau," + ",".join(f"p_{int(l)}" for l in orders)
    lines = [header]
    for t, row in zip(times, pops):
        cells = [_fmt(t), _fmt(recoil_frequency * t)]
        cells.extend(_fmt(p) for p in row)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return format(float(x), ".15g")
