"""Truncated momentum-ladder dynamics for one atom in one field Fock branch.

A Bragg-incident atom couples momentum states P_l = P_{l0} + l*hbar*k with l
even. In the rotating frame the amplitude C_l obeys

    i dC_l/dt = w_rec*l*(l+l0)*C_l - (chi*n/2)*(C_{l+2} + C_{l-2}),

a real symmetric tridiagonal generator, the namedtuple LadderHamiltonian, once
the even orders are packed into a contiguous index. Orders l=0 and l=-l0 are
degenerate at zero energy (the two Bragg-resonant propagation directions);
everything else is detuned by multiples of w_rec, which is what confines the
dynamics to two modes when w_rec >> chi*n.

evolve(h, b_n, times) checks that the flip frequency b_n is resolved,
starts the atom at order l = 0 and samples its amplitudes at every
requested time, then checks the norm. The engine's branch_pairs(c, times)
reads its (kept, flipped) rows, on the branch of the record c, from the
same sampling under the same guards in the same order (the row cache
below). Both use the exact propagator from one eigendecomposition
H = V E V^T of the (time-independent) generator, for any duration and
number of times, so norm is conserved to machine precision: the amplitudes
at time t are V exp(-iE*t) V^T C(0), one row of phases per time.

cycle_readout(c, t1), which `validate` and `sweep` call for each point,
samples nothing: it takes the one row at t1 as branch_pairs does, under
evolve's guards, and reads a whole flip cycle of the branch off the
decomposition that propagation used (the flip frequency as an eigenvalue
splitting, the time-averaged leakage out of the resonant pair and bounds on
the leakage and on the deviation from the two-level populations at every
time).

Truncation is policed, not assumed: with c = V^T C(0),
max_t |C_edge(t)|^2 <= (sum_j |V_edge,j c_j|)^2, and a bound above
EDGE_THRESHOLD aborts with TruncationError.

Resolution is policed too: the flip frequency b_n of the resonant pair is an
eigenvalue splitting, which the eigen-solver resolves only down to about
eps*||H||. check_resolution refuses a coupled branch whose |b_n| is within
RESOLUTION_LIMIT*eps*||H||, with ||H|| bounded by Gershgorin's
max|diagonal| + 2|off_diagonal|, and raises ResolutionError, as evolve does
for a duration whose product with that bound overflows. A row whose norm
drifts from the initial one by more than NORM_TOL raises NormDriftError. The
three thresholds are constants. The ladder's range is fixed by l0 alone,
params.default_range(l0), the grid the two-level reduction is taken on too;
the two-level engine and the CLI read it without loading this module or
numpy.

A process decomposes each branch once. branch_pairs and cycle_readout take
the branch's record from _branch, a functools.lru_cache of the default size
(128 entries) keyed on exactly the numbers that build it: n, l0, include_stark,
params.default_range(l0) read at call time (so a patched GUARD is a new key)
and the bytes of w_rec and chi (so -0.0 and 0.0 are two keys and a nan meets
itself). Equal keys are bit-identical Hamiltonians, and a warm call returns
the bits of a cold one. The record is the branch's LadderHamiltonian with, each
derived on first use and then kept, its Gershgorin norm, the indices of the
pair (0, -l0), the start amplitudes and their norm, the decomposition (E, V),
c = V^T s with the edge bound, and the cycle's readout terms; its arrays are
read-only. Every scenario of one (l0, chi*n0/w_rec, detuning sign) meets the
same Fock branch, so one record serves all its atoms, pulse multiples,
offsets and field bases. The readout terms depend on the resolution limit
RESOLUTION_LIMIT*eps*||H||, so the record keeps them for the last limit asked,
compared by its bytes, and computes them again under another. evolve and
sample_evolution given any other LadderHamiltonian derive the same fields for
that call only.

A process also propagates each branch once per schedule. _pair_rows, a
second functools.lru_cache of the default size (128 entries), keeps the
(kept, flipped) rows of a branch at the times of one call, as tuples of
Python complex, with the norm drift of the whole propagated rows. Its key is
the branch's key and the "<d" bytes of the whole tuple of times, in order: a
one-row propagation can round differently from a two-row one, so no row is
keyed on its time alone. A hit needs the same branch at the same times again
in one process. The atoms of every scenario of one schedule (each mode and
atom count at one s and r) read their branch at the same (t1, t2), and a
repeated command reads it again; the points of one `validate` or `sweep`
each read their own branch or t1, so they miss. Every call runs evolve's
guards in its order, each reading its threshold at call time:
check_resolution on the record's norm and the duration overflow on the
largest time before the lookup, then the record's edge bound against
EDGE_THRESHOLD and the kept drift against NORM_TOL. A miss propagates the
record's start with sample_evolution, which refuses a nan or negative time
and checks the edge bound, and takes the drift once, checked before it is
kept. A warm call builds, decomposes, propagates and normalizes nothing. A
refusal is never cached: it is raised again on every call and leaves no rows.

A mirror-incident atom (initial momentum -P_{l0}) obeys the same equations on
a sign-flipped momentum grid, so the same Hamiltonian and propagation serve
it: its |+> and |-> are the orders -l0 and 0 instead of 0 and -l0, a
relabelling left to the caller.
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from collections import namedtuple

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


_HAMILTONIAN_FIELDS = "diagonal off_diagonal l_min l_max l0 n include_stark"


class LadderHamiltonian(namedtuple("LadderHamiltonian", _HAMILTONIAN_FIELDS, defaults=(False,))):
    """Tridiagonal generator of the ladder equations, rad/s.

    diagonal (ndarray): w_rec*l*(l+l0) for order l at index i (minus chi*n when
    the constant light shift is kept); off_diagonal (float) couples l <-> l+-2;
    l_min, l_max, l0 and n are ints; include_stark is a bool, default False.
    """

    __slots__ = ()

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


class _Branch(LadderHamiltonian):
    """A LadderHamiltonian with what evolve and cycle_readout read off it, each
    field derived on first use and kept in the instance's __dict__ (the base
    has none), its arrays read-only (module docstring)."""

    @functools.cached_property
    def h_norm(self) -> float:
        """Gershgorin's bound max|diagonal| + 2|off_diagonal| on ||H|| (module docstring)."""
        return float(np.abs(self.diagonal).max()) + 2.0 * abs(self.off_diagonal)

    @functools.cached_property
    def start(self) -> np.ndarray:
        """initial_state of the ladder."""
        return _frozen(initial_state(self))

    @functools.cached_property
    def start_norm(self) -> float:
        """The norm the propagated rows must keep."""
        return np.linalg.norm(self.start)

    @functools.cached_property
    def pair(self) -> tuple[int, int]:
        """The indices of the resonant orders 0 and -l0."""
        return self.index_of(0), self.index_of(-self.l0)

    @functools.cached_property
    def eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """(E, V) of H = V E V^T, eigenvalues ascending."""
        evals, evecs = np.linalg.eigh(self.matrix())
        return _frozen(evals), _frozen(evecs)

    @functools.cached_property
    def start_projection(self) -> tuple:
        """_project of the start amplitudes."""
        coeffs, edge = _project(self.eigen[1], self.start)
        return _frozen(coeffs), edge

    def cycle_terms(self, limit: float) -> tuple:
        """_cycle_terms with runs spaced within limit, kept for the last limit
        asked, which is compared by its bytes."""
        key = struct.pack("<d", limit)
        kept = getattr(self, "_terms", None)
        if kept is None or kept[0] != key:
            kept = self._terms = key, _cycle_terms(*self.eigen, limit, self.pair)
        return kept[1]


def _as_branch(h: LadderHamiltonian) -> _Branch:
    """h itself if it is a _Branch, else a new, uncached _Branch of h's fields."""
    return h if isinstance(h, _Branch) else _Branch._make(h)


@functools.lru_cache
def _branch(n: int, l0: int, include_stark: bool, l_range: tuple[int, int], rates: bytes) -> _Branch:
    """The record of the n-photon branch, rates the bytes of (w_rec, chi) (module
    docstring). build_hamiltonian reads the range again; l_range, the
    params.default_range(l0) of the caller, keys a patched GUARD apart."""
    w, chi = struct.unpack("<2d", rates)
    # build_hamiltonian reads the recoil frequency and chi of d, nothing else
    h = build_hamiltonian(n, l0, DerivedParams(math.nan, w, chi, math.nan), include_stark)
    _frozen(h.diagonal)
    return _Branch._make(h)


def _branch_key(c: TwoLevelCoeffs) -> tuple:
    """The key of _branch for the branch of c."""
    rates = struct.pack("<2d", c.d.recoil_frequency, c.d.chi)
    return c.n, c.l0, c.include_stark, default_range(c.l0), rates


def _frozen(array: np.ndarray) -> np.ndarray:
    """array, made read-only: a cached array is shared by every warm call."""
    array.flags.writeable = False
    return array


def sample_evolution(s: np.ndarray, h: LadderHamiltonian, times: np.ndarray) -> np.ndarray:
    """Amplitudes at each requested time (seconds) from the amplitudes s at t = 0.

    Returns an array of shape (len(times), size). Raises TruncationError when
    the time-independent edge bound (module docstring), which also holds
    between the requested times, exceeds EDGE_THRESHOLD.
    """
    h = _as_branch(h)
    s = np.asarray(s, dtype=np.complex128)
    if s.shape != (h.size,):
        raise ValueError(f"expected {h.size} amplitudes for the ladder, got shape {s.shape}")
    times = np.asarray(times, dtype=np.float64)
    # each guard is written so that a nan fails it
    if not (times >= 0).all():
        raise ValueError("sample times must be >= 0 and not nan")
    evals, evecs = h.eigen
    # the cached projection serves the record's own start array, which evolve passes
    coeffs, edge = h.start_projection if s is vars(h).get("start") else _project(evecs, s)
    _check_edge(edge, h)
    return _propagate(evals, evecs, coeffs, times)


def _project(evecs: np.ndarray, s: np.ndarray) -> tuple:
    """(c = V^T s, edge) of the amplitudes s, edge the bound on the population of
    either end of the ladder (module docstring)."""
    coeffs = evecs.T @ s
    edge = np.abs(evecs[[0, -1]] * coeffs).sum(axis=-1) ** 2
    return coeffs, edge.max()


def _propagate(evals: np.ndarray, evecs: np.ndarray, coeffs: np.ndarray, times) -> np.ndarray:
    """V exp(-i*E*t) c, one row per time."""
    return _phases(evals, times) * coeffs @ evecs.T


def _phases(evals: np.ndarray, times) -> np.ndarray:
    """exp(-i*E*t), one row per time, one column per eigenvalue."""
    return np.exp(-1j * (np.asarray(times)[..., None] * evals[..., None, :]))


def _check_edge(edge: float, h: LadderHamiltonian) -> None:
    """Raise TruncationError if the edge bound of a branch of h's ladder exceeds EDGE_THRESHOLD."""
    if not edge <= EDGE_THRESHOLD:
        raise TruncationError(
            f"boundary population bound {float(edge):.3e} exceeds edge threshold "
            f"{EDGE_THRESHOLD:.1e}; the coupling is too strong for the l0={h.l0} "
            f"ladder [{h.l_min}, {h.l_max}]"
        )


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
    """RESOLUTION_LIMIT * eps * ||H||, read at call time."""
    return RESOLUTION_LIMIT * sys.float_info.epsilon * _as_branch(h).h_norm


def check_norm_drift(amplitudes: np.ndarray, s: np.ndarray) -> None:
    """Raise NormDriftError if a row of `amplitudes` differs in norm from s by > NORM_TOL."""
    _check_drift(_drift(amplitudes, np.linalg.norm(s)))


def _drift(amplitudes: np.ndarray, norm: float) -> float:
    """The largest |norm of a row of amplitudes - norm|."""
    return float(abs(np.linalg.norm(amplitudes, axis=-1) - norm).max())


def _check_drift(drift: float) -> None:
    """Raise NormDriftError if a norm drift exceeds NORM_TOL."""
    if not drift <= NORM_TOL:
        raise NormDriftError(f"norm drift {drift:.3e} exceeds tol {NORM_TOL:.1e}")


def _check_duration(duration: float, h: _Branch) -> None:
    """Raise ResolutionError if a duration's product with ||H|| overflows the phases E*t."""
    if math.isinf(duration * h.h_norm):
        raise ResolutionError(f"duration {duration:.3e} s overflows the phases of the ladder")


def evolve(h: LadderHamiltonian, b_n: float, times: np.ndarray) -> np.ndarray:
    """Amplitudes of an atom entering at l = 0, at each of `times` (seconds) under h.

    Shape (len(times), size). b_n is the branch's flip frequency (its sign
    is not used). Before anything is propagated, check_resolution checks it
    and a duration that overflows the phases E*t is refused; the edge bound
    and the norm are checked after (module docstring).
    """
    h = _as_branch(h)
    check_resolution(h, b_n)
    times = np.asarray(times)
    _check_duration(float(times.max(initial=0.0)), h)  # a nan is sample_evolution's to refuse
    amps = sample_evolution(h.start, h, times)
    _check_drift(_drift(amps, h.start_norm))
    return amps


@functools.lru_cache
def _pair_rows(n: int, l0: int, include_stark: bool, l_range: tuple[int, int], rates: bytes,
               times: bytes) -> tuple:
    """(rows, norm drift) of the branch of _branch's key (the first five
    arguments) at the times whose "<d" bytes are `times` (module docstring).
    The rows are the (kept, flipped) pairs as tuples of complex; the drift is
    that of the whole propagated rows, which a refusal does not keep."""
    h = _branch(n, l0, include_stark, l_range, rates)
    amps = sample_evolution(h.start, h, struct.unpack(f"<{len(times) // 8}d", times))
    drift = _drift(amps, h.start_norm)
    _check_drift(drift)
    kept, flipped = h.pair
    return tuple(zip(amps[:, kept].tolist(), amps[:, flipped].tolist())), drift


def _rows_of(c: TwoLevelCoeffs, times) -> tuple[_Branch, tuple]:
    """The record of the branch of c and its (kept, flipped) rows at times, from
    _pair_rows, with evolve's guards run on this call, in its order."""
    key = _branch_key(c)
    h = _branch(*key)
    check_resolution(h, c.b_n)
    if not any(map(math.isnan, times)):  # a nan is sample_evolution's to refuse, as in evolve
        _check_duration(max((0.0, *times)), h)
    rows, drift = _pair_rows(*key, struct.pack(f"<{len(times)}d", *times))
    _check_edge(h.start_projection[1], h)
    _check_drift(drift)
    return h, rows


def branch_pairs(c: TwoLevelCoeffs, times) -> tuple:
    """(kept, flipped) of an atom entering on +P_{l0}, one tuple of Python complex
    per time, from the branch of the record c (adiabatic.TwoLevelCoeffs), whose
    b_n the guard checks; the tuple is shared with every warm call (module docstring)."""
    return _rows_of(c, times)[1]


def cycle_readout(c: TwoLevelCoeffs, t1: float) -> tuple[dict, tuple]:
    """One flip cycle of an atom entering on +P_{l0}, read off the decomposition
    of the branch of the record c (adiabatic.TwoLevelCoeffs), and its
    (kept, flipped) pair at t1.

    The pair is the row of branch_pairs at t1, under the same guards. With
    H = V E V^T, c_j = V_{0,j}, w_j = c_j^2 and u_j = V_{0,j} V_{-l0,j}, the
    keys of the returned fields are
    - freq_rad_s: |E_a - E_b|, a and b the two largest w_j;
    - mean_leakage: sum over l outside {0, -l0} and runs g of |sum_{j in g} V_lj c_j|^2,
      the time average of the population outside the pair;
    - leakage_bound: sum over the same l of (sum_g |sum_{j in g} V_lj c_j|)^2,
      a bound on that population at every time;
    - pop_dev_bound: a bound on |P_+- - cos^2/sin^2(|b_n| t/2)| over the cycle
      0 <= t <= 2*pi/|b_n|, pi*|freq_rad_s/|b_n| - 1| +
      max(4 rho_A + (w_a - w_b)^2, (u_a + u_b)^2 + |1 - (u_a - u_b)^2| + 2 rho_B + rho_B^2),
      where rho_A = sum_{j not a, b} w_j and rho_B = sum_g |sum_{j in g, j not a, b} u_j|.
    A run g is a stretch of ascending eigenvalues spaced within the resolution
    limit (check_resolution): the solver returns a degenerate run, such as an
    off-resonant mirror pair, in an arbitrary basis, so each run is summed
    coherently. Everything but pop_dev_bound's first term, which reads c.b_n,
    is computed once per branch (module docstring).
    """
    h, (pair,) = _rows_of(c, (t1,))
    freq, mean_leakage, leakage_bound, pop_dev = h.cycle_terms(_resolution_limit(h))
    fields = {
        "freq_rad_s": freq,
        "mean_leakage": mean_leakage,
        "leakage_bound": leakage_bound,
        "pop_dev_bound": math.pi * abs(freq / abs(c.b_n) - 1.0) + pop_dev,
    }
    return fields, pair


def _cycle_terms(evals: np.ndarray, evecs: np.ndarray, limit: float, pair: tuple[int, int]) -> tuple:
    """(freq_rad_s, mean_leakage, leakage_bound, the max(...) term of
    pop_dev_bound) of cycle_readout, from the decomposition (E, V) of the
    branch, with runs spaced within limit."""
    v0 = evecs[pair[0]]
    w, u = v0 * v0, v0 * evecs[pair[1]]
    ab = np.argsort(w)[-2:]  # the indices a and b of the two largest w_j
    (w_a, w_b), (u_a, u_b), (e_a, e_b) = w[ab], u[ab], evals[ab]
    runs = np.cumsum(np.diff(evals, prepend=evals[:1]) > limit)
    in_run = np.eye(len(evals))[runs]  # [j, g] = 1 where E_j is in run g

    rest = np.ones(w.shape, dtype=bool)
    rest[ab] = False
    outside = [j for j in range(len(evals)) if j not in pair]
    leak = evecs[outside] * v0 @ in_run
    rho_a = np.where(rest, w, 0.0).sum()
    rho_b = np.abs(np.where(rest, u, 0.0) @ in_run).sum()
    pop_dev = np.maximum(
        4.0 * rho_a + (w_a - w_b) ** 2,
        (u_a + u_b) ** 2 + np.abs(1.0 - (u_a - u_b) ** 2) + 2.0 * rho_b + rho_b**2,
    )
    terms = abs(e_a - e_b), (leak**2).sum(), (np.abs(leak).sum(axis=-1) ** 2).sum(), pop_dev
    return tuple(float(x) for x in terms)


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
