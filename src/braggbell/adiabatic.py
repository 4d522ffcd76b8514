"""Two-level reduction of the Bragg ladder.

Eliminating every order but the resonant pair {0, -l0} leaves two coupled
amplitudes with a common level shift a_n and a signed coupling b_n:

    i dc+/dt = a_n c+ - (b_n/2) c-,
    i dc-/dt = a_n c- - (b_n/2) c+.

Both come from one Brillouin-Wigner partition of the ladder Hamiltonian of
`ladder.build_hamiltonian` on the `params.default_range` grid (Loewdin, J.
Chem. Phys. 19, 1396 (1951)): the effective 2x2 at energy E has diagonal
self-energy alpha(E) and off-diagonal beta(E). The shift solves a = alpha(a),
and b = -2*beta(a)/(1 - alpha'(a)) is the splitting with the weight that the
pair loses to the eliminated orders divided out. The shift is found by
fixed-point iteration, which converges inside the Bragg regime; where it
does not (far outside, e.g. chi*n/w_rec = 10 at l0 = 4) coeffs raises
ConvergenceError instead of returning the last iterate. The ladder is
tridiagonal and mirror-symmetric about l = -l0/2, so alpha and beta are scalar
recurrences: a continued fraction over the orders outside the pair, and the
ratios of successive determinants of the orders between them (for l0 = 2
there are none, and beta is the direct coupling -chi*n/2). To leading order
b_n = -(-chi*n)^(l0/2) / ((2 w_rec)^(l0/2-1) * [(l0-2)(l0-4)...2]^2).

The sign of b_n is kept, and solve() uses it as written; anything that needs
a rate (pulse times, flip periods) uses |b_n|. The shift is a common phase
inside one field branch; it only becomes observable between branches.

solve() is the exact unitary propagator exp(-i(a*I - (b/2)*sigma_x)t): the
cosine/sine population content matches the textbook flip formulas while the
phases carry the factor i on the sine terms and the full e^{-i a t} that
unitarity requires. TwoLevelCoeffs is the one record of a field branch;
branch_pairs, the closed-form engine, maps it and a list of times to
(kept, flipped) rows, as ladder.branch_pairs does on the ladder, and applies
the Stark phase e^{+i chi n t} when the record keeps the light shift. The
module needs only the standard library; it imports neither `ladder` nor numpy.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple

from .params import DerivedParams, PhysicsError, default_range

MAX_ITERATIONS = 100  # a = alpha(a) converges in a handful inside the Bragg regime


class ConvergenceError(PhysicsError):
    """The level shift a = alpha(a) did not converge; the coupling is far too strong."""


class TwoLevelCoeffs(
    namedtuple("TwoLevelCoeffs", "a_n b_n n l0 d include_stark", defaults=(False,))
):
    """Shift a_n and signed coupling b_n (float, rad/s) of the n-photon branch (int)
    at order l0 (int), from d (DerivedParams); include_stark (bool, default
    False) keeps the light shift -chi*n, which moves neither."""

    __slots__ = ()


def _chain(e: float, energies: list[float], v: float) -> tuple[float, float, float]:
    """Eliminate a chain of orders coupled by v, from its far end inwards.

    x_k = e - energies[k] - v^2/x_{k-1} is the ratio of successive
    determinants of (e - H) over the chain, so v^2/x is the self-energy the
    chain gives the order next to its near end. Returns (x, dx/de,
    prod_k v/x_k); v times the product is the coupling the chain carries
    from the order beyond its far end to that beyond its near end.
    """
    x, dx, carried = math.inf, 0.0, 1.0
    for energy in energies:
        dx = 1.0 + v * v * dx / (x * x)
        x = e - energy - v * v / x
        carried *= v / x
    return x, dx, carried


def _self_energies(e: float, outer: list[float], middle: list[float], v: float):
    """alpha(e), alpha'(e) and beta(e) of the effective 2x2 at energy e."""
    x, dx, _ = _chain(e, outer, v)
    alpha, dalpha, beta = v * v / x, -v * v * dx / (x * x), v
    if middle:
        x, dx, carried = _chain(e, middle, v)
        alpha += v * v / x
        dalpha -= v * v * dx / (x * x)
        beta *= carried
    return alpha, dalpha, beta


def coeffs(n: int, l0: int, d: DerivedParams, include_stark: bool = False) -> TwoLevelCoeffs:
    """a_n and b_n from the partition of the n-photon ladder (module docstring)."""
    _, l_max = default_range(l0)
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    v = -d.chi * n / 2.0
    if v == 0.0:
        return TwoLevelCoeffs(0.0, 0.0, n, l0, d, include_stark)
    w = d.recoil_frequency
    # l = l_max..2 dresses l = 0, and -l0+2..-2 joins it to l = -l0; by mirror
    # symmetry l = -l0 gets the same self-energy from the other side
    outer = [w * l * (l + l0) for l in range(l_max, 0, -2)]
    middle = [w * l * (l + l0) for l in range(2 - l0, 0, 2)]
    a = 0.0
    for _ in range(MAX_ITERATIONS):
        alpha, dalpha, beta = _self_energies(a, outer, middle, v)
        converged = abs(alpha - a) <= 4.0 * sys.float_info.epsilon * abs(alpha)
        a = alpha
        if converged:
            break
    else:
        raise ConvergenceError(
            f"level shift a_{n} at l0={l0} did not converge in {MAX_ITERATIONS} "
            f"iterations at chi*n/w_rec = {abs(2.0 * v / w):.3g}, far outside the "
            "Bragg regime"
        )
    return TwoLevelCoeffs(a, -2.0 * beta / (1.0 - dalpha), n, l0, d, include_stark)


def level_shift(n: int, l0: int, d: DerivedParams) -> float:
    """Common shift a_n of the resonant pair."""
    return coeffs(n, l0, d).a_n


def coupling(n: int, l0: int, d: DerivedParams) -> float:
    """|b_n|: flip rate of the resonant pair."""
    return abs(coeffs(n, l0, d).b_n)


def solve(init: tuple[complex, complex], c: TwoLevelCoeffs, t: float) -> tuple[complex, complex]:
    """(c_plus, c_minus) after exact unitary evolution of init for time t seconds."""
    c_plus0, c_minus0 = complex(init[0]), complex(init[1])
    norm = abs(c_plus0) ** 2 + abs(c_minus0) ** 2
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"initial amplitudes must be normalized, |.|^2 = {norm}")
    half = 0.5 * c.b_n * t
    phase = complex(math.cos(c.a_n * t), -math.sin(c.a_n * t))
    cos_h, sin_h = math.cos(half), math.sin(half)
    return (
        phase * (c_plus0 * cos_h + 1j * c_minus0 * sin_h),
        phase * (c_minus0 * cos_h + 1j * c_plus0 * sin_h),
    )


def branch_pairs(c: TwoLevelCoeffs, times) -> list[tuple[complex, complex]]:
    """(kept, flipped) of an atom entering on |+>, at each of `times`, in closed form."""
    pairs = [solve((1, 0), c, t) for t in times]
    if c.include_stark:
        # a uniform -chi*n shift of the branch's diagonal is the global phase exp(+i chi n t)
        stark = [cmath.exp(1j * (c.d.chi * c.n) * t) for t in times]
        pairs = [(kept * f, flipped * f) for (kept, flipped), f in zip(pairs, stark)]
    return pairs


def pulse_times(c: TwoLevelCoeffs, s: int, offset_r: int = 0) -> tuple[float, float]:
    """Interaction times (t1, t2) = (s*pi/|b_n|, t1 + 2*offset_r*pi/|b_n|).

    s must be odd and positive (full population flip); offset_r shifts the
    second time by whole flip periods, so both atoms still exit flipped.
    """
    if s < 1 or s % 2 == 0:
        raise ValueError(f"s must be a positive odd integer, got {s}")
    rate = abs(c.b_n)
    if rate == 0:
        raise ValueError(f"pulse times undefined for b_n = {c.b_n} (n = {c.n})")
    t1 = s * math.pi / rate
    t2 = t1 + 2.0 * offset_r * math.pi / rate
    if t2 < 0:
        raise ValueError(f"offset_r = {offset_r} makes the second time negative")
    return t1, t2

