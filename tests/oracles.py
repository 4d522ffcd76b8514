"""Independent propagators used to cross-check the package numerics.

Everything here is built from the raw coupled equations
    i dC_l/dt = w_rec*l*(l+l0)*C_l - (chi*n/2)*(C_{l+2} + C_{l-2})
without importing the package's Hamiltonian construction or propagator, so a
shared bug cannot cancel out.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

HBAR = 1.054571817e-34  # J*s


def recoil(mass, wavelength):
    k = 2.0 * np.pi / wavelength
    return HBAR * k * k / (2.0 * mass)


def chi_from(g, detuning):
    return abs(g) ** 2 / (2.0 * detuning)


def dense_matrix(w_rec, chi, n, l0, l_min, l_max):
    """Hamiltonian over even orders l_min..l_max (inclusive), dense."""
    orders = np.arange(l_min, l_max + 1, 2)
    dim = len(orders)
    h = np.zeros((dim, dim))
    for i, l in enumerate(orders):
        h[i, i] = w_rec * l * (l + l0)
        if i + 1 < dim:
            h[i, i + 1] = h[i + 1, i] = -chi * n / 2.0
    return orders, h


def leading_order_coupling(w_rec, chi_n, l0):
    """Signed two-level coupling b_n to leading order in chi*n/w_rec.

    Each intermediate order l (-l0 < l < 0) passes the coupling -chi*n/2 on
    with weight (chi*n/2)/(w_rec*|l|*(l0-|l|)); their product is
    b_n = -(-chi*n)^(l0/2) / ((2 w_rec)^(l0/2-1) * [(l0-2)(l0-4)...2]^2).
    """
    even_product = math.prod(range(2, l0 - 1, 2))
    return -((-chi_n) ** (l0 // 2)) / ((2.0 * w_rec) ** (l0 // 2 - 1) * even_product**2)


def resonant_pair(h):
    """(mean, splitting) of the two eigenvalues of the dense ladder h nearest zero.

    Orders 0 and -l0 sit at zero energy and every other order at least
    4*w_rec away, so in the Bragg regime the two eigenvalues nearest zero are
    the dressed resonant pair.
    """
    evals = np.linalg.eigvalsh(h)
    pair = evals[np.argsort(np.abs(evals))[:2]]
    return float(pair.mean()), float(abs(pair[1] - pair[0]))


def partition_self_energy(h, orders, l0, e):
    """alpha(e) = [H_PQ (e - H_QQ)^-1 H_QP] at order 0, P = {0, -l0}, by a dense solve.

    Q is every other order of the dense ladder h. The level shift a_n of the
    two-level reduction is a fixed point a = alpha(a).
    """
    orders = list(orders)
    pair = [orders.index(0), orders.index(-l0)]
    rest = [i for i in range(len(orders)) if i not in pair]
    h_pq = h[np.ix_(pair[:1], rest)]
    h_qq = h[np.ix_(rest, rest)]
    return float((h_pq @ np.linalg.solve(e * np.eye(len(rest)) - h_qq, h_pq.T))[0, 0])


def psi0(orders, l_start=0):
    v = np.zeros(len(orders), dtype=np.complex128)
    v[list(orders).index(l_start)] = 1.0
    return v


def propagate_ode(h, v0, times):
    """DOP853 at tight tolerance; rows of the return are states at `times`."""

    def rhs(_, y):
        return -1j * (h @ y)

    sol = solve_ivp(
        rhs,
        (0.0, float(times[-1])),
        v0.astype(np.complex128),
        t_eval=times,
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
    )
    assert sol.success, sol.message
    return sol.y.T


def propagate_expm(h, v0, t):
    return expm(-1j * h * t) @ v0


def propagate_rk4(h, v0, t, steps=20000):
    """Fixed-step classical RK4 on the Schrodinger equation."""
    dt = t / steps
    y = v0.astype(np.complex128).copy()
    for _ in range(steps):
        k1 = -1j * (h @ y)
        k2 = -1j * (h @ (y + 0.5 * dt * k1))
        k3 = -1j * (h @ (y + 0.5 * dt * k2))
        k4 = -1j * (h @ (y + dt * k3))
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def phases_mp(evals, t, dps=50):
    """exp(-i*E*t) of each float E of evals and the float t, worked at dps digits."""
    import mpmath

    with mpmath.workdps(dps):
        x = [mpmath.mpf(float(e)) * mpmath.mpf(float(t)) for e in evals]
        return np.array([complex(mpmath.cos(v), -mpmath.sin(v)) for v in x])


class LadderMp:
    """The float64 symmetric matrix m decomposed at dps digits by mpmath.eigsy.

    The matrix is taken as given, bit for bit, so what this measures is the
    float64 solver's error on that matrix, not the ladder's rounding.
    """

    def __init__(self, m, dps=50):
        import mpmath

        self.dps = dps
        with mpmath.workdps(dps):
            evals, vecs = mpmath.eigsy(mpmath.matrix(np.asarray(m, dtype=np.float64).tolist()))
            order = sorted(range(len(evals)), key=lambda j: evals[j])
            self.evals = [evals[j] for j in order]
            self.vecs = [[vecs[i, j] for j in order] for i in range(len(evals))]

    def propagate(self, v0, t):
        """V exp(-i*E*t) V^T v0 at dps digits, as complex128."""
        import mpmath

        size = len(self.evals)
        with mpmath.workdps(self.dps):
            v0 = [mpmath.mpc(complex(x)) for x in v0]
            phases = [mpmath.expj(-e * mpmath.mpf(float(t))) for e in self.evals]
            c = [phases[j] * mpmath.fsum(self.vecs[i][j] * v0[i] for i in range(size)) for j in range(size)]
            return np.array([complex(mpmath.fsum(self.vecs[i][j] * c[j] for j in range(size)))
                             for i in range(size)])

    def cycle(self, i0, im, limit):
        """(freq_rad_s, mean_leakage, leakage_bound) of ladder.cycle_readout's
        definitions for an atom starting at index i0, its pair (i0, im), with
        the eigenvalues grouped into runs spaced within limit and each run
        summed coherently, as floats."""
        import mpmath

        size = len(self.evals)
        with mpmath.workdps(self.dps):
            runs = [[0]]
            for j in range(1, size):
                if self.evals[j] - self.evals[j - 1] > limit:
                    runs.append([j])
                else:
                    runs[-1].append(j)
            c = self.vecs[i0]
            a, b = sorted(range(size), key=lambda j: c[j] ** 2)[-2:]
            mean = bound = mpmath.mpf(0)
            for l in set(range(size)) - {i0, im}:
                amps = [mpmath.fsum(self.vecs[l][j] * c[j] for j in run) for run in runs]
                mean += mpmath.fsum(x**2 for x in amps)
                bound += mpmath.fsum(abs(x) for x in amps) ** 2
            return float(abs(self.evals[a] - self.evals[b])), float(mean), float(bound)


def kron_product_state(branch_pairs, field_amps):
    """Unnormalized joint vector, one np.kron chain of qubit pairs per branch.

    branch_pairs[b][i] is atom i's (c_plus, c_minus) in field branch b and
    field_amps[b] that branch's amplitude; atom 0 is the most significant bit.
    """
    rows = []
    for pairs, amp in zip(branch_pairs, field_amps):
        prod = np.array([1.0 + 0.0j])
        for pair in pairs:
            prod = np.kron(prod, np.array(pair, dtype=np.complex128))
        rows.append(amp * prod)
    return np.array(rows)


def project_field(joint, row):
    """(probability, normalized atom vector) after projecting the field of the
    normalized (2, 2^k) joint vector onto the basis vector `row`."""
    post = np.conj(row) @ joint
    prob = float(np.vdot(post, post).real)
    return prob, post / math.sqrt(prob)


def project_atom(vec, k, atom, row):
    """(probability, normalized remnant) after projecting qubit `atom` of the
    normalized k-qubit vector onto `row`; the remnant keeps the other atoms'
    order, atom 0 the most significant bit."""
    post = np.tensordot(np.conj(row), vec.reshape((2,) * k), axes=([0], [atom])).reshape(-1)
    prob = float(np.vdot(post, post).real)
    return prob, post / math.sqrt(prob)


_SY_SY = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)


def wootters_concurrence(rho):
    """Wootters concurrence of a two-qubit density operator (PRL 80, 2245).

    For a pure state it resolves the degenerate zero eigenvalues of
    rho (sy x sy) rho* (sy x sy) only to about sqrt(eps).
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (4, 4):
        raise ValueError(f"density operator must be 4x4, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValueError("density operator is not Hermitian within 1e-10")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError(f"density operator trace {np.trace(rho)} != 1")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ValueError("density operator has a negative eigenvalue beyond 1e-10")
    r = rho @ _SY_SY @ rho.conj() @ _SY_SY
    lams = np.sqrt(np.clip(np.linalg.eigvals(r).real, 0.0, None))
    lams[::-1].sort()
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))
