"""The tests' dense oracle: the one-period unitary and its observables on
the full coupled space, built here from numpy alone.

Nothing here imports kickedtop, so every test that holds the package
against these functions compares it with an independent construction.
The spin matrices come from the ladder elements
J+ |m> = sqrt(j(j+1) - m(m+1)) |m+1>, m ascending, and the coupled state
|m, s> (s = 0 up, 1 down) sits at flat index 2(j + m) + s.  Each kick
exp(-i [(kappa/j) J_a sigma_a + delta sigma_z]) is taken from numpy's
eigh of its Hermitian Kronecker generator (test_floquet holds it against
scipy.linalg.expm).  The parity sectors are read from the diagonal of
exp(-i pi (Jz + sigma_z/2)), times i at even 2j.
"""

import functools

import numpy as np

SIGMA = {"x": np.array([[0.0, 1.0], [1.0, 0.0]]),
         "y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
         "z": np.diag([1.0, -1.0])}


def spin_matrices(two_j: int) -> dict:
    """Jx, Jy, Jz on the top space, m ascending."""
    j = two_j / 2.0
    m = np.arange(two_j + 1) - j
    jp = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), -1)
    return {"x": (jp + jp.T) / 2.0, "y": (jp - jp.T) / 2.0j, "z": np.diag(m)}


def _exp_i(gen: np.ndarray) -> np.ndarray:
    """exp(-i gen) of a Hermitian gen, from its eigh."""
    evals, evecs = np.linalg.eigh(gen)
    return (evecs * np.exp(-1j * evals)) @ evecs.conj().T


def generator(two_j: int, axis: str, kappa: float, delta: float = 0.0) -> np.ndarray:
    """(kappa/j) J_a sigma_a + delta sigma_z on the coupled space."""
    gen = kappa / (two_j / 2.0) * np.kron(spin_matrices(two_j)[axis], SIGMA[axis])
    return gen + delta * np.kron(np.eye(two_j + 1), SIGMA["z"])


@functools.lru_cache(maxsize=8)
def kick(two_j: int, axis: str, kappa: float, delta: float = 0.0) -> np.ndarray:
    """exp(-i [(kappa/j) J_a sigma_a + delta sigma_z]), read-only: the
    orderings of one test share their kicks."""
    out = _exp_i(generator(two_j, axis, kappa, delta))
    out.setflags(write=False)
    return out


def unitary(two_j: int, kx: float, ky: float, variant: str = "plain",
            delta: float = 0.0) -> np.ndarray:
    """The one-period unitary: plain Y X, sym1 Y^(1/2) X Y^(1/2) and sym2
    X^(1/2) Y X^(1/2), each kick with delta sigma_z and each half kick
    with delta / 2."""
    if variant == "plain":
        return kick(two_j, "y", ky, delta) @ kick(two_j, "x", kx, delta)
    outer, inner = (("y", ky), ("x", kx)) if variant == "sym1" else (("x", kx), ("y", ky))
    half = kick(two_j, outer[0], outer[1] / 2.0, delta / 2.0)
    return half @ kick(two_j, *inner, delta) @ half


def pair_kicks(two_j: int, kappa: float, delta: float) -> np.ndarray:
    """exp(-i (kappa lam sigma_x + delta sigma_z)) for each of the
    (2j + 2) // 2 least eigenvalues lam of Jx / j, as (n, 2, 2)."""
    lam = np.linalg.eigvalsh(spin_matrices(two_j)["x"])[:(two_j + 2) // 2] / (two_j / 2.0)
    return np.array([_exp_i(kappa * x * SIGMA["x"] + delta * SIGMA["z"]) for x in lam])


def fold_basis(signs: np.ndarray) -> tuple[np.ndarray, int]:
    """The fold basis Q for the reversal J e_k = signs_k e_{d-1-k}: the +
    states (e_k + signs_k e_{d-1-k}) / sqrt(2), k ascending, then the -
    states (e_k - signs_k e_{d-1-k}) / sqrt(2), the middle state e_m of
    odd d last in the block of its sign; and the number of + states."""
    d, m = len(signs), len(signs) // 2
    n = m + int(d % 2 == 1 and signs[m] > 0)
    q = np.zeros((d, d))
    k = np.arange(m)
    q[k, k] = q[k, n + k] = np.sqrt(0.5)
    q[d - 1 - k, k] = signs[k] * np.sqrt(0.5)
    q[d - 1 - k, n + k] = -signs[k] * np.sqrt(0.5)
    if d % 2:
        q[m, m if n > m else d - 1] = 1.0
    return q, n


def fold_kick(two_j: int, n: int, kappa: float, delta: float) -> np.ndarray:
    """The pair kicks of pair_kicks on a fold basis with n + states, as
    a (d, d) matrix: the block of pair k on the states (k, n + k), and
    the middle state of odd d, the last of the larger block, with the
    phase of its side."""
    d, m = two_j + 1, (two_j + 1) // 2
    kicks = pair_kicks(two_j, kappa, delta)
    out = np.zeros((d, d), dtype=complex)
    for k in range(m):
        out[np.ix_([k, n + k], [k, n + k])] = kicks[k]
    if d % 2:
        middle, side = (m, 0) if n > m else (d - 1, 1)
        out[middle, middle] = kicks[m, side, side]
    return out


def sectors(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the +1 and -1 eigenvalues of the parity operator."""
    jz_plus_half_sz = np.kron(spin_matrices(two_j)["z"], np.eye(2)) + np.kron(
        np.eye(two_j + 1), SIGMA["z"] / 2.0)
    parity = np.exp(-1j * np.pi * np.diag(jz_plus_half_sz)) * (1j if two_j % 2 == 0 else 1.0)
    assert np.abs(parity.imag).max() < 1e-12 and np.abs(np.abs(parity.real) - 1.0).max() < 1e-12
    return np.flatnonzero(parity.real > 0), np.flatnonzero(parity.real < 0)


def blocks(u: np.ndarray) -> np.ndarray:
    """The (2, d, d) stack of the parity-sector blocks of u, +1 first."""
    return np.stack([u[np.ix_(idx, idx)] for idx in sectors(len(u) // 2 - 1)])


def phases(m: np.ndarray) -> np.ndarray:
    """The eigenphases eps of a unitary, m v = exp(-i eps) v, on (-pi, pi]."""
    eps = -np.angle(np.linalg.eigvals(m))
    return np.where(eps <= -np.pi, eps + 2.0 * np.pi, eps)


def eigenbasis(u: np.ndarray) -> np.ndarray:
    """The eigenvectors of eig of each parity-sector block of u, as the
    columns of a coupled-space array, sector +1 first."""
    basis = np.zeros(u.shape, dtype=complex)
    for k, idx in enumerate(sectors(len(u) // 2 - 1)):
        basis[idx, k * len(idx):(k + 1) * len(idx)] = np.linalg.eig(u[np.ix_(idx, idx)])[1]
    return basis


def coherent_probes(two_j: int, thetas, phis, spin=(np.sqrt(0.5), np.sqrt(0.5))) -> np.ndarray:
    """The coherent tops exp(-i phi Jz) exp(-i theta Jy) |j, j> times the
    spin state `spin`, by default (|up> + |down>) / sqrt(2), one per row,
    theta-major."""
    spins = spin_matrices(two_j)
    lam, v = np.linalg.eigh(spins["y"])
    tops = (v.conj()[-1] * np.exp(-1j * np.outer(thetas, lam))) @ v.T
    tops = tops[:, None, :] * np.exp(-1j * np.outer(phis, np.diag(spins["z"])))
    return np.kron(tops.reshape(len(thetas) * len(phis), -1), spin)


def probe(two_j: int, theta: float, phi: float) -> np.ndarray:
    """The one coherent probe of coherent_probes at (theta, phi)."""
    return coherent_probes(two_j, [theta], [phi])[0]


def s2(basis: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """S2 = -ln(IPR) / ln(D) of each probe row against the orthonormal
    columns of basis, IPR the sum of the fourth powers of the overlaps,
    which must add up to 1 in square."""
    weights = np.abs(probes.conj() @ basis) ** 2
    assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-10
    return -np.log((weights ** 2).sum(axis=1)) / np.log(len(basis))


def _jz_moments(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<Jz> and its spread of (n, D) occupation weights on the coupled space."""
    jz = np.repeat(np.arange(weights.shape[1] // 2) - (weights.shape[1] // 2 - 1) / 2.0, 2)
    mean = weights @ jz
    return mean, np.sqrt(np.maximum(weights @ jz ** 2 - mean ** 2, 0.0))


def jz_series(u: np.ndarray, psi0: np.ndarray, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """<Jz> and its spread after each of n_max kicks by u, entry 0 psi0's."""
    states = [psi0]
    for _ in range(n_max):
        states.append(u @ states[-1])
    return _jz_moments(np.abs(np.array(states)) ** 2)


def eigenphase_series(eps: np.ndarray, basis: np.ndarray, psi0: np.ndarray,
                      n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """jz_series by phase evolution: psi0 expanded over the orthonormal
    columns of basis, with eigenphases eps, each term turned by
    exp(-i n eps)."""
    coeffs = basis.conj().T @ psi0
    states = (np.exp(-1j * np.outer(np.arange(n_max + 1), eps)) * coeffs) @ basis.T
    return _jz_moments(np.abs(states) ** 2)


def mf_quasienergy(theta, phi, kappa_x: float, kappa_y: float):
    """The mean-field quasi-energy arccos(cos Kx cos Ky) on [0, pi], with
    Kx = kappa_x sin(theta) cos(phi) and Ky = kappa_y sin(theta) sin(phi)."""
    sin_t = np.sin(theta)
    arg = np.cos(kappa_x * sin_t * np.cos(phi)) * np.cos(kappa_y * sin_t * np.sin(phi))
    return np.arccos(np.clip(arg, -1.0, 1.0))
