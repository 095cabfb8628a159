"""Independent reference physics for the benchmark's correctness gate.

Nothing here imports kickedtop.  Spin matrices come from the ladder
formula J+ |m> = sqrt(j(j+1) - m(m+1)) |m+1>, kick unitaries from
scipy.linalg.expm of the Kronecker-product generators, coherent states
from the closed-form Wigner d^j_{m,j}, and parity sectors from the sign
pattern (j + m + s) mod 2 of the coupled basis |m, s> at flat index
2(j + m) + s, checked against the generators.  The package builds the
same quantities through cached eigendecompositions, so agreement checks
the whole chain rather than restating it.
"""

import math

import numpy as np
import scipy.linalg

SIGMA = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

BOUND_TOL = 0.05


def spin_matrices(two_j: int) -> dict:
    """Jx, Jy, Jz on the (2j+1)-dimensional top space, m ascending."""
    j = two_j / 2.0
    m = np.arange(two_j + 1) - j
    jp = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), k=-1).astype(complex)
    jm = jp.conj().T
    return {"x": (jp + jm) / 2.0, "y": (jp - jm) / 2.0j, "z": np.diag(m).astype(complex)}


def kick(two_j: int, axis: str, kappa: float, delta: float = 0.0) -> np.ndarray:
    """expm(-i [(kappa/j) J_a (x) sigma_a + delta 1 (x) sigma_z]).

    The generator has no entries between the parity sectors, so it is
    exponentiated one sector block at a time, a quarter of the full cost.
    """
    j = two_j / 2.0
    gen = kappa / j * np.kron(spin_matrices(two_j)[axis], SIGMA[axis])
    gen += delta * np.kron(np.eye(two_j + 1), SIGMA["z"])
    a, b = sectors(two_j)
    if gen[np.ix_(a, b)].any() or gen[np.ix_(b, a)].any():
        raise AssertionError("oracle generator couples the parity sectors")
    out = np.zeros_like(gen)
    for idx in (a, b):
        out[np.ix_(idx, idx)] = scipy.linalg.expm(-1j * gen[np.ix_(idx, idx)])
    return out


def floquet(two_j: int, kappa_x: float, kappa_y: float, delta: float = 0.0,
            variant: str = "plain") -> np.ndarray:
    if variant == "plain":
        return kick(two_j, "y", kappa_y, delta) @ kick(two_j, "x", kappa_x, delta)
    if variant == "sym1":
        half = kick(two_j, "y", kappa_y / 2.0)
        return half @ kick(two_j, "x", kappa_x) @ half
    raise ValueError(f"oracle has no variant {variant!r}")


def sectors(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    flat = np.arange(2 * (two_j + 1))
    label = (flat // 2 + flat % 2) % 2
    return np.where(label == 0)[0], np.where(label == 1)[0]


def _phases(evals: np.ndarray) -> np.ndarray:
    eps = -np.angle(evals)
    return np.where(eps <= -np.pi, eps + 2.0 * np.pi, eps)


def _min_spacing(eps_sets) -> float:
    """Smallest spacing between neighbouring quasi-energies of one sector."""
    return float(min(np.diff(np.sort(e)).min() for e in eps_sets))


def _ratio_mean(eps: np.ndarray) -> float:
    s = np.diff(np.sort(eps))
    lo, hi = np.minimum(s[1:], s[:-1]), np.maximum(s[1:], s[:-1])
    return float(np.where(hi > 0.0, lo / np.where(hi > 0.0, hi, 1.0), 1.0).mean())


def split_product(product: float, ratio: float) -> tuple[float, float]:
    """The command's convention: ky / kx = ratio at fixed kx * ky."""
    kappa_x = math.sqrt(product / ratio)
    return kappa_x, kappa_x * ratio


def stage(kappa_x: float, kappa_y: float, two_j: int) -> str:
    base = math.pi * (two_j + 1)
    product = kappa_x * kappa_y
    for border, name in ((base / 4.0, "topological"), (base / 2.0, "quasi_integrable"),
                         (base, "transition")):
        if product < border:
            return name
    return "chaotic"


def rcurve_point(two_j: int, product: float, ratio: float, delta: float) -> dict:
    kx, ky = split_product(product, ratio)
    u = floquet(two_j, kx, ky, delta)
    eps = [_phases(np.linalg.eigvals(u[np.ix_(idx, idx)])) for idx in sectors(two_j)]
    weights = [e.size - 2 for e in eps]
    r = sum(_ratio_mean(e) * w for e, w in zip(eps, weights)) / sum(weights)
    allphases = np.concatenate(eps)
    dist = np.minimum(np.abs(allphases), np.abs(np.pi - np.abs(allphases)))
    return {"value": r, "stage": stage(kx, ky, two_j), "n_bound": int((dist <= BOUND_TOL).sum()),
            "min_spacing": _min_spacing(eps)}


def coherent_top(two_j: int, theta: float, phi: float) -> np.ndarray:
    """exp(-i phi Jz) exp(-i theta Jy) |j, j> from the closed-form Wigner d^j_{m,j}."""
    k = np.arange(two_j + 1)
    log_binom = (math.lgamma(two_j + 1) - np.array([math.lgamma(i + 1) for i in k])
                 - np.array([math.lgamma(two_j - i + 1) for i in k]))
    with np.errstate(divide="ignore"):
        log_amp = (0.5 * log_binom + k * np.log(math.cos(theta / 2.0))
                   + (two_j - k) * np.log(math.sin(theta / 2.0)))
    return np.exp(log_amp - 1j * phi * (k - two_j / 2.0))


def entropy_point(two_j: int, product: float, ratio: float, grid: int) -> dict:
    kx, ky = split_product(product, ratio)
    u = floquet(two_j, kx, ky, variant="sym1")
    dim = u.shape[0]
    vectors = np.zeros((dim, dim), dtype=complex)
    eps = []
    col = 0
    for idx in sectors(two_j):
        t, q = scipy.linalg.schur(u[np.ix_(idx, idx)], output="complex")
        vectors[np.ix_(idx, np.arange(col, col + idx.size))] = q
        eps.append(_phases(np.diag(t)))
        col += idx.size
    z_nodes, gl_weights = np.polynomial.legendre.leggauss(grid)
    total = 0.0
    for z, w in zip(z_nodes, gl_weights):
        for i in range(grid):
            top = coherent_top(two_j, math.acos(z), 2.0 * math.pi * i / grid)
            probs = np.abs(vectors.conj().T @ (np.repeat(top, 2) / math.sqrt(2.0))) ** 2
            total += w / 2.0 / grid * -math.log((probs ** 2).sum()) / math.log(dim)
    return {"value": total, "stage": stage(kx, ky, two_j),
            "baseline": math.log((dim + 2) / 3.0) / math.log(dim), "min_spacing": _min_spacing(eps)}


def dynamics_column(two_j: int, kappa_y: float, z0: float, n_x: int, n_max: int) -> dict:
    """<Jz>/j and its spread after each kick, from |arccos z0, 0> (x) |up>."""
    kx = math.pi * n_x / math.sqrt(1.0 - z0 * z0)
    u = floquet(two_j, kx, kappa_y)
    j = two_j / 2.0
    m2 = np.repeat(np.arange(two_j + 1) - j, 2)
    psi = np.zeros(u.shape[0], dtype=complex)
    psi[0::2] = coherent_top(two_j, math.acos(z0), 0.0)
    means, stds = [], []
    for n in range(n_max + 1):
        if n:
            psi = u @ psi
        p = np.abs(psi) ** 2
        mean = float(m2 @ p)
        means.append(mean / j)
        stds.append(math.sqrt(max(float(m2 ** 2 @ p) - mean * mean, 0.0)) / j)
    return {"kx": kx, "jz_mean_over_j": np.array(means), "jz_std_over_j": np.array(stds)}
