"""Quasi-energy spectra, level-spacing statistics, stages, bound states.

Quasi-energies are the eigenphases of the one-period unitary,
U |e> = exp(-i eps) |e>, taken on the branch (-pi, pi].  Parity is
conserved, so every spectrum is kept per parity sector: a (2, d) stack
of sorted quasi-energies, +1 sector first, and for QuasiSpectrum a
(2, d, d) stack of eigenvectors in the coordinates of
symmetry.sector_indices.  Degenerate partners never mix across sectors,
spacing statistics are computed within a sector and averaged, and
coherent-probe overlaps are two (2j+1)-sized products.  Only the
distinct cores (FloquetOperator.cores) are solved: for
mirror-twin sectors (even 2j, delta = 0) sector -1 repeats the
quasi-energies of sector +1, and its eigenvectors are those of sector +1
with the basis reversed.

Each sector of a FloquetOperator is a complex-symmetric unitary core
M = R + i I.  Unitarity makes the real symmetric R and I commute, so one
real symmetric eigh of R + MIX * I gives a real orthonormal eigenbasis
of M, and Rayleigh quotients give the eigenphases.  Two eigenphases
e1, e2 share an eigenvalue of R + MIX * I when e1 + e2 = -2 atan(MIX)
(mod 2 pi), and eigh may then mix their eigenvectors; the eigenpair
residual of every sector is checked, and a sector above
EIGEN_RESIDUAL_TOL falls back to complex Schur.

That residual is the only check made here.  floquet_operator certifies
unitarity at construction (the orthogonality of the real overlap that
every core is built from), and the residual certifies each solved core
again: with V orthogonal, |lambda| = 1 and every column residual at most
tau, ||M - V Lambda V^T||_F <= sqrt(d) tau.  NumericalError is raised
when a sector's residual exceeds EIGEN_RESIDUAL_TOL after the Schur
fallback, which rejects a core that is not unitary.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError
from .floquet import FloquetOperator
from .symmetry import sector_indices

EIGEN_RESIDUAL_TOL = 1e-8

# Weight of Im M in R + MIX * I, whose eigenvalues are
# sqrt(1 + MIX^2) cos(eps + atan(MIX)).  0 would merge every chiral pair
# +-eps.  A near-degenerate pair loses the most eigenvector accuracy where
# that cosine is flat, at eps = -atan(MIX) and pi - atan(MIX); MIX = 1 puts
# those points, -pi/4 and 3pi/4, farthest from the bound states at 0 and pi.
MIX = 1.0

STAGES = ("topological", "quasi_integrable", "transition", "chaotic")

DEFAULT_BOUND_TOL = 0.05

R_POISSON = 2.0 * np.log(2.0) - 1.0          # ~0.386
R_COE = 4.0 - 2.0 * np.sqrt(3.0)             # ~0.536
R_CUE = 2.0 * np.sqrt(3.0) / np.pi - 0.5     # ~0.603


@dataclass
class QuasiSpectrum:
    """Quasi-energies and eigenvectors of the two parity sectors.

    Row s of each stack is sector s in symmetry.sector_indices order
    (0: parity +1, 1: parity -1).  epsilons[s] ascends in (-pi, pi];
    column k of vectors[s] is the eigenvector of epsilons[s, k] on the
    basis states sector_indices(two_j)[s].
    """

    two_j: int
    params: object
    epsilons: np.ndarray          # (2, d)
    vectors: np.ndarray           # (2, d, d)

    @property
    def dim(self) -> int:
        return self.epsilons.size

    def state(self, sector: int, k: int) -> np.ndarray:
        """Eigenvector k of a sector as a state of the coupled space."""
        out = np.zeros(self.dim, dtype=complex)
        out[sector_indices(self.two_j)[sector]] = self.vectors[sector, :, k]
        return out


def _branch(eps: np.ndarray) -> np.ndarray:
    """Map phases onto (-pi, pi], sending -pi to +pi."""
    return np.where(eps <= -np.pi, eps + 2.0 * np.pi, eps)


def _residual(m_vectors: np.ndarray, vectors: np.ndarray, eps: np.ndarray) -> float:
    """Largest ||M v - exp(-i eps) v|| over the eigenpairs, given M @ vectors."""
    return float(np.linalg.norm(m_vectors - vectors * np.exp(-1j * eps), axis=0).max())


def _schur_eigenpairs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases and eigenvectors of a unitary from complex Schur."""
    try:
        t, q = scipy.linalg.schur(m, output="complex")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"Schur decomposition failed: {exc}") from exc
    eps = _branch(-np.angle(np.diag(t)))
    worst = _residual(m @ q, q, eps)
    if worst > EIGEN_RESIDUAL_TOL:
        raise NumericalError(f"eigenpair residual {worst:.2e} exceeds {EIGEN_RESIDUAL_TOL}")
    return eps, q


def sector_eigenpairs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases (unsorted) and orthonormal eigenvectors of a
    complex-symmetric unitary, with a complex Schur fallback."""
    _, vectors = np.linalg.eigh(m.real + MIX * m.imag)
    m_vectors = m.real @ vectors + 1j * (m.imag @ vectors)
    eps = _branch(-np.angle(np.einsum("ij,ij->j", vectors, m_vectors)))
    if _residual(m_vectors, vectors, eps) > EIGEN_RESIDUAL_TOL:
        return _schur_eigenpairs(m)
    return eps, vectors


def _both_sectors(stack: np.ndarray) -> np.ndarray:
    """A stack over FloquetOperator.cores as a new (2, ...) array: the one
    sector of twins is repeated."""
    return np.repeat(stack, 2 // len(stack), axis=0)


def sector_eigenphases(operator: FloquetOperator) -> np.ndarray:
    """The (2, d) stack of sorted quasi-energies of the parity sectors, +1 first.

    The light-weight path for spacing statistics over parameter sweeps:
    the epsilons of quasi_spectrum without the eigenvectors.  Raises
    NumericalError like quasi_spectrum, from the eigenpair residual.
    """
    return _both_sectors(np.sort([sector_eigenpairs(core)[0] for core in operator.cores],
                                 axis=-1))


def quasi_spectrum(operator: FloquetOperator) -> QuasiSpectrum:
    """Diagonalize each parity sector, sorted within the sector.

    Raises NumericalError when an eigenpair residual
    ||M v - exp(-i eps) v|| of a sector core M exceeds EIGEN_RESIDUAL_TOL
    even after the Schur fallback; a core that is not unitary fails there.
    """
    epsilons, vectors = [], []
    for core in operator.cores:
        eps, vecs = sector_eigenpairs(core)
        order = np.argsort(eps, kind="stable")
        epsilons.append(eps[order])
        vectors.append(vecs[:, order])
    return QuasiSpectrum(two_j=operator.two_j, params=operator.params,
                         epsilons=_both_sectors(np.stack(epsilons)),
                         vectors=operator.to_sectors(np.stack(vectors)))


def mean_spacing_ratio(epsilons: np.ndarray) -> float:
    """Mean of min/max of consecutive spacings of the sorted levels.

    Degenerate pairs follow the conventions 0/0 -> 1 and 0/positive -> 0,
    so exact degeneracies depress the ratio instead of producing NaNs.
    """
    eps = np.asarray(epsilons, dtype=float)
    if eps.size < 3:
        raise ValueError(f"need at least 3 levels, got {eps.size}")
    spacings = np.diff(np.sort(eps))
    lo = np.minimum(spacings[1:], spacings[:-1])
    hi = np.maximum(spacings[1:], spacings[:-1])
    ratios = np.where(hi > 0.0, lo / np.where(hi > 0.0, hi, 1.0), 1.0)
    return float(ratios.mean())


def parity_resolved_r(epsilons: np.ndarray) -> dict:
    """Spacing-ratio statistics per parity sector and their weighted mean.

    epsilons is the (2, d) sector stack of sector_eigenphases or
    QuasiSpectrum.epsilons.  Mixing the decoupled sectors would depress
    r, so the ratio is always computed within a sector; r_mean weights
    each sector by its ratio count.
    """
    eps_plus, eps_minus = np.asarray(epsilons, dtype=float)
    if eps_plus.size < 3 or eps_minus.size < 3:
        raise ValueError("each parity sector needs at least 3 levels")
    r_plus = mean_spacing_ratio(eps_plus)
    r_minus = mean_spacing_ratio(eps_minus)
    w_plus = eps_plus.size - 2
    w_minus = eps_minus.size - 2
    r_mean = (r_plus * w_plus + r_minus * w_minus) / (w_plus + w_minus)
    return {"r_plus": r_plus, "r_minus": r_minus, "r_mean": r_mean}


def stage_borders(two_j: int) -> tuple[float, float, float]:
    """The three kappa_x*kappa_y border values pi(2j+1) * (1/4, 1/2, 1)."""
    base = np.pi * (two_j + 1)
    return base / 4.0, base / 2.0, base


def stage_classify(kappa_x: float, kappa_y: float, two_j: int) -> str:
    """Stage label from kappa_x*kappa_y; intervals are closed on the left."""
    if kappa_x < 0 or kappa_y < 0:
        raise ValueError("kick strengths must be non-negative")
    product = kappa_x * kappa_y
    b1, b2, b3 = stage_borders(two_j)
    if product < b1:
        return "topological"
    if product < b2:
        return "quasi_integrable"
    if product < b3:
        return "transition"
    return "chaotic"


@dataclass
class BoundStateRecord:
    """A detected quasi-energy 0 or pi state: eigenpair `index` of sector
    `sector` of a QuasiSpectrum (0: parity +1, 1: parity -1)."""

    sector: int
    index: int
    epsilon: float
    target: float                # 0.0 or pi
    distance: float
    chiral: float                # <sigma_z> of the eigenvector


def chiral_expectation(state: np.ndarray) -> float:
    """<sigma_z> of a coupled-space state, clipped into [-1, 1]."""
    weights = np.abs(state) ** 2
    value = float(weights[0::2].sum() - weights[1::2].sum())
    return min(1.0, max(-1.0, value))


def bound_window(epsilons: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Each quasi-energy's distance to the nearer of 0 and pi, and the
    mask of those within the bound-state window tol (radians, positive)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    eps = np.asarray(epsilons)
    distance = np.minimum(np.abs(eps), np.abs(np.pi - np.abs(eps)))
    return distance, distance <= tol


def detect_bound_states(spectrum: QuasiSpectrum,
                        tol: float = DEFAULT_BOUND_TOL) -> list[BoundStateRecord]:
    """All states within tol of quasi-energy 0 or pi, with chiral labels,
    +1 sector first."""
    eps = spectrum.epsilons
    distance, inside = bound_window(eps, tol)
    records = []
    for sector, i in zip(*np.nonzero(inside)):
        records.append(BoundStateRecord(
            sector=int(sector),
            index=int(i),
            epsilon=float(eps[sector, i]),
            # the distance is |eps| exactly when 0 is the nearer target
            target=0.0 if distance[sector, i] == abs(eps[sector, i]) else np.pi,
            distance=float(distance[sector, i]),
            chiral=chiral_expectation(spectrum.state(sector, i)),
        ))
    return records
