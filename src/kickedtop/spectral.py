"""Quasi-energy spectra, level-spacing statistics, stages, bound states.

Quasi-energies are the eigenphases of the one-period unitary,
U |e> = exp(-i eps) |e>, taken on the branch (-pi, pi].  Parity is
conserved, so every spectrum is kept per parity sector: a (2, d) stack
of sorted quasi-energies, +1 sector first, and for QuasiSpectrum a
(2, d, d) stack of eigenvectors in the coordinates of
symmetry.sector_indices.  Degenerate partners never mix across sectors,
spacing statistics are computed within a sector and averaged, and
coherent-probe overlaps are (2j+1)-sized products.  Only the distinct
cores (FloquetOperator.cores) are solved, so at every even 2j one sector
is.  There sector -1 is the conjugate mirror G J conj(.) J G of sector
+1: its quasi-energies are -eps of sector +1, sorted on (-pi, pi], and
its eigenvectors G J conj(v) of sector +1, reordered to match, which
QuasiSpectrum.mirrored records so that the sphere-averaged entropy
overlaps sector +1 only.

Each sector of a FloquetOperator is a complex-symmetric unitary core
M = R + i I.  Two solvers serve it:

* sector_eigenpairs, for eigenvectors (quasi_spectrum), for delta > 0
  and as the fallback.  Unitarity makes the real symmetric R and I
  commute, so one real symmetric eigh of R + MIX * I gives a real
  orthonormal eigenbasis of M, and Rayleigh quotients give the
  eigenphases.  Two eigenphases e1, e2 share an eigenvalue of R + MIX * I
  when e1 + e2 = -2 atan(MIX) (mod 2 pi), and eigh may then mix their
  eigenvectors; the eigenpair residual of every sector is checked, and a
  sector above EIGEN_RESIDUAL_TOL falls back to complex Schur.
* The fold, for the eigenphases of every delta = 0 core
  (sector_eigenphases through core_eigenphases).  The chiral symmetry
  of the symmetrized frames is, on the core basis, a signed reversal J
  with J conj(M) J = M (FloquetOperator.reversals, certified once per
  two_j), which pairs every level eps with -eps.  On the basis
  (e_k +- signs_k e_{d-1-k}) / sqrt(2) the core is [[A, iK], [iK^T, B]]
  with real A, B, K of half size, and two half-size eighs and a small
  SVD give the phases (_solve_fold).  floquet_operator builds A, B and K
  directly and stores them (FloquetOperator.folds), so the sweeps take
  them as they are; an operator without them, such as one built from
  explicit cores, has them read from each core by floquet.chiral_fold.
  The fold's own guard, the blockwise residual plus what the fold drops,
  sends a core it rejects to sector_eigenpairs.

floquet_operator certifies unitarity at construction (the orthogonality
of the real overlap that every core is built from), and each solver's
residual certifies each solved core again: with V orthogonal,
|lambda| = 1 and every column residual at most tau,
||M - V Lambda V^T||_F <= sqrt(d) tau.  NumericalError is raised when a
sector's residual exceeds EIGEN_RESIDUAL_TOL after the Schur fallback,
which rejects a core that is not unitary.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError
from .floquet import FloquetOperator, chiral_fold
from .symmetry import sector_indices

EIGEN_RESIDUAL_TOL = 1e-8

# Weight of Im M in R + MIX * I, whose eigenvalues are
# sqrt(1 + MIX^2) cos(eps + atan(MIX)).  0 would merge every chiral pair
# +-eps.  A near-degenerate pair loses the most eigenvector accuracy where
# that cosine is flat, at eps = -atan(MIX) and pi - atan(MIX); MIX = 1 puts
# those points, -pi/4 and 3pi/4, farthest from the bound states at 0 and pi.
MIX = 1.0

# Angles from 0 and pi (radians) between which the fold cuts its
# bound-state clusters: levels nearer than the first are always
# clustered, levels farther than the second never.  arccos loses at most
# a factor 1 / sin 0.25 ~ 4 of its accuracy outside the cluster.
FOLD_CLUSTER = (0.25, 0.45)

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
    basis states sector_indices(two_j)[s].  mirrored is True when the
    columns of vectors[1] are G J conj of those of vectors[0], G =
    diag((-1)^k) and J the reversal, in some order (quasi_spectrum at
    even 2j).
    """

    two_j: int
    params: object
    epsilons: np.ndarray          # (2, d)
    vectors: np.ndarray           # (2, d, d)
    mirrored: bool = False

    @property
    def dim(self) -> int:
        return self.epsilons.size

    def state(self, sector: int, k: int) -> np.ndarray:
        """Eigenvector k of a sector as a state of the coupled space."""
        out = np.zeros(self.dim, dtype=complex)
        out[sector_indices(self.two_j)[sector]] = self.vectors[sector, :, k]
        return out


def _branch(eps: np.ndarray) -> np.ndarray:
    """Map phases onto (-pi, pi], sending -pi to +pi and -0 to +0."""
    return np.where(eps <= -np.pi, eps + 2.0 * np.pi, eps) + 0.0


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


def _cluster_cut(cos_a: np.ndarray, cos_b: np.ndarray) -> float:
    """The middle of the widest gap of the cosines of A and B within
    [cos FOLD_CLUSTER[1], cos FOLD_CLUSTER[0]]: one cut for both blocks,
    so the two cosines of a +-eps pair, equal to rounding, are never split."""
    lo, hi = np.cos(FOLD_CLUSTER[1]), np.cos(FOLD_CLUSTER[0])
    c = np.concatenate([cos_a, cos_b])
    edges = np.sort(np.concatenate([[lo, hi], c[(c > lo) & (c < hi)]]))
    i = np.argmax(np.diff(edges))
    return 0.5 * (edges[i] + edges[i + 1])


def _folded_eigenphases(m: np.ndarray, signs: np.ndarray) -> np.ndarray | None:
    """Eigenphases of a core with J conj(M) J = M, J e_k = signs_k e_{d-1-k},
    from the half-size blocks of chiral_fold; None when the guard rejects it."""
    return _solve_fold(*chiral_fold(m, signs))


def _solve_fold(a: np.ndarray, b: np.ndarray, k: np.ndarray,
                dropped: float) -> np.ndarray | None:
    """Eigenphases of the core M = [[A, iK], [iK^T, B]] of a chiral fold
    (floquet.chiral_fold, or FloquetOperator.folds), of which the fold
    dropped a part of norm at most `dropped`; None when the guard rejects it.

    Unitarity gives A^2 + K K^T = 1 and A K = K B, so each +-eps pair is
    one eigenvector p of A with c = cos eps and one q = K^T p / |sin eps|
    of B with the same c, and v = (p, +-q) / sqrt(2) are its eigenvectors.
    Away from 0 and pi, eps = +-arccos c.  Near them c cannot resolve eps:
    the eigenvectors of A and B past the cluster cut are paired instead by
    the singular values s = |sin eps| of K between them, which are
    accurate to rounding, and the unpaired modes of a cluster sit at
    exactly 0 or pi.  The guard is the residual ||M v - exp(-i eps) v||,
    taken blockwise against the unit-modulus phase for every pair and
    unpaired mode, plus the bound on what the fold dropped; it rejects the
    core above EIGEN_RESIDUAL_TOL, or when the cut leaves A and B unequal
    numbers of unclustered levels.
    """
    cos_a, vec_a = np.linalg.eigh(a)
    cos_b, vec_b = np.linalg.eigh(b)
    hi, lo = _cluster_cut(cos_a, cos_b), -_cluster_cut(-cos_a, -cos_b)
    mid = (cos_a > lo) & (cos_a < hi)
    n_mid = mid.sum()
    if n_mid != ((cos_b > lo) & (cos_b < hi)).sum():
        return None
    # column j of p and q and the cosine and sine of its level: the pairs
    # (p, +-q) / sqrt(2), then the unpaired modes (p, 0) and (0, q), scaled
    # by sqrt(2) so that one formula gives every residual
    p, q, cos = [vec_a[:, mid]], [], [cos_a[mid]]
    sin = [np.sqrt(1.0 - cos[0] ** 2)]
    theta, paired = [np.arccos(cos[0])], [np.ones(n_mid, bool)]
    for sign, cluster_a, cluster_b in ((1.0, cos_a >= hi, cos_b >= hi),
                                      (-1.0, cos_a <= lo, cos_b <= lo)):
        left, right = vec_a[:, cluster_a], vec_b[:, cluster_b]
        u, s, wt = np.linalg.svd(left.T @ (k @ right))
        s = np.minimum(s, 1.0)
        n, free_a, free_b = s.size, left.shape[1] - s.size, right.shape[1] - s.size
        p += [left @ u[:, :n], np.sqrt(2.0) * (left @ u[:, n:]), np.zeros((len(a), free_b))]
        q += [right @ wt[:n].T, np.zeros((len(b), free_a)), np.sqrt(2.0) * (right @ wt[n:].T)]
        cos += [sign * np.sqrt(1.0 - s ** 2), np.full(free_a + free_b, sign)]
        sin += [s, np.zeros(free_a + free_b)]
        pair_theta = np.arcsin(s) if sign > 0 else np.pi - np.arcsin(s)
        theta += [pair_theta, np.full(free_a + free_b, np.arccos(sign))]
        paired += [np.ones(n, bool), np.zeros(free_a + free_b, bool)]
    p = np.concatenate(p, axis=1)
    cos, sin, theta, paired = map(np.concatenate, (cos, sin, theta, paired))
    k_t_p = k.T @ p
    q_mid = k_t_p[:, :n_mid] / np.linalg.norm(k_t_p[:, :n_mid], axis=0)
    q = np.concatenate([q_mid] + q, axis=1)
    k_t_p -= q * sin
    k_q = k @ q - p * sin
    a_p = a @ p - p * cos
    b_q = b @ q - q * cos
    squares = sum(np.einsum("ij,ij->j", x, x) for x in (a_p, k_t_p, b_q, k_q))
    if not np.sqrt(0.5 * squares.max()) + dropped <= EIGEN_RESIDUAL_TOL:
        return None
    return _branch(np.concatenate([theta, -theta[paired]]))


def core_eigenphases(m: np.ndarray, signs: np.ndarray | None = None,
                     fold: tuple | None = None) -> np.ndarray:
    """Sorted eigenphases of one sector core.  The half-size fold solves
    it: the core's stored fold (FloquetOperator.folds), else the fold read
    from the core with the signs of its chiral reversal
    (FloquetOperator.reversals).  Without either, or when the fold's guard
    rejects the core, sector_eigenpairs does."""
    if fold is not None:
        eps = _solve_fold(*fold)
    else:
        eps = None if signs is None else _folded_eigenphases(m, signs)
    if eps is None:
        eps = sector_eigenpairs(m)[0]
    return np.sort(eps)


def _both_sectors(eps: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The (2, d) stack of sorted quasi-energies from those of
    FloquetOperator.cores, and with one core the order that sorts the
    mirrored levels -eps of sector -1 on (-pi, pi] (the columns of
    FloquetOperator.to_sectors), else None."""
    if len(eps) == 2:
        return eps, None
    minus = _branch(-eps[0])
    order = np.argsort(minus, kind="stable")
    return np.stack([eps[0], minus[order]]), order


def sector_eigenphases(operator: FloquetOperator) -> np.ndarray:
    """The (2, d) stack of sorted quasi-energies of the parity sectors, +1 first.

    The light-weight path for spacing statistics over parameter sweeps:
    the epsilons of quasi_spectrum without the eigenvectors, from
    core_eigenphases (the fold for delta = 0, as the operator stores it).
    Raises NumericalError like quasi_spectrum, from the eigenpair residual.
    """
    none = [None] * len(operator.cores)
    reversals = none if operator.reversals is None else operator.reversals
    folds = none if operator.folds is None else operator.folds
    eps = np.stack([core_eigenphases(core, signs, fold)
                    for core, signs, fold in zip(operator.cores, reversals, folds)])
    return _both_sectors(eps)[0]


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
    epsilons, order = _both_sectors(np.stack(epsilons))
    vectors = operator.to_sectors(np.stack(vectors))
    if order is not None:
        vectors[1] = vectors[1][:, order]
    return QuasiSpectrum(two_j=operator.two_j, params=operator.params,
                         epsilons=epsilons, vectors=vectors, mirrored=order is not None)


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
