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
M = R + i I.  Two solvers serve it; which one runs depends on the
operator, not on the caller:

* The fold, for every delta = 0 core, the eigenphases
  (sector_eigenphases: spectrum, rgrid, rcurve) and the eigenvectors
  (quasi_spectrum: entropy, bound states) alike.  floquet_operator
  stores every core on its fold basis, M = [[A, iK], [iK^T, B]], and
  keeps the real half-size A, B and K of a delta = 0 core, whose chiral
  symmetry pairs every level eps with -eps, as FloquetOperator.folds
  (derived in the floquet module docstring).  One half-size eigh
  of A, a QR, the eigh of B on its levels near +-1 and a small SVD give
  the phases and the half-size vectors p and q of every level
  (_solve_fold).  The phases alone cost nothing more, and
  quasi_spectrum takes (p, +-q) / sqrt(2) as the core's eigenvectors as
  they are and maps them through the frames.
* sector_eigenpairs, for every core without a fold (delta > 0, or an
  operator built from explicit cores), and the fallback for a core whose
  fold the fold's own guard rejects.  Unitarity makes the real symmetric
  R and I commute, so one real symmetric eigh of R + MIX * I gives a
  real orthonormal eigenbasis V of M.  The real products R V and I V
  give the eigenphases, eps = -atan2(v.I v, v.R v), and the eigenpair
  residual, whose real and imaginary parts are R v - v cos eps and
  I v + v sin eps.  Two eigenphases e1, e2 share an eigenvalue of
  R + MIX * I when e1 + e2 = -2 atan(MIX) (mod 2 pi), and eigh may mix
  their eigenvectors; the eigenpair residual of every sector is checked,
  and a sector above EIGEN_RESIDUAL_TOL falls back to a complex eig
  (_schur_eigenpairs: numpy's eig, whose eigenvectors LAPACK takes from
  the complex Schur form, made orthonormal by QR).

Inside an exactly degenerate level the eigenbasis is the solver's
choice, and the two solvers choose differently, so a quantity summed
over single eigenvectors (the entropy's IPR) depends on which one ran
there; elsewhere they agree to rounding.

floquet_operator certifies unitarity at construction (the orthogonality
of the real overlap that every core is built from, and the unitarity of
its pair kicks), and each solver's
residual certifies each solved core again: with V orthogonal,
|lambda| = 1 and every column residual at most tau,
||M - V Lambda V^T||_F <= sqrt(d) tau.  NumericalError is raised when a
sector's residual exceeds EIGEN_RESIDUAL_TOL after the eig fallback,
which rejects a core that is not unitary.
"""

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .floquet import FloquetOperator
from .spin import validate_two_j
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


def _schur_eigenpairs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases and orthonormal eigenvectors of a unitary, from the
    complex Schur form inside LAPACK's geev (np.linalg.eig).  Its
    eigenvectors are the Schur vectors of a unitary up to rounding, except
    that they may mix inside a degenerate cluster; QR makes them
    orthonormal again without leaving the cluster."""
    try:
        w, vectors = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    q = np.linalg.qr(vectors)[0]
    eps = _branch(-np.angle(w))
    worst = np.linalg.norm(m @ q - q * np.exp(-1j * eps), axis=0).max()
    if worst > EIGEN_RESIDUAL_TOL:
        raise NumericalError(f"eigenpair residual {worst:.2e} exceeds {EIGEN_RESIDUAL_TOL}")
    return eps, q


def sector_eigenpairs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases (unsorted) and orthonormal eigenvectors of a
    complex-symmetric unitary, with a complex eig fallback."""
    _, vectors = np.linalg.eigh(m.real + MIX * m.imag)
    re_v, im_v = m.real @ vectors, m.imag @ vectors
    eps = _branch(-np.arctan2(np.einsum("ij,ij->j", vectors, im_v),
                              np.einsum("ij,ij->j", vectors, re_v)))
    # M v - exp(-i eps) v = (Re M v - v cos eps) + i (Im M v + v sin eps)
    re_v -= vectors * np.cos(eps)
    im_v += vectors * np.sin(eps)
    squares = np.einsum("ij,ij->j", re_v, re_v) + np.einsum("ij,ij->j", im_v, im_v)
    if np.sqrt(squares.max()) > EIGEN_RESIDUAL_TOL:
        return _schur_eigenpairs(m)
    return eps, vectors


def _cluster_cut(cos: np.ndarray) -> float:
    """The middle of the widest gap of the cosines of A within
    [cos FOLD_CLUSTER[1], cos FOLD_CLUSTER[0]].  Each +-eps pair has one
    cosine in A and one equal to it in B, and B's other levels sit at
    exactly +-1, so the cut splits no pair between the blocks."""
    lo, hi = np.cos(FOLD_CLUSTER[1]), np.cos(FOLD_CLUSTER[0])
    edges = np.sort(np.concatenate([[lo, hi], cos[(cos > lo) & (cos < hi)]]))
    i = np.argmax(np.diff(edges))
    return 0.5 * (edges[i] + edges[i + 1])


def _solve_fold(a: np.ndarray, b: np.ndarray, k: np.ndarray) -> tuple | None:
    """Eigenphases and half-size eigenvectors of the core
    M = [[A, iK], [iK^T, B]] of a chiral fold (A, B, K), as
    FloquetOperator.folds holds it (floquet module docstring); None when
    the guard rejects it.

    Unitarity gives A^2 + K K^T = 1 and A K = K B, so each +-eps pair is
    one eigenvector p of A with c = cos eps and one q = K^T p / |sin eps|
    of B with the same c.  With theta = arccos c in [0, pi],
    M (p, +-q) = exp(+-i theta) (p, +-q): (p, q) / sqrt(2) is the
    eigenvector of -theta and (p, -q) / sqrt(2) that of +theta.  Away from
    0 and pi, theta comes from c.  Near them c cannot resolve it: past
    the cluster cut, A's eigenvectors are paired with B's by the singular
    values s = sin theta of K between them, which are accurate to
    rounding, and the unpaired modes of a cluster, (p, 0) or (0, q), sit
    at exactly 0 or pi.  Only A is diagonalized.  B's levels past the
    cut span the orthogonal complement W of the q of the levels before
    it, and the eigh of the small W^T B W splits W into its parts near
    +1 and -1.  The guard is the residual ||M v - exp(-i eps) v||, taken
    blockwise against the unit-modulus phase for every pair and unpaired
    mode; it rejects the core above EIGEN_RESIDUAL_TOL, and the B q part
    of it any level of B that the complement misplaces.

    Returns (eps, p, q, paired), with n columns in p and q: column i is
    the level eps[i] = -theta_i as (p_i, q_i) / sqrt(2), and eps[n:] are
    the levels +theta_i of (p_i, -q_i) / sqrt(2) of the pairs' columns
    (the mask paired), in order.
    """
    cos_a, vec_a = np.linalg.eigh(a)
    hi, lo = _cluster_cut(cos_a), -_cluster_cut(-cos_a)
    mid = (cos_a > lo) & (cos_a < hi)
    n_mid = mid.sum()
    k_t_mid = k.T @ vec_a[:, mid]
    q_mid = k_t_mid / np.linalg.norm(k_t_mid, axis=0)
    # B's levels past the cut: the complement w of q_mid, split at 0 by w^T B w
    w = np.linalg.qr(q_mid, mode="complete")[0][:, n_mid:]
    cos_b, vec_b = np.linalg.eigh(w.T @ b @ w)
    # column j of p and q and the cosine and sine of its level: the pairs
    # (p, +-q) / sqrt(2), then the unpaired modes (p, 0) and (0, q), scaled
    # by sqrt(2) so that one formula gives every residual
    p, q, cos = [vec_a[:, mid]], [q_mid], [cos_a[mid]]
    sin = [np.sqrt(1.0 - cos[0] ** 2)]
    theta, paired = [np.arccos(cos[0])], [np.ones(n_mid, bool)]
    for sign, cluster_a, cluster_b in ((1.0, cos_a >= hi, cos_b > 0.0),
                                      (-1.0, cos_a <= lo, cos_b <= 0.0)):
        left, right = vec_a[:, cluster_a], w @ vec_b[:, cluster_b]
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
    del w    # the n x n Q of the QR
    p, q = np.concatenate(p, axis=1), np.concatenate(q, axis=1)
    cos, sin, theta, paired = map(np.concatenate, (cos, sin, theta, paired))
    k_t_p = np.concatenate([k_t_mid, k.T @ p[:, n_mid:]], axis=1)
    k_t_p -= q * sin
    k_q = k @ q - p * sin
    a_p = a @ p - p * cos
    b_q = b @ q - q * cos
    squares = sum(np.einsum("ij,ij->j", x, x) for x in (a_p, k_t_p, b_q, k_q))
    if not np.sqrt(0.5 * squares.max()) <= EIGEN_RESIDUAL_TOL:
        return None
    return _branch(np.concatenate([-theta, theta[paired]])), p, q, paired


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
    the epsilons of quasi_spectrum without the eigenvectors.  A core's
    stored fold (FloquetOperator.folds, which exists exactly when
    delta = 0) is solved at half size; a core without one, or whose fold
    the guard rejects, takes sector_eigenpairs.  Raises NumericalError
    like quasi_spectrum, from the eigenpair residual.
    """
    eps = []
    for k, core in enumerate(operator.cores):
        solved = None if operator.folds is None else _solve_fold(*operator.folds[k])
        eps.append(sector_eigenpairs(core)[0] if solved is None else solved[0])
    return _both_sectors(np.sort(eps))[0]


def quasi_spectrum(operator: FloquetOperator) -> QuasiSpectrum:
    """Diagonalize each parity sector, sorted within the sector.

    A core with a fold (delta = 0) takes its eigenvectors from the fold's
    half-size solve, the one that sector_eigenphases runs; a core without
    one, or whose fold the guard rejects, takes sector_eigenpairs.
    Raises NumericalError when an eigenpair residual
    ||M v - exp(-i eps) v|| of a sector core M exceeds EIGEN_RESIDUAL_TOL
    even after the eig fallback; a core that is not unitary fails there.
    """
    epsilons, vectors = [], []
    for k, core in enumerate(operator.cores):
        solved = None if operator.folds is None else _solve_fold(*operator.folds[k])
        if solved is None:
            eps, vecs = sector_eigenpairs(core)
        else:
            # the core is the fold's [[A, iK], [iK^T, B]]: (p, q) / sqrt(2), then
            # the pairs' (p, -q) / sqrt(2), are its real eigenvectors as they are
            eps, p, q, paired = solved
            vecs = np.sqrt(0.5) * np.block([[p, p[:, paired]], [q, -q[:, paired]]])
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
    base = np.pi * (validate_two_j(two_j) + 1)
    return base / 4.0, base / 2.0, base


def stage_classify(kappa_x: float, kappa_y: float, two_j: int) -> str:
    """Stage label of STAGES from kappa_x*kappa_y; intervals are closed on the left."""
    if kappa_x < 0 or kappa_y < 0:
        raise ValueError("kick strengths must be non-negative")
    return STAGES[bisect.bisect_right(stage_borders(two_j), kappa_x * kappa_y)]


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
    mask of those within the bound-state window tol (radians, positive
    and finite)."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
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
