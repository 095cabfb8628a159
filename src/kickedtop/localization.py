"""Localization measures: IPR, scaled Renyi entropy, Husimi peaks.

The probe state for the entropy scans is a spin coherent state of the
top tensored with (|up> + |down>)/sqrt(2); its inverse participation
ratio against the Floquet eigenbasis is rescaled to

    S2 = -ln(IPR) / ln(D),   D = 2(2j+1),

so S2 = 0 for a probe equal to an eigenstate and S2 = 1 for a probe
spread evenly over the basis.  Sphere averages use Gauss-Legendre nodes
in cos(theta) times a uniform azimuthal grid.

The sphere average reads its grid from the probes (probe_columns), so
columns and quadrature weights always belong to the same nodes.  One
function makes the coherent top states over z x phi nodes for both the
probe columns and the Husimi scans.
"""

import math
from dataclasses import dataclass

import numpy as np

from .spectral import QuasiSpectrum
from .spin import coherent_state, m_values

COMPLETENESS_TOL = 1e-10


@dataclass
class SphereGrid:
    """Quadrature nodes and weights for averaging over the unit sphere."""

    z_nodes: np.ndarray       # (n_theta,) Gauss-Legendre nodes in cos(theta)
    phi_nodes: np.ndarray     # (n_phi,) uniform azimuths
    weights: np.ndarray       # (n_theta, n_phi), sums to 1

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape


def sphere_grid(n_theta: int = 32, n_phi: int = 32) -> SphereGrid:
    if n_theta < 1 or n_phi < 1:
        raise ValueError("grid sizes must be positive")
    z_nodes, gl_weights = np.polynomial.legendre.leggauss(n_theta)
    phi_nodes = 2.0 * np.pi * np.arange(n_phi) / n_phi
    weights = np.repeat((gl_weights / 2.0)[:, None], n_phi, axis=1) / n_phi
    return SphereGrid(z_nodes=z_nodes, phi_nodes=phi_nodes, weights=weights)


def ipr(vectors: np.ndarray, probe: np.ndarray) -> float:
    """Sum of |<e_n|probe>|^4 over an orthonormal eigenbasis.

    Checks completeness (the squared overlaps must sum to 1) on every
    call, which catches both dimension mismatches and a non-orthonormal
    basis.
    """
    if vectors.shape[0] != probe.size:
        raise ValueError("eigenvector matrix does not match the probe dimension")
    probs = np.abs(vectors.conj().T @ probe) ** 2
    total = probs.sum()
    if abs(total - 1.0) > COMPLETENESS_TOL:
        raise ValueError(f"overlap completeness defect {abs(total - 1.0):.2e}")
    return float((probs ** 2).sum())


def renyi_entropy(ipr_value: float, dim: int) -> float:
    """Scaled second Renyi entropy -ln(IPR)/ln(dim), in [0, 1]."""
    if not 0.0 < ipr_value <= 1.0 + 1e-12:
        raise ValueError(f"IPR must lie in (0, 1], got {ipr_value!r}")
    return -math.log(min(ipr_value, 1.0)) / math.log(dim)


def coe_baseline(dim: int) -> float:
    """Random-matrix baseline ln((D+2)/3)/ln(D) for the sphere-averaged entropy."""
    return math.log((dim + 2) / 3.0) / math.log(dim)


@dataclass
class LocalizationResult:
    s2_nodes: np.ndarray      # (n_theta, n_phi)
    s2_mean: float
    baseline: float


def _coherent_columns(two_j: int, z_nodes: np.ndarray, phi_nodes: np.ndarray) -> np.ndarray:
    """Coherent top states |arccos z, phi> at every node of z_nodes x
    phi_nodes, as (2j+1, n_z * n_phi) columns ordered z-major."""
    m = m_values(two_j)
    tops = np.stack([coherent_state(two_j, math.acos(float(z)), 0.0) for z in z_nodes], axis=1)
    phases = np.exp(-1j * np.outer(m, phi_nodes))
    return (phases[:, None, :] * tops[:, :, None]).reshape(m.size, -1)


@dataclass(frozen=True)
class ProbeColumns:
    """The rows of all probe states in one parity sector, as (2j+1, n)
    columns ordered theta-major over the nodes of `grid`."""

    two_j: int
    grid: SphereGrid
    columns: np.ndarray


def probe_columns(two_j: int, grid: SphereGrid) -> ProbeColumns:
    """The probe rows of every node of grid, with the grid they belong to.

    Each sector holds one state of each m, so the coherent top state times
    (|up> + |down>)/sqrt(2) has the same rows, top/sqrt(2) in ascending m,
    in both sectors.  The columns depend only on two_j and the grid, so a
    sweep builds them once and passes them to every sphere_averaged_s2
    call.
    """
    columns = _coherent_columns(two_j, grid.z_nodes, grid.phi_nodes)
    columns /= math.sqrt(2.0)
    return ProbeColumns(two_j=two_j, grid=grid, columns=columns)


def sphere_averaged_s2(spectrum: QuasiSpectrum,
                       probes: ProbeColumns | None = None) -> LocalizationResult:
    """Renyi entropy of the coherent probe averaged over the Bloch sphere.

    probes, by default probe_columns(two_j, sphere_grid()), sets the
    quadrature grid; each sector's eigenvectors are overlapped with its
    columns.  Probes built for another two_j are rejected.
    Kick strengths of zero are rejected: the eigenbasis of a degenerate
    operator is not unique, so the IPR would be gauge-dependent.
    """
    params = spectrum.params
    if params.kappa_x == 0.0 or params.kappa_y == 0.0:
        raise ValueError("zero kick strength leaves the eigenbasis degenerate")
    if probes is None:
        probes = probe_columns(spectrum.two_j, sphere_grid())
    elif probes.two_j != spectrum.two_j:
        raise ValueError(f"probe columns for two_j = {probes.two_j} do not match "
                         f"a spectrum of two_j = {spectrum.two_j}")
    dim = spectrum.dim
    probs = np.concatenate([np.abs(vecs.conj().T @ probes.columns) ** 2
                            for vecs in spectrum.vectors])
    defect = np.abs(probs.sum(axis=0) - 1.0).max()
    if defect > COMPLETENESS_TOL:
        raise ValueError(f"overlap completeness defect {defect:.2e}")
    ipr_cols = (probs ** 2).sum(axis=0)
    s2 = -np.log(ipr_cols) / math.log(dim)
    s2_nodes = s2.reshape(probes.grid.shape)
    return LocalizationResult(
        s2_nodes=s2_nodes,
        s2_mean=float((probes.grid.weights * s2_nodes).sum()),
        baseline=coe_baseline(dim),
    )


def _husimi_values(state: np.ndarray, two_j: int,
                   z_list: np.ndarray, phi_list: np.ndarray) -> np.ndarray:
    """Spin-summed coherent-state overlap on the outer grid z_list x phi_list."""
    cols = _coherent_columns(two_j, z_list, phi_list).conj().T
    values = np.abs(cols @ state[0::2]) ** 2 + np.abs(cols @ state[1::2]) ** 2
    return values.reshape(z_list.size, phi_list.size)


def husimi_peak(state: np.ndarray, two_j: int,
                grid: SphereGrid | None = None) -> tuple[float, float, float]:
    """Location (z, phi) and value of the state's coherent-overlap maximum.

    A coarse pass over the grid is followed by one local refinement at
    half the coarse step around the argmax, so the position is accurate
    to about half a refined step.
    """
    if grid is None:
        grid = sphere_grid()
    vals = _husimi_values(state, two_j, grid.z_nodes, grid.phi_nodes)
    iz, ip = np.unravel_index(np.argmax(vals), vals.shape)

    dz = float(np.diff(np.sort(grid.z_nodes)).max())
    dphi = 2.0 * np.pi / grid.phi_nodes.size
    z0, phi0 = float(grid.z_nodes[iz]), float(grid.phi_nodes[ip])
    z_fine = np.clip(z0 + np.linspace(-dz, dz, 9), -1.0, 1.0)
    phi_fine = phi0 + np.linspace(-dphi, dphi, 9)
    fine = _husimi_values(state, two_j, z_fine, phi_fine)
    kz, kp = np.unravel_index(np.argmax(fine), fine.shape)
    phi_best = math.remainder(float(phi_fine[kp]), 2.0 * math.pi)
    return float(z_fine[kz]), phi_best, float(fine[kz, kp])


def angular_distance(z1: float, phi1: float, z2: float, phi2: float) -> float:
    """Central angle between two Bloch-sphere points given as (z, phi)."""
    s1 = math.sqrt(max(0.0, 1.0 - z1 * z1))
    s2 = math.sqrt(max(0.0, 1.0 - z2 * z2))
    arg = z1 * z2 + s1 * s2 * math.cos(phi1 - phi2)
    return math.acos(max(-1.0, min(1.0, arg)))
