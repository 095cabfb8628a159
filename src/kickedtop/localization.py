"""Localization measures: IPR, scaled Renyi entropy, Husimi peaks.

The probe state for the entropy scans is a spin coherent state of the
top tensored with (|up> + |down>)/sqrt(2); its inverse participation
ratio against the Floquet eigenbasis is rescaled to

    S2 = -ln(IPR) / ln(D),   D = 2(2j+1),

so S2 = 0 for a probe equal to an eigenstate and S2 = 1 for a probe
spread evenly over the basis.  Sphere averages use Gauss-Legendre nodes
in cos(theta) times a uniform azimuthal grid.

The sphere average reads its grid from the probes (probe_columns), so
rows and quadrature weights always belong to the same nodes.  The real
coherent tops of all z nodes come from one product (spin.coherent_tops),
for the probes and the Husimi scans alike.  On the uniform azimuths
phi_l = 2 pi l / n_phi a probe is its top times exp(-i m phi_l), so its
overlaps with an eigenvector v are an n_phi-point DFT over the azimuths
of conj(v) times the top, aliased mod n_phi in the row index j + m.

At even 2j the sector -1 eigenvectors of quasi_spectrum are the
conjugate mirror G J conj(v) of those of sector +1
(QuasiSpectrum.mirrored), and G J conj maps the coherent top state at
(theta, phi) to a unit phase times the one at (pi - theta, phi + pi).
A grid with an even number of azimuths is closed under that map
(ProbeColumns.mirror), so sector -1's overlaps at a node are sector +1's
at the mirrored node, and the sphere average overlaps sector +1 only.
Odd 2j, an odd number of azimuths and a spectrum without the flag
overlap both sectors.
"""

import math
from dataclasses import dataclass

import numpy as np

from .spectral import QuasiSpectrum
from .spin import coherent_tops, m_values

COMPLETENESS_TOL = 1e-10

# Bytes of sphere_averaged_s2's product per block of z nodes.  The blocks
# keep peak memory down: whole-grid temporaries (3.3 MB at two_j 200,
# 32 x 32) raise the peak RSS of a 12-point entropy sweep from 41.0 to
# about 45.5 MB.  With the CLI's padded heap neither way takes page
# faults between points.
_BLOCK_BYTES = 1 << 18


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


def _coherent_columns(two_j: int, tops: np.ndarray, phi_nodes: np.ndarray) -> np.ndarray:
    """The coherent states of the tops (spin.coherent_tops) at every
    azimuth of phi_nodes, as (2j+1, n_z * n_phi) columns ordered z-major."""
    phases = np.exp(-1j * np.outer(m_values(two_j), phi_nodes))
    return (phases[:, None, :] * tops[:, :, None]).reshape(len(phases), -1)


@dataclass(frozen=True)
class ProbeColumns:
    """The probe states of one parity sector at the nodes of `grid`:
    rows[k, i] is row k = j + m of the coherent top at z node i over
    sqrt(2), zero-padded to a multiple of n_phi, and `columns` the states,
    theta-major.  For an even n_phi, mirror[k] is the node (pi - theta,
    phi + pi) of node k: G J conj(columns[:, k]) is a unit phase times
    columns[:, mirror[k]].  None for an odd n_phi, whose grid is not
    closed under that map."""

    two_j: int
    grid: SphereGrid
    rows: np.ndarray
    mirror: np.ndarray | None = None

    @property
    def columns(self) -> np.ndarray:
        return _coherent_columns(self.two_j, self.rows[:self.two_j + 1], self.grid.phi_nodes)


def probe_columns(two_j: int, grid: SphereGrid) -> ProbeColumns:
    """The probe rows of every node of grid, with the grid they belong to.

    Each sector holds one state of each m, so the coherent top state times
    (|up> + |down>)/sqrt(2) has the same rows, top/sqrt(2) in ascending m,
    in both sectors.  The rows depend only on two_j and the grid, so a
    sweep builds them once and passes them to every sphere_averaged_s2
    call.
    """
    n_theta, n_phi = grid.shape
    rows = np.zeros((-(-(two_j + 1) // n_phi) * n_phi, n_theta))
    rows[:two_j + 1] = coherent_tops(two_j, np.arccos(grid.z_nodes)) / math.sqrt(2.0)
    mirror = None
    if n_phi % 2 == 0:
        # node (i, l) -> (n_theta-1-i, l + n_phi/2): the Gauss-Legendre nodes
        # are symmetric about z = 0 and the azimuths uniform
        nodes = np.arange(n_theta * n_phi).reshape(n_theta, n_phi)
        mirror = np.roll(nodes[::-1], n_phi // 2, axis=1).ravel()
    return ProbeColumns(two_j=two_j, grid=grid, rows=rows, mirror=mirror)


def sphere_averaged_s2(spectrum: QuasiSpectrum,
                       probes: ProbeColumns | None = None) -> LocalizationResult:
    """Renyi entropy of the coherent probe averaged over the Bloch sphere.

    probes, by default probe_columns(two_j, sphere_grid()), sets the
    quadrature grid.  One batched product of the probe rows with the
    eigenvectors, n_phi products of (n_theta, q) by (q, n) over the rows of
    one residue mod n_phi, q = ceil((2j+1) / n_phi), and one DFT over the
    residues give every overlap; real eigenvectors need only l <= n_phi/2.
    When sector -1 is the mirror of sector +1 (spectrum.mirrored) and the
    grid has a mirror, sector -1's sums over its eigenvectors at node k are
    sector +1's at node mirror[k].  Probes built for another two_j are
    rejected.  Kick strengths of zero are rejected: the eigenbasis of a
    degenerate operator is not unique, so the IPR would be gauge-dependent.
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
    n_theta, n_phi = probes.grid.shape
    mirrored = spectrum.mirrored and probes.mirror is not None
    sectors = spectrum.vectors[:1] if mirrored else spectrum.vectors
    real = not sectors.imag.any()
    d = sectors.shape[1]
    n = len(sectors) * d
    # the sectors' eigenvectors side by side, conjugated, row k at [k % n_phi, k // n_phi]
    padded = np.zeros((len(probes.rows), len(sectors), d), dtype=float if real else complex)
    padded[:d] = (sectors.real if real else sectors.conj()).transpose(1, 0, 2)
    by_residue = padded.reshape(-1, n_phi, n).transpose(1, 0, 2)
    tops = probes.rows.reshape(-1, n_phi, n_theta).transpose(1, 2, 0)
    ls = np.arange(n_phi)
    rows = np.minimum(ls, n_phi - ls) if real else ls   # real: l, n_phi - l conjugate
    step = max(1, _BLOCK_BYTES // (n_phi * n * padded.itemsize))
    sums = np.empty((2, rows.max() + 1, n_theta))
    for i in range(0, n_theta, step):
        folded = tops[:, i:i + step] @ by_residue
        amps = np.fft.rfft(folded, axis=0) if real else np.fft.fft(folded, axis=0)
        powers = amps.real ** 2 + amps.imag ** 2
        sums[0, :, i:i + step] = powers.sum(axis=2)
        sums[1, :, i:i + step] = np.einsum("lij,lij->li", powers, powers)
    totals, ipr_cols = sums[:, rows].transpose(0, 2, 1).reshape(2, -1)
    if mirrored:
        totals += totals[probes.mirror]
        ipr_cols += ipr_cols[probes.mirror]
    defect = np.abs(totals - 1.0).max()
    if defect > COMPLETENESS_TOL:
        raise ValueError(f"overlap completeness defect {defect:.2e}")
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
    cols = _coherent_columns(two_j, coherent_tops(two_j, np.arccos(z_list)), phi_list).conj().T
    values = np.abs(cols @ state[0::2]) ** 2 + np.abs(cols @ state[1::2]) ** 2
    return values.reshape(z_list.size, phi_list.size)


def husimi_peak(state: np.ndarray, two_j: int,
                grid: SphereGrid | None = None) -> tuple[float, float, float]:
    """Location (z, phi) and value of the state's coherent-overlap maximum.

    A coarse pass over the grid is followed by one local refinement at
    half the coarse step around the argmax, so the position is accurate
    to about half a refined step.  The coarse z step is the widest gap
    between neighbouring nodes and the poles z = +-1, so a grid of one
    z node refines over all of [-1, 1].
    """
    if grid is None:
        grid = sphere_grid()
    vals = _husimi_values(state, two_j, grid.z_nodes, grid.phi_nodes)
    iz, ip = np.unravel_index(np.argmax(vals), vals.shape)

    dz = float(np.diff(np.concatenate([[-1.0], np.sort(grid.z_nodes), [1.0]])).max())
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
