"""Floquet unitaries for the twice-kicked coupled top.

One driving period applies an x kick exp(-i (kx/j) Jx sigma_x) followed
by a y kick exp(-i (ky/j) Jy sigma_y).  Two symmetrized orderings (half
kick, full kick, half kick) share the spectrum of the plain product and
make the chiral relation sigma_z U sigma_z = U^-1 hold as a matrix
identity.  A chirality-breaking term delta * sigma_z can be added inside
both kick exponents (plain ordering only).  It breaks the chiral,
second time-reversal and particle-hole relations and keeps parity.  Both
kick generators stay real symmetric, so the plain product U = Y X is
similar, through Y^(1/2), to the complex-symmetric Y^(1/2) X Y^(1/2):
complex conjugation K survives up to similarity for every delta, and the
level statistics stay COE rather than CUE.

Parity splits the coupled space into two sectors of dimension d = 2j+1
(symmetry.sector_indices).  In sector order (ascending m) every kick
generator is real:

* Jx sigma_x / j is the tridiagonal T = Jx / j;
* Jy sigma_y / j is S T S, with S a diagonal +-1 gauge of period 4
  (++-- or +--+, set by the sector and the parity of 2j);
* sigma_z is a diagonal +-1, Z.

One cached eigensystem T = V diag(lam) V^T per two_j (spin.jx_eigensystem)
therefore serves both axes and both sectors, and a delta kick is the
tridiagonal eigenproblem of kappa T + delta Z, of size d.

Each sector is stored as a complex-symmetric unitary core, the
symmetrized ordering O^(1/2) I O^(1/2) of an outer kick O and an inner
kick I written in the eigenbasis of O, plus the unitary frame that maps
it to the sector block: block = frame @ core @ frame^dag.  With
delta = 0 the core is D C D_i C^T D, with diagonal phases D, D_i and the
cached real orthogonal C = V^T S V.  The frame is the real eigenbasis
of O for sym1 (O = Y) and sym2 (O = X); for plain it also carries the
half y kick, because Y X = Y^(1/2) (Y^(1/2) X Y^(1/2)) Y^(-1/2).  The
dense coupled-space matrix (FloquetOperator.u) and kick_unitary are
built on demand, for the tests' oracle and for symcheck.

Unitarity is certified where it originates.  Every core is
D C D_i C^T D with unimodular diagonals D, D_i, so it is unitary exactly
when the real overlap C of the two kick eigenbases is orthogonal.  C is
checked at UNITARITY_TOL once per two_j, before the cache entry is
stored, and on the delta path once per build (the overlap of the two
tridiagonal eigenbases).  The complex cores are not checked again: the
eigenpair residual of spectral.sector_eigenpairs certifies every solved
core.

With delta = 0 every core also carries the chiral symmetry of the
symmetrized frames: sigma_z anticommutes with T, so J = V^T Z V is a
signed reversal of the eigenbasis and J conj(core) J = core.  Its signs
are certified once per two_j next to C, and FloquetOperator.reversals
hands them to the half-size eigenphase solver in spectral.  Jz, the
diagonal m of each sector, is tridiagonal in the eigenbasis of T; that
band is certified once per two_j (_jz_band), and
FloquetOperator.jz_band gives frame^dag Jz frame from it, for the real
evolution of dynamics.stroboscopic_series.

For even 2j sector -1 is the conjugate mirror of sector +1, for every
delta and ordering: block[-1] = G J conj(block[+1]) J G, with J the basis
reversal and G = diag((-1)^k).  G T G = -T for the tridiagonal T, and
J T J = T because the ladder elements are a palindrome.  In sector order
Z[-1] = -J Z[+1] J and S[-1] = +-J S[+1] J, so G J (kappa T + delta Z[+1]) J G
is minus the generator of sector -1, and each kick of sector -1 is
G J conj(kick) J G of sector +1.  The three exact +-1 facts are checked
once per two_j (_Sectors.alternation); they hold at every even 2j and
fail at odd 2j, which solves both sectors.  At even 2j floquet_operator
builds sector +1 only and stores core[1] = conj(core[0]),
frame[1] = G J conj(frame[0]), so eps[-1] = -eps[+1] and the sector -1
eigenvectors are G J conj(v[+1]).

Consumers work from the distinct cores (FloquetOperator.cores):
distinct_blocks assembles the sector +1 block alone at even 2j,
sector_blocks derives the sector -1 block from it, and to_sectors maps
solved eigenvectors once and mirrors them (FloquetOperator.mirror).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError
from .spin import (SIGMA_Z, coupling_generator, dim_top, jx_eigensystem, ladder_elements,
                   m_values, validate_two_j)
from .symmetry import sector_indices

VARIANTS = ("plain", "sym1", "sym2")

UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class KickParams:
    """Kick strengths, chirality-breaking strength, and operator ordering."""

    kappa_x: float
    kappa_y: float
    delta: float = 0.0
    variant: str = "plain"

    def __post_init__(self):
        for name in ("kappa_x", "kappa_y", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.kappa_x < 0 or self.kappa_y < 0:
            raise ValueError("kick strengths must be non-negative")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.delta > 0 and self.variant != "plain":
            raise ValueError("symmetrized variants are defined only for delta = 0")


@dataclass
class FloquetOperator:
    """One-period unitary, stored per parity sector.

    Sector k, in symmetry.sector_indices order (+1 first), has the block
    frame[k] @ core[k] @ frame[k]^dag, where core[k] is a complex-symmetric
    unitary and frame[k] is unitary; both stacks are complex with shape
    (2, d, d), also where the frame is real.  At even 2j sector -1 is the
    conjugate mirror of sector +1: core[1] is conj(core[0]) and frame[1]
    is G J conj(frame[0]), G = diag((-1)^k) and J the reversal.  `cores`
    holds the distinct cores that checks and solvers use.
    """

    core: np.ndarray
    frame: np.ndarray
    params: KickParams
    two_j: int

    @property
    def dim(self) -> int:
        return 2 * self.core.shape[-1]

    @property
    def cores(self) -> np.ndarray:
        """The distinct cores: core[:1] at even 2j, else core."""
        return self.core if _sectors(self.two_j).alternation is None else self.core[:1]

    def mirror(self, rows: np.ndarray) -> np.ndarray:
        """Sector-coordinate rows (axis 0) of one sector mapped to the
        other at even 2j: G J conj(rows).  The map is its own inverse."""
        return _conjugate_mirror(rows)

    @property
    def reversals(self) -> np.ndarray | None:
        """For delta = 0, the signs of the chiral reversal J of each of
        `cores`, J e_k = signs_k e_{d-1-k} on the core's basis, with
        J core J = conj(core); None for delta > 0, which breaks it, and
        where the cached eigensystem does not certify it."""
        reversal = _sectors(self.two_j).reversal
        if self.params.delta != 0.0 or reversal is None:
            return None
        return reversal[:len(self.cores)]

    @property
    def jz_band(self) -> tuple[np.ndarray, np.ndarray] | None:
        """For delta = 0, frame^dag Jz frame of each of `cores` (Jz on the
        sector's m ladder) as its real diagonal and complex upper
        off-diagonal, one band for every core; None for delta > 0, whose
        frames are not eigenbases of Jx, and where the cached
        eigensystem does not certify it.  The plain frames carry the half
        y kick h, so their off-diagonal is conj(h_k) h_{k+1} times that
        of sym1 and sym2."""
        band = _jz_band(self.two_j)
        if self.params.delta != 0.0 or band is None:
            return None
        diag, off = band
        if self.params.variant == "plain":
            half = np.exp(-0.5j * self.params.kappa_y * _sectors(self.two_j).lam)
            return diag, off * half[:-1].conj() * half[1:]
        return diag, off.astype(complex)

    def distinct_blocks(self) -> np.ndarray:
        """The sector blocks of `cores`: (1, d, d) at even 2j, else (2, d, d)."""
        cores = self.cores
        frame = self.frame[:len(cores)]
        return frame @ cores @ frame.conj().swapaxes(-1, -2)

    def sector_blocks(self) -> np.ndarray:
        """The (2, d, d) stack of sector blocks of the one-period unitary.

        Only the blocks of `cores` are assembled: at even 2j the -1 block
        is G J conj(block) J G of the +1 block.
        """
        blocks = self.distinct_blocks()
        if len(blocks) == 2:
            return blocks
        plus = blocks[0]
        g = _sectors(self.two_j).alternation
        return np.stack([plus, np.outer(g, g) * plus[::-1, ::-1].conj()])

    def to_sectors(self, columns: np.ndarray) -> np.ndarray:
        """Columns on the bases of `cores`, a (len(cores), d, n) stack,
        mapped by the frames to (2, d, n) sector coordinates.

        The sym1 and sym2 frames are real (stored complex), so real columns
        take a real product.  At even 2j column k of sector -1 is the
        mirror of column k of sector +1, the eigenvector of level -eps.
        """
        frames = self.frame[:len(columns)]
        if self.params.variant != "plain":
            frames = np.ascontiguousarray(frames.real)
        out = np.empty((2,) + columns.shape[1:], dtype=complex)
        out[:len(columns)] = frames @ columns
        if len(columns) == 1:
            _conjugate_mirror(out[0], out=out[1])
        return out

    @property
    def u(self) -> np.ndarray:
        """The dense D x D unitary on the coupled space, assembled on each access."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for idx, block in zip(sector_indices(self.two_j), self.sector_blocks()):
            out[np.ix_(idx, idx)] = block
        return out


@dataclass(frozen=True)
class _Sectors:
    """Per-two_j data shared by every operator: T's off-diagonal and
    eigensystem, and per sector the sigma_z diagonal, the y gauge S,
    C = V^T S V and the signs of the chiral reversal V^T Z V (None where
    V^T Z V is not a signed reversal); and G = (-1)^k where sector -1 is
    the conjugate mirror of sector +1 (None elsewhere).  Arrays are
    read-only."""

    offdiag: np.ndarray      # (d-1,)
    lam: np.ndarray          # (d,)
    vecs: np.ndarray         # (d, d)
    z: np.ndarray            # (2, d)
    gauge: np.ndarray        # (2, d)
    overlap: np.ndarray      # (2, d, d)
    reversal: np.ndarray | None  # (2, d)
    alternation: np.ndarray | None  # (d,)


@functools.cache
def _sectors(two_j: int) -> _Sectors:
    j = two_j / 2.0
    evals, vecs = jx_eigensystem(two_j)
    # flat index 2(j + m) + s: within a sector the spin s alternates with m
    spin = np.array([idx % 2 for idx in sector_indices(two_j)])
    z = 1.0 - 2.0 * spin
    # <m+1, 1-s| Jy sigma_y |m, s> = +-<m+1| Jx |m>, the sign set by s
    gauge = np.concatenate([np.ones((2, 1)), np.cumprod(z[:, :-1], axis=1)], axis=1)
    overlap = (vecs.T * gauge[:, None, :]) @ vecs
    _check_orthogonal(overlap)
    offdiag = ladder_elements(two_j) / (2.0 * j)
    sectors = _Sectors(offdiag=offdiag, lam=evals / j, vecs=vecs, z=z, gauge=gauge,
                       overlap=overlap, reversal=_chiral_reversal(vecs, z),
                       alternation=_alternation(offdiag, z, gauge))
    for value in (sectors.offdiag, sectors.lam, sectors.z, sectors.gauge, sectors.overlap,
                  sectors.reversal, sectors.alternation):
        if value is not None:
            value.setflags(write=False)
    return sectors


@functools.cache
def _jz_band(two_j: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The diagonal and off-diagonal of V^T Jz V, V the eigenbasis of
    T = Jx / j, or None unless the band is all of it: ||Jz V - V band||_F,
    the norm of what lies off the band, is checked at UNITARITY_TOL * j.
    The quarter turn about y maps Jz to Jx, so in the eigenbasis of Jx,
    Jz couples neighbouring levels only.  Arrays are read-only."""
    vecs = _sectors(two_j).vecs
    jz_vecs = m_values(two_j)[:, None] * vecs
    diag = np.einsum("ij,ij->j", vecs, jz_vecs)
    off = np.einsum("ij,ij->j", vecs[:, :-1], jz_vecs[:, 1:])
    rest = jz_vecs - vecs * diag
    rest[:, 1:] -= vecs[:, :-1] * off
    rest[:, :-1] -= vecs[:, 1:] * off
    if not np.linalg.norm(rest) <= UNITARITY_TOL * two_j / 2.0:
        return None
    diag.setflags(write=False)
    off.setflags(write=False)
    return diag, off


def _chiral_reversal(vecs: np.ndarray, z: np.ndarray) -> np.ndarray | None:
    """The signs of J = V^T Z V = sum_k signs_k e_k e_{d-1-k}^T for each
    sector, or None unless that holds at UNITARITY_TOL: Z anticommutes
    with T, so J maps the eigenvector of lam_k to that of
    -lam_k = lam_{d-1-k}.  Sector -1 has Z = -Z of sector +1 (each m
    carries the other spin), so one product serves both."""
    chiral = vecs.T @ (z[0][:, None] * vecs)
    signs = np.sign(chiral[:, ::-1].diagonal())
    if not np.array_equal(z[1], -z[0]) or not (
            np.abs(chiral - np.diag(signs)[:, ::-1]).max() <= UNITARITY_TOL):
        return None
    return np.stack([signs, -signs])


def _alternation(offdiag: np.ndarray, z: np.ndarray, gauge: np.ndarray) -> np.ndarray | None:
    """G = (-1)^k when sector -1 is the conjugate mirror of sector +1 for
    every kick, else None.  Three exact +-1 facts make it so, with J the
    basis reversal: the off-diagonal of T is a palindrome (J T J = T,
    and G T G = -T), Z[-1] = -J Z[+1] J, and S[-1] = +-J S[+1] J."""
    flipped = gauge[0][::-1]
    if (np.array_equal(offdiag, offdiag[::-1]) and np.array_equal(z[1], -z[0][::-1])
            and (np.array_equal(gauge[1], flipped) or np.array_equal(gauge[1], -flipped))):
        return 1.0 - 2.0 * (np.arange(z.shape[1]) % 2)
    return None


def _conjugate_mirror(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """G J conj(rows) for a (d, ...) array, G = diag((-1)^k) as in
    _Sectors.alternation and J the reversal: the rows reversed and
    conjugated, the odd ones negated."""
    out = np.conjugate(rows[::-1], out=out)
    out[1::2] *= -1.0
    return out


def _sector_core(sectors: _Sectors, k: int, params: KickParams, core: np.ndarray,
                 frame: np.ndarray) -> None:
    """Write core and frame of sector k into the complex (d, d) arrays
    core and frame: outer kick exp(-i outer_lam) in the real basis
    outer_vecs, inner kick exp(-i inner_lam), C their overlap."""
    gauge = sectors.gauge[k]
    if params.delta == 0.0:
        overlap = sectors.overlap[k]
        if params.variant == "sym2":
            outer_lam, inner_lam = params.kappa_x * sectors.lam, params.kappa_y * sectors.lam
            outer_vecs = sectors.vecs
        else:
            outer_lam, inner_lam = params.kappa_y * sectors.lam, params.kappa_x * sectors.lam
            outer_vecs = gauge[:, None] * sectors.vecs
    else:
        # y kick in the gauge S: S (kappa_y T + delta Z) S is the y generator
        diag = params.delta * sectors.z[k]
        outer_lam, outer_vecs = scipy.linalg.eigh_tridiagonal(
            diag, params.kappa_y * sectors.offdiag)
        inner_lam, inner_vecs = scipy.linalg.eigh_tridiagonal(
            diag, params.kappa_x * sectors.offdiag)
        outer_vecs = gauge[:, None] * outer_vecs
        overlap = outer_vecs.T @ inner_vecs
        _check_orthogonal(overlap)
    half = np.exp(-0.5j * outer_lam)
    # C exp(-i inner_lam) C^T as two real products
    np.subtract((overlap * np.cos(inner_lam)) @ overlap.T,
                1j * ((overlap * np.sin(inner_lam)) @ overlap.T), out=core)
    core *= half[:, None] * half[None, :]
    if params.variant == "plain":
        np.multiply(outer_vecs, half, out=frame)
    else:
        frame[...] = outer_vecs


def kick_unitary(axis: str, kappa: float, two_j: int, delta: float = 0.0) -> np.ndarray:
    """exp(-i [ (kappa/j) J_a sigma_a + delta sigma_z ]) on the coupled space.

    A dense, uncached diagonalization of the D x D generator: the oracle
    that tests hold the sector-reduced operator against.
    """
    if kappa < 0 or delta < 0:
        raise ValueError("kappa and delta must be non-negative")
    gen = kappa * coupling_generator(axis, two_j)
    gen += delta * np.kron(np.eye(dim_top(two_j)), SIGMA_Z)
    evals, evecs = np.linalg.eigh(gen)
    return (evecs * np.exp(-1j * evals)) @ evecs.conj().T


def unitarity_defect(u: np.ndarray) -> float:
    """Max-element deviation of U^dag U from the identity, over a stack
    (..., n, n) of matrices at once."""
    return float(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])).max())


def _check_orthogonal(overlap: np.ndarray) -> None:
    """Raise NumericalError unless the real overlap C of two kick
    eigenbases (a stack (..., d, d) at once) is orthogonal at
    UNITARITY_TOL: the cores built from it are then unitary."""
    defect = unitarity_defect(overlap)
    if defect > UNITARITY_TOL:
        raise NumericalError(f"kick eigenbasis overlap has orthogonality defect {defect:.2e}")


def floquet_operator(params: KickParams, two_j: int) -> FloquetOperator:
    """Build the one-period unitary for the given kick parameters.

    Orderings: plain applies the x kick first, then the y kick;
    sym1 wraps the full x kick in half y kicks; sym2 wraps the full
    y kick in half x kicks.  All three share one spectrum.
    """
    two_j = validate_two_j(two_j)
    sectors = _sectors(two_j)
    # each sector is written into the stacks in place, so a build never holds
    # a second copy of its operator
    shape = (2, two_j + 1, two_j + 1)
    core, frame = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    if sectors.alternation is None:
        for k in range(2):
            _sector_core(sectors, k, params, core[k], frame[k])
    else:
        # sector -1 is the conjugate mirror of sector +1
        _sector_core(sectors, 0, params, core[0], frame[0])
        np.conjugate(core[0], out=core[1])
        _conjugate_mirror(frame[0], out=frame[1])
    return FloquetOperator(core=core, frame=frame, params=params, two_j=two_j)
