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
it to the sector block: block = frame @ core @ frame^dag.  Every core is
D C D_i C^T D, with diagonal phases D, D_i and the real orthogonal
overlap C of the two kick eigenbases (with delta = 0 the cached
C = V^T S V).  The frame is the real eigenbasis of O for sym1 (O = Y)
and sym2 (O = X); for plain it also carries the half y kick, because
Y X = Y^(1/2) (Y^(1/2) X Y^(1/2)) Y^(-1/2).  The dense coupled-space
matrix (FloquetOperator.u) and kick_unitary are built on demand, for
the tests' oracle and for symcheck.

Unitarity is certified where it originates: a core is unitary exactly
when C is orthogonal.  C is checked at UNITARITY_TOL once per two_j,
before the cache entry is stored, and on the delta path once per build
(the overlap of the two tridiagonal eigenbases).  The complex cores are
not checked again: the eigenpair residual of the solvers in spectral
certifies every solved core.

With delta = 0 every core also carries the chiral symmetry of the
symmetrized frames: sigma_z anticommutes with T, so J = V^T Z V is a
signed reversal of the eigenbasis and J conj(core) J = core.  Its signs
are certified once per two_j next to C, and FloquetOperator.reversals
hands them to the consumers.  On the fold basis Q of chiral_fold, the
+1 and -1 eigenvectors of J, a core is [[A, iK], [iK^T, B]] with real
blocks of half size.  J commutes with C, so C splits there into C+ and
C-, certified once per two_j (_Sectors.halves), and every diagonal kick
exp(-i theta lam) turns each pair of + and - states by theta lam_k.  A
delta = 0 build therefore forms A, B and K from three half-size real
products, C+ cos C+^T, C- cos C-^T and C+ sin C-^T, and O(d^2) pair
rotations (_fold); writes the complex core from them (_unfold_core); and
keeps them as FloquetOperator.folds, which the eigenphase solver and the
real evolution of dynamics take as they are.  Where the halves are not
certified, the core is built from two full-size real products, the
formula of the delta path, and carries no fold.  Jz, the diagonal m of
each sector, is tridiagonal in the eigenbasis of T; that band is
certified once per two_j (_jz_band), and FloquetOperator.jz_band gives
frame^dag Jz frame from it.

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

Consumers work from the distinct cores (FloquetOperator.cores) and,
where it is stored, their folds (FloquetOperator.folds): distinct_blocks
assembles the sector +1 block alone at even 2j, sector_blocks derives
the sector -1 block from it, and to_sectors maps solved eigenvectors
once and mirrors them (FloquetOperator.mirror).
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
    holds the distinct cores that checks and solvers use.  `folds`, set
    by floquet_operator at delta = 0, holds the chiral fold of each of
    `cores` as chiral_fold returns it, (A, B, K, 0.0): built directly, so
    nothing is dropped.  An operator built from explicit cores has none,
    and its consumers read the fold from each core with chiral_fold.
    """

    core: np.ndarray
    frame: np.ndarray
    params: KickParams
    two_j: int
    folds: list | None = None

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
    V^T Z V is not a signed reversal); G = (-1)^k where sector -1 is the
    conjugate mirror of sector +1 (None elsewhere); and the blocks C+ and
    C- of C on the fold basis of that reversal, for each sector that
    floquet_operator builds (None where the reversal or the split is not
    certified).  Arrays are read-only."""

    offdiag: np.ndarray      # (d-1,)
    lam: np.ndarray          # (d,)
    vecs: np.ndarray         # (d, d)
    z: np.ndarray            # (2, d)
    gauge: np.ndarray        # (2, d)
    overlap: np.ndarray      # (2, d, d)
    reversal: np.ndarray | None  # (2, d)
    alternation: np.ndarray | None  # (d,)
    halves: tuple | None     # per built sector, (C+, C-)


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
    reversal, alternation = _chiral_reversal(vecs, z), _alternation(offdiag, z, gauge)
    # at even 2j only sector +1 is built
    built = 2 if alternation is None else 1
    halves = None if reversal is None else _overlap_halves(overlap[:built], reversal)
    sectors = _Sectors(offdiag=offdiag, lam=evals / j, vecs=vecs, z=z, gauge=gauge,
                       overlap=overlap, reversal=reversal, alternation=alternation,
                       halves=halves)
    for value in (sectors.offdiag, sectors.lam, sectors.z, sectors.gauge, sectors.overlap,
                  sectors.reversal, sectors.alternation,
                  *(c for pair in halves or () for c in pair)):
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


def _overlap_halves(overlap: np.ndarray, reversal: np.ndarray) -> tuple | None:
    """C+ and C- of each overlap C, the blocks of C on the fold basis of
    its sector's reversal J (chiral_fold), or None unless every C commutes
    with J at UNITARITY_TOL (what chiral_fold drops is the part that does
    not).  C = V^T S V and J = V^T Z V commute, as S and Z are diagonal."""
    halves = []
    for c, signs in zip(overlap, reversal):
        plus, minus, _, dropped = chiral_fold(c, signs)
        if not dropped <= UNITARITY_TOL:
            return None
        halves.append((plus, minus))
    return tuple(halves)


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


def _n_plus(signs: np.ndarray) -> int:
    """The number of + states of the fold basis of a reversal: one per
    pair (e_k, e_{d-1-k}), and the middle state of odd d where its sign
    is +."""
    d = len(signs)
    return d // 2 + int(d % 2 == 1 and signs[d // 2] > 0)


def chiral_fold(m: np.ndarray, signs: np.ndarray):
    """The blocks A, B, K of M = [[A, iK], [iK^T, B]] on the basis
    (e_k +- signs_k e_{d-1-k}) / sqrt(2), the middle state e_k of odd d on
    the side of its sign, read from the top rows of M; and an upper bound
    on ||E||_F for the part E = (M - J conj(M) J) / 2 that the blocks
    drop (for complex-symmetric M, the off-block of Re M and the diagonal
    blocks of Im M).  Row and column k of A belong to the + state of k
    and those of B to the - state of k, k ascending from 0, so the
    middle state is the last row of the larger block."""
    d = len(signs)
    half = (d + 1) // 2
    top = m[:half]
    # (M J)[k, l] = M[k, d-1-l] signs[l]
    mirror = top[:, ::-1][:, :half] * signs[:half]
    even, odd = top[:, :half] + mirror, top[:, :half] - mirror
    # (J conj(M) J)[k, l] = signs[k] signs[l] conj(M[d-1-k, d-1-l]); J conj(E) J = -E,
    # so row d-1-k of E has the norm of row k
    rest = np.conj(m[::-1][:half, ::-1])
    rest *= signs
    rest *= signs[:half, None]
    rest -= top
    dropped = np.sqrt(0.5) * np.linalg.norm(rest)
    n_plus = _n_plus(signs)
    # the middle state of odd d enters M + M J twice
    weight = np.ones(half)
    weight[-1] = np.sqrt(0.5) if d % 2 else 1.0
    w_even, w_odd = weight[:n_plus], weight[:d - n_plus]
    a = even.real[:n_plus, :n_plus] * np.outer(w_even, w_even)
    b = odd.real[:d - n_plus, :d - n_plus] * np.outer(w_odd, w_odd)
    k = odd.imag[:n_plus, :d - n_plus] * np.outer(w_even, w_odd)
    return a, b, k, dropped


def _unfold_core(a: np.ndarray, b: np.ndarray, k: np.ndarray, signs: np.ndarray,
                 out: np.ndarray) -> None:
    """Write M = [[A, iK], [iK^T, B]] of chiral_fold, back on the core's
    basis, into the complex (d, d) array out: the inverse of chiral_fold.
    Pair k holds e_k (top) and e_{d-1-k} (bottom); the middle state of odd
    d is the last row of A or of B."""
    d, m = len(signs), len(signs) // 2
    s = signs[:m]
    ap, bp, kp = a[:m, :m], b[:m, :m], k[:m, :m]
    # among the top states of the pairs, and from those to the bottom ones
    top = 0.5 * (ap + bp) + 0.5j * (kp + kp.T)
    cross = (0.5 * (ap - bp) + 0.5j * (kp.T - kp)) * s
    out[:m, :m] = top
    out[::-1, ::-1][:m, :m] = np.outer(s, s) * top.conj()
    out[:m, ::-1][:, :m] = cross
    out[::-1, :m][:m] = cross.T
    if d % 2:
        # the middle state and its couplings to the pairs
        if len(a) > m:
            same, other, sign, middle = a[:m, m], k[m, :m], 1.0, a[m, m]
        else:
            same, other, sign, middle = b[:m, m], k[:m, m], -1.0, b[m, m]
        out[:m, m] = out[m, :m] = np.sqrt(0.5) * (same + 1j * other)
        out[::-1][:m, m] = out[m, ::-1][:m] = sign * s * np.sqrt(0.5) * (same - 1j * other)
        out[m, m] = middle


def fold_states(y: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """x = D^dag Q^T y for core-basis states y (..., d): Q the basis of
    chiral_fold with its + states first, D = 1 on those and i on the -
    states."""
    d, n_plus = len(signs), _n_plus(signs)
    half = d // 2
    top, bottom = y[..., :half], signs[:half] * y[..., ::-1][..., :half]
    x = np.empty_like(y)
    x[..., :half] = np.sqrt(0.5) * (top + bottom)
    x[..., n_plus:n_plus + half] = -1j * np.sqrt(0.5) * (top - bottom)
    if d % 2:
        # the middle state, on the side of its sign
        if n_plus > half:
            x[..., half] = y[..., half]
        else:
            x[..., -1] = -1j * y[..., half]
    return x


def unfold_states(x: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """y = Q D x, the inverse of fold_states."""
    d, n_plus = len(signs), _n_plus(signs)
    half = d // 2
    even, odd = x[..., :half], 1j * x[..., n_plus:n_plus + half]
    y = np.empty_like(x)
    y[..., :half] = np.sqrt(0.5) * (even + odd)
    y[..., ::-1][..., :half] = np.sqrt(0.5) * signs[:half] * (even - odd)
    if d % 2:
        y[..., half] = x[..., half] if n_plus > half else 1j * x[..., -1]
    return y


def _turn(rows: np.ndarray, n: int, cos: np.ndarray, sin: np.ndarray) -> None:
    """Turn each pair of rows (k, n + k), k < len(cos), by
    [[cos_k, sin_k], [-sin_k, cos_k]], in place."""
    m = len(cos)
    top = rows[:m].copy()
    rows[:m] *= cos[:, None]
    rows[:m] += sin[:, None] * rows[n:n + m]
    rows[n:n + m] *= cos[:, None]
    rows[n:n + m] -= sin[:, None] * top


def _fold(halves: tuple, lam: np.ndarray, outer: float, inner: float) -> tuple:
    """The chiral fold (A, B, K, 0.0) of the delta = 0 core
    exp(-i outer lam / 2) C exp(-i inner lam) C^T exp(-i outer lam / 2),
    from the blocks (C+, C-) of C.

    On the basis Q D of chiral_fold, D = 1 on the + states and i on the
    - states, the core is O = [[A, -K], [K^T, B]], C is C+ (+) C-, and a
    kick exp(-i theta lam) is the rotation of each pair (+k, -k) by
    [[cos, sin], [-sin, cos]] of theta lam_k (the middle state of odd d
    has lam = 0).  So O = R (C+ (+) C-) E (C+ (+) C-)^T R, with R the half
    outer and E the inner rotation: three half-size products, then R on
    the rows and on the columns.
    """
    plus, minus = halves
    d, n, m = len(lam), len(plus), len(lam) // 2
    cos, sin = np.cos(inner * lam), np.sin(inner * lam)
    o = np.empty((d, d))
    o[:n, :n] = (plus * cos[:n]) @ plus.T
    o[n:, n:] = (minus * cos[:d - n]) @ minus.T
    o[:n, n:] = (plus[:, :m] * sin[:m]) @ minus[:, :m].T
    o[n:, :n] = -o[:n, n:].T
    half_cos, half_sin = np.cos(0.5 * outer * lam[:m]), np.sin(0.5 * outer * lam[:m])
    _turn(o, n, half_cos, half_sin)
    # O R = (R^T O^T)^T, and R^T turns each pair the other way
    _turn(o.T, n, half_cos, -half_sin)
    return o[:n, :n], o[n:, n:], -o[:n, n:], 0.0


def _sector_core(sectors: _Sectors, k: int, params: KickParams, core: np.ndarray,
                 frame: np.ndarray) -> tuple | None:
    """Write core and frame of sector k into the complex (d, d) arrays
    core and frame: outer kick exp(-i outer_lam) in the real basis
    outer_vecs, inner kick exp(-i inner_lam), C their overlap.  Return the
    core's chiral fold where the core is built from it (delta = 0 with
    certified halves), else None."""
    gauge = sectors.gauge[k]
    fold = None
    if params.delta == 0.0:
        overlap = sectors.overlap[k]
        if params.variant == "sym2":
            outer, inner = params.kappa_x, params.kappa_y
            outer_vecs = sectors.vecs
        else:
            outer, inner = params.kappa_y, params.kappa_x
            outer_vecs = gauge[:, None] * sectors.vecs
        outer_lam, inner_lam = outer * sectors.lam, inner * sectors.lam
        if sectors.halves is not None:
            fold = _fold(sectors.halves[k], sectors.lam, outer, inner)
            _unfold_core(*fold[:3], sectors.reversal[k], core)
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
    if fold is None:
        # C exp(-i inner_lam) C^T as two real products
        np.subtract((overlap * np.cos(inner_lam)) @ overlap.T,
                    1j * ((overlap * np.sin(inner_lam)) @ overlap.T), out=core)
        core *= half[:, None] * half[None, :]
    if params.variant == "plain":
        np.multiply(outer_vecs, half, out=frame)
    else:
        frame[...] = outer_vecs
    return fold


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
    # a second copy of its operator.  Both stacks are one allocation: the
    # allocator keeps a freed block of that size for the next build of a sweep,
    # where two blocks were returned to the system and faulted in again (about
    # 3000 page faults per build at two_j 400)
    core, frame = np.empty((2, 2, two_j + 1, two_j + 1), dtype=complex)
    if sectors.alternation is None:
        folds = [_sector_core(sectors, k, params, core[k], frame[k]) for k in range(2)]
    else:
        # sector -1 is the conjugate mirror of sector +1
        folds = [_sector_core(sectors, 0, params, core[0], frame[0])]
        np.conjugate(core[0], out=core[1])
        _conjugate_mirror(frame[0], out=frame[1])
    return FloquetOperator(core=core, frame=frame, params=params, two_j=two_j,
                           folds=None if folds[0] is None else folds)
