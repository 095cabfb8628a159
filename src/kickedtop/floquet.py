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

Each sector is stored as a complex-symmetric unitary core, the
symmetrized ordering O^(1/2) I O^(1/2) of an outer kick O and an inner
kick I, plus the unitary frame that maps it to the sector block:
block = frame @ core @ frame^dag.  O = Y and I = X for sym1 and plain,
O = X and I = Y for sym2; for plain the frame also carries the half y
kick, because Y X = Y^(1/2) (Y^(1/2) X Y^(1/2)) Y^(-1/2).  The dense
coupled-space matrix (FloquetOperator.u) and kick_unitary are built on
demand, for the tests' oracle and for symcheck.

The chiral fold, for every delta.  One cached eigensystem
T = V diag(lam) V^T per two_j (spin.jx_eigensystem) serves both axes and
both sectors.  Z anticommutes with T, so J = V^T Z V is a signed
reversal of the eigenbasis, J e_k = s_k e_{d-1-k}, and
lam_{d-1-k} = -lam_k.  Its +1 and -1 eigenvectors are the fold basis Q
(chiral_fold): the + states (e_k + s_k e_{d-1-k}) / sqrt(2) of the pairs
k < d // 2, then the - states (e_k - s_k e_{d-1-k}) / sqrt(2), with the
middle state e_m of odd d (lam_m = 0) last in the block of its sign.  On
each pair (+k, -k), T is lam_k sigma_x and Z is sigma_z, so on the basis
Q D, D = 1 on the + states and i on the - states, a kick
exp(-i (kappa T + delta Z)) is one pair kick per pair (_pair_kick):

    [[a, s], [-s, conj(a)]],   a = cos w - i (delta / w) sin w,
                               s = (kappa lam_k / w) sin w,
                               w = hypot(kappa lam_k, delta),

and the phase a on a + middle state, conj(a) on a - one, exp(-+i delta).
At delta = 0 the pair kick is the real turn (cos, sin) of kappa lam_k.
The overlap C = V^T S V of the two kick eigenbases commutes with J (S
and Z are diagonal), so on Q it is C+ (+) C- (_Sectors.halves).  With E
the pair kicks of I and H those of the half outer kick, a core on Q D is

    [[A, -K], [K^T, B]] = H (C+ (+) C-) E (C+ (+) C-)^T H:

three half-size real products, C+ Re(a) C+^T, C- Re(a) C-^T and
C+ s C-^T, two more for the imaginary part that delta > 0 gives the
diagonal blocks of E, and H pair by pair on the rows and the columns
(_fold).  Every core is stored on Q as D [[A, -K], [K^T, B]]
D^dag = [[A, iK], [iK^T, B]].  With delta = 0 the symmetrized drive has
the chiral symmetry sigma_z U sigma_z = U^-1, every pair kick is real,
and so are A, B and K: [[A, -K], [K^T, B]] is real orthogonal, and the
operator keeps (A, B, K) as FloquetOperator.folds, which the eigenphase
solver and the real evolution of dynamics take as they are; a fold
exists exactly when delta = 0.  The frame is S V Q, times H on Q for
plain, written without Q (_fold_frame): Z v_k = s_k v_{d-1-k}, so the +
state of pair k is (1 + Z) v_k / sqrt(2), sqrt(2) v_k on the spin-up
rows of the sector, and the - state the same on the spin-down rows.
Jz, the diagonal m of each sector, keeps the spin and is tridiagonal in
the eigenbasis of T, so on Q it is a real band that couples no + state
to a - state; that band is certified once per two_j (_jz_band) and
handed out by FloquetOperator.jz_band for the frames without delta.

Unitarity is certified where it originates: a core is unitary exactly
when C is orthogonal and every pair kick is unitary, |a|^2 + s^2 = 1.
The reversal J, the orthogonality of C and its split are checked at
UNITARITY_TOL once per two_j, before the cache entry is stored, and the
pair kicks, in O(d), at every build.  The complex cores are not checked
again: the eigenpair residual of the solvers in spectral certifies every
solved core.  Every certificate of this module, per two_j or per build,
raises NumericalError naming itself where it fails; nothing is built
around a failed one.

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

Consumers work from the distinct cores (FloquetOperator.cores) and, at
delta = 0, their folds (FloquetOperator.folds): distinct_blocks
assembles the sector +1 block alone at even 2j, sector_blocks derives
the sector -1 block from it, and to_sectors maps solved eigenvectors
once and mirrors them (FloquetOperator.mirror).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

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
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.delta > 0 and self.variant != "plain":
            raise ValueError(f"variant {self.variant!r} is defined only for delta = 0, "
                             f"got delta={self.delta!r}")


@dataclass
class FloquetOperator:
    """One-period unitary, stored per parity sector.

    Sector k, in symmetry.sector_indices order (+1 first), has the block
    frame[k] @ core[k] @ frame[k]^dag, where core[k] is a complex-symmetric
    unitary and frame[k] is unitary; both stacks are complex with shape
    (2, d, d), also where the frame is real.  At even 2j sector -1 is the
    conjugate mirror of sector +1: core[1] is conj(core[0]) and frame[1]
    is G J conj(frame[0]), G = diag((-1)^k) and J the reversal.  `cores`
    holds the distinct cores that checks and solvers use; floquet_operator
    stores each on its fold basis, [[A, iK], [iK^T, B]] with its len(A) +
    states first (module docstring).  `folds`, set by floquet_operator
    exactly when delta = 0, holds the real (A, B, K) of each of `cores`.
    An operator without folds (delta > 0, or one built from explicit
    cores) is solved and evolved on its complex cores.
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
    def jz_band(self) -> tuple | None:
        """For delta = 0, Jz (on the sector's m ladder) on the fold basis of
        each of `cores`: the real diagonal and off-diagonal of
        D^dag frame^dag Jz frame D, D = 1 on the + states and i on the -
        states, as (len(cores), d) and (len(cores), d - 1) arrays; and None,
        or for plain the cos and sin of the half y kick's angle of each pair
        (+k, -k).  The plain frames carry that kick, so their band holds
        after each pair is turned by it (turn_pairs).  None for delta > 0,
        whose pair kicks are complex."""
        if self.params.delta != 0.0:
            return None
        diag, off = _jz_band(self.two_j)
        turn = None
        if self.params.variant == "plain":
            lam = _sectors(self.two_j).lam[:self.dim // 4]
            turn = _pair_kick(lam, 0.5 * self.params.kappa_y, 0.0)
        return diag, off, turn

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
    """Per-two_j data shared by every operator: T's eigensystem, and per
    sector the y gauge S, the first spin-up row (0 or 1: the spin
    alternates with m) and the signs of the chiral reversal V^T Z V;
    G = (-1)^k where sector -1 is the conjugate mirror of sector +1 (None
    elsewhere); and, for each sector that floquet_operator builds (sector
    +1 alone at even 2j), the blocks C+ and C- of C = V^T S V on the fold
    basis of that reversal.  The reversal, the orthogonality of C and its
    split are certified before the entry is cached: _sectors raises
    NumericalError where one fails.  Arrays are read-only."""

    lam: np.ndarray          # (d,)
    vecs: np.ndarray         # (d, d)
    gauge: np.ndarray        # (2, d)
    up: tuple                # (2,)
    reversal: np.ndarray     # (2, d)
    alternation: np.ndarray | None  # (d,)
    halves: tuple            # per built sector, (C+, C-)


@functools.cache
def _sectors(two_j: int) -> _Sectors:
    j = two_j / 2.0
    evals, vecs = jx_eigensystem(two_j)
    lam = evals / j
    if two_j % 2 == 0:
        # the unpaired middle level of odd d: T's spectrum is antisymmetric, so
        # it is exactly 0, which the pair kicks take it to be
        lam[two_j // 2] = 0.0
    # flat index 2(j + m) + s: within a sector the spin s alternates with m
    spin = np.array([idx % 2 for idx in sector_indices(two_j)])
    z = 1.0 - 2.0 * spin
    # <m+1, 1-s| Jy sigma_y |m, s> = +-<m+1| Jx |m>, the sign set by s
    gauge = np.concatenate([np.ones((2, 1)), np.cumprod(z[:, :-1], axis=1)], axis=1)
    offdiag = ladder_elements(two_j) / (2.0 * j)
    reversal, alternation = _chiral_reversal(vecs, z), _alternation(offdiag, z, gauge)
    # at even 2j only sector +1 is built
    built = 2 if alternation is None else 1
    overlap = (vecs.T * gauge[:built, None, :]) @ vecs
    _check_orthogonal(overlap)
    halves = _overlap_halves(overlap, reversal)
    sectors = _Sectors(lam=lam, vecs=vecs, gauge=gauge, up=tuple(spin[:, 0].tolist()),
                       reversal=reversal, alternation=alternation, halves=halves)
    for value in (lam, gauge, reversal, alternation, *(c for p in halves for c in p)):
        if value is not None:
            value.setflags(write=False)
    return sectors


@functools.cache
def _jz_band(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """The diagonals and off-diagonals of W^T Jz W, a (built, d) and a
    (built, d - 1) array, for each sector that floquet_operator builds:
    W = V Q is the eigenbasis V of T = Jx / j on the fold basis Q of the
    sector (_fold_frame); NumericalError unless the band is all of it:
    ||Jz W - W band||_F, the norm of what lies off the band, is checked at
    UNITARITY_TOL * j.  The quarter turn about y maps Jz to Jx, so in the
    eigenbasis of Jx, Jz couples neighbouring levels only; and Jz keeps
    the spin, so the band is exactly 0 between the + and - states, which
    live on the spin-up and spin-down rows.  Arrays are read-only."""
    sectors = _sectors(two_j)
    d = two_j + 1
    diags, offs = [], []
    for up, (plus, _) in zip(sectors.up, sectors.halves):
        frame = np.empty((d, d), dtype=complex)
        _fold_frame(sectors.vecs, np.ones(d), up, len(plus),
                    _pair_kick(sectors.lam[:(d + 1) // 2], 0.0, 0.0), frame)
        w = frame.real
        jz_w = m_values(two_j)[:, None] * w
        diag = np.einsum("ij,ij->j", w, jz_w)
        off = np.einsum("ij,ij->j", w[:, :-1], jz_w[:, 1:])
        rest = jz_w - w * diag
        rest[:, 1:] -= w[:, :-1] * off
        rest[:, :-1] -= w[:, 1:] * off
        defect = np.linalg.norm(rest)
        if not defect <= UNITARITY_TOL * two_j / 2.0:
            raise NumericalError(f"Jz on the fold basis is no band: off-band norm {defect:.2e}")
        diags.append(diag)
        offs.append(off)
    diag, off = np.array(diags), np.array(offs)
    diag.setflags(write=False)
    off.setflags(write=False)
    return diag, off


def _chiral_reversal(vecs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The signs of J = V^T Z V = sum_k signs_k e_k e_{d-1-k}^T for each
    sector; NumericalError unless that holds at UNITARITY_TOL: Z anticommutes
    with T, so J maps the eigenvector of lam_k to that of
    -lam_k = lam_{d-1-k}.  Sector -1 has Z = -Z of sector +1 (each m
    carries the other spin), so one product serves both."""
    chiral = vecs.T @ (z[0][:, None] * vecs)
    signs = np.sign(chiral[:, ::-1].diagonal())
    defect = np.abs(chiral - np.diag(signs)[:, ::-1]).max()
    if not (np.array_equal(z[1], -z[0]) and defect <= UNITARITY_TOL):
        raise NumericalError(f"V^T Z V is no signed chiral reversal: defect {defect:.2e}")
    return np.stack([signs, -signs])


def _overlap_halves(overlap: np.ndarray, reversal: np.ndarray) -> tuple:
    """C+ and C- of each overlap C, the blocks of C on the fold basis of
    its sector's reversal J (chiral_fold); NumericalError unless every C
    commutes with J at UNITARITY_TOL (what chiral_fold drops is the part
    that does not).  C = V^T S V and J = V^T Z V commute, as S and Z are
    diagonal."""
    halves = []
    for c, signs in zip(overlap, reversal):
        plus, minus, _, dropped = chiral_fold(c, signs)
        if not dropped <= UNITARITY_TOL:
            raise NumericalError(f"kick eigenbasis overlap does not split on the chiral fold: "
                                 f"dropped part {dropped:.2e}")
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
    # one + state per pair (e_k, e_{d-1-k}), and the middle one of odd d where its sign is +
    n_plus = d // 2 + int(d % 2 == 1 and signs[d // 2] > 0)
    # the middle state of odd d enters M + M J twice
    weight = np.ones(half)
    weight[-1] = np.sqrt(0.5) if d % 2 else 1.0
    w_even, w_odd = weight[:n_plus], weight[:d - n_plus]
    a = even.real[:n_plus, :n_plus] * np.outer(w_even, w_even)
    b = odd.real[:d - n_plus, :d - n_plus] * np.outer(w_odd, w_odd)
    k = odd.imag[:n_plus, :d - n_plus] * np.outer(w_even, w_odd)
    return a, b, k, dropped


def turn_pairs(top: np.ndarray, bottom: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> None:
    """Turn each pair of rows (top[k], bottom[k]) by
    [[cos_k, sin_k], [-sin_k, conj(cos_k)]], in place; top and bottom are
    disjoint views of one array, len(cos) rows each."""
    saved = top.copy()
    top *= cos[:, None]
    top += sin[:, None] * bottom
    bottom *= np.conj(cos)[:, None]
    bottom -= sin[:, None] * saved


def _pair_kick(lam: np.ndarray, kappa: float, delta: float) -> tuple:
    """The pair kick (a, s) of exp(-i (kappa T + delta Z)) at the levels
    lam of the first half: a_k = cos w - i (delta / w) sin w and
    s_k = (kappa lam_k / w) sin w, w = hypot(kappa lam_k, delta).  At
    delta = 0 it is the real turn (cos, sin) of kappa lam."""
    x = kappa * lam
    if delta == 0.0:
        return np.cos(x), np.sin(x)
    omega = np.hypot(x, delta)
    sinc = np.sin(omega) / omega
    return np.cos(omega) - 1j * (delta * sinc), x * sinc


def _check_pair_kicks(*kicks: tuple) -> None:
    """Raise NumericalError unless every pair kick (a, s) is unitary at
    UNITARITY_TOL: [[a, s], [-s, conj(a)]] is unitary exactly when
    |a|^2 + s^2 = 1, and the cores built from unitary kicks are unitary."""
    defect = max(np.abs(np.abs(a) ** 2 + s ** 2 - 1.0).max() for a, s in kicks)
    if not defect <= UNITARITY_TOL:
        raise NumericalError(f"pair kick is not unitary: defect {defect:.2e}")


def _gram(c: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """c diag(scale) c^T from real products: one for a real scale, two
    for a complex one."""
    out = (c * scale.real) @ c.T
    return out + 1j * ((c * scale.imag) @ c.T) if np.iscomplexobj(scale) else out


def _fold(halves: tuple, inner: tuple, half: tuple) -> tuple:
    """The chiral fold (A, B, K) of the core H C E C^T H, from the blocks
    (C+, C-) of C, the pair kicks (a, s) of the inner kick E and of the
    half outer kick H (_pair_kick): on the basis Q D of the module
    docstring the core is O = [[A, -K], [K^T, B]] =
    H (C+ (+) C-) E (C+ (+) C-)^T H, so three half-size products, and two
    more for the imaginary part of the diagonal blocks of E where
    delta > 0, then H on the rows and on the columns.
    """
    plus, minus = halves
    (a, s), (half_a, half_s) = inner, half
    n, d = len(plus), len(plus) + len(minus)
    m = d // 2
    o = np.empty((d, d), dtype=np.result_type(a, half_a))
    o[:n, :n] = _gram(plus, a[:n])
    o[n:, n:] = _gram(minus, np.conj(a[:d - n]))
    o[:n, n:] = (plus[:, :m] * s[:m]) @ minus[:, :m].T
    o[n:, :n] = -o[:n, n:].T
    turn_pairs(o[:m], o[n:n + m], half_a[:m], half_s[:m])
    # O H = (H^T O^T)^T, and H^T turns each pair the other way
    turn_pairs(o.T[:m], o.T[n:n + m], half_a[:m], -half_s[:m])
    if d % 2:
        # the middle state, last of the larger block, takes the phase of its side
        middle, phase = (m, half_a[m]) if n > m else (d - 1, np.conj(half_a[m]))
        o[middle] *= phase
        o[:, middle] *= phase
    return o[:n, :n], o[n:, n:], -o[:n, n:]


def _fold_frame(vecs: np.ndarray, gauge: np.ndarray, up: int, n_plus: int, kick: tuple,
                out: np.ndarray) -> None:
    """Write S V Q H into the complex (d, d) array out, in one pass: S the
    diagonal gauge, V the eigenbasis of T with Z v_k = s_k v_{d-1-k}, Q
    the fold basis for the signs s, its n_plus + states first, and H the
    pair kick (a, s) of `kick` (_pair_kick), [[a, -i s], [-i s, conj(a)]]
    on each pair (+k, -k) of Q and the phase of its side on the middle
    state of odd d.

    The + state of pair k is (1 + Z) v_k / sqrt(2): sqrt(2) v_k on the
    spin-up rows (up, up + 2, ...) and 0 on the others; the - state is the
    same on the spin-down rows.  The middle state of odd d is v_m, which
    lives on one spin, the last state of the larger block.
    """
    (a, s), d, m = kick, len(vecs), len(vecs) // 2
    root, cross = np.sqrt(2.0) * a[:m], 1j * (np.sqrt(2.0) * -s[:m])
    for rows, own, other, diag in (
            (slice(up, None, 2), slice(0, m), slice(n_plus, n_plus + m), root),
            (slice(1 - up, None, 2), slice(n_plus, n_plus + m), slice(0, m), np.conj(root))):
        spin = gauge[rows, None] * vecs[rows, :m]
        np.multiply(spin, diag, out=out[rows, own])
        np.multiply(spin, cross, out=out[rows, other])
    if d % 2:
        middle, phase = (m, a[m]) if n_plus > m else (d - 1, np.conj(a[m]))
        np.multiply(gauge * vecs[:, m], phase, out=out[:, middle])


def _sector_core(sectors: _Sectors, k: int, params: KickParams, core: np.ndarray,
                 frame: np.ndarray) -> tuple:
    """Write core and frame of sector k into the complex (d, d) arrays
    core and frame, the core on its fold basis, and return its chiral
    fold (A, B, K): outer kick O, inner kick I, and the frame S V Q, with
    the half outer kick for plain (module docstring).  Both pair kicks are
    certified unitary first."""
    d = len(sectors.lam)
    if params.variant == "sym2":
        outer, inner, gauge = params.kappa_x, params.kappa_y, np.ones(d)
    else:
        outer, inner, gauge = params.kappa_y, params.kappa_x, sectors.gauge[k]
    lam = sectors.lam[:(d + 1) // 2]
    kicks = _pair_kick(lam, inner, params.delta), _pair_kick(lam, 0.5 * outer, 0.5 * params.delta)
    _check_pair_kicks(*kicks)
    fold = a, b, kk = _fold(sectors.halves[k], *kicks)
    n = len(a)
    core[:n, :n], core[n:, n:] = a, b
    np.multiply(1j, kk, out=core[:n, n:])
    np.multiply(1j, kk.T, out=core[n:, :n])
    # the sym frames carry no kick, the pair kick of strength 0
    frame_kick = kicks[1] if params.variant == "plain" else _pair_kick(lam, 0.0, 0.0)
    _fold_frame(sectors.vecs, gauge, sectors.up[k], n, frame_kick, frame)
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
    UNITARITY_TOL: the cores built from it with unitary pair kicks are
    then unitary."""
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
    # a second copy of its operator.  Both stacks are one allocation (2.6 MB at
    # two_j 200).  Whether the next build of a sweep faults its pages in again
    # is the allocator's choice: glibc returns freed memory at the top of its
    # heap to the system (about 870 page faults per build in an entropy sweep
    # at two_j 200) unless asked to keep it, as cli.main does (M_TOP_PAD)
    core, frame = np.empty((2, 2, two_j + 1, two_j + 1), dtype=complex)
    if sectors.alternation is None:
        folds = [_sector_core(sectors, k, params, core[k], frame[k]) for k in range(2)]
    else:
        # sector -1 is the conjugate mirror of sector +1
        folds = [_sector_core(sectors, 0, params, core[0], frame[0])]
        np.conjugate(core[0], out=core[1])
        _conjugate_mirror(frame[0], out=frame[1])
    return FloquetOperator(core=core, frame=frame, params=params, two_j=two_j,
                           folds=folds if params.delta == 0.0 else None)
