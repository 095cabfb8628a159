"""Discrete symmetries of the kicked coupled top and their numerical checks.

The operators and the relations verified here (U~ is a symmetrized
one-period unitary, K is complex conjugation):

* parity      Pi  = exp(-i pi (Jz + sigma_z/2)), times i when 2j is even
              so that Pi^2 = 1 exactly;   [Pi, G] = 0 for the kick
              generators G = Jx sigma_x/j, Jy sigma_y/j and sigma_z (U is
              assembled block-diagonal, so it commutes with Pi by construction)
* time rev.   T1 = K                       T1 U~* T1^-1 = U~^-1
              T2 = exp(-i pi (Jy + sigma_y/2)) K,  same relation;
              T2^2 = +1 for 2j odd, -1 for 2j even
* part.-hole  P  = exp(-i (pi/2) sigma_z) K;  P U~* P^-1 = U~
* chiral      G  = sigma_z;                G U~ G^-1 = U~^-1

exp(-i pi Jy) is the signed reversal |j, m> -> (-1)^(j-m) |j, -m> (the
Wigner d^j at pi) and exp(-i pi sigma_y/2) the spin turn
|up> -> |down>, |down> -> -|up>, so the unitary part of T2 is their
Kronecker product, with every entry exactly 0 or +-1.

Parity is diagonal in the product basis, so its eigenvalue pattern
splits the coupled space into two sectors of dimension 2j+1 each; every
kick operator is block-diagonal across that split.

The chirality-breaking term delta * sigma_z breaks G, T2 and P and keeps
Pi.  It leaves both kick generators real symmetric, so T1 = K survives
up to similarity: the plain U = Y X equals Y^(1/2) U~ Y^(-1/2) with the
complex-symmetric U~ = Y^(1/2) X Y^(1/2), and K U~ K^-1 = U~^-1.  Since K
squares to +1 and commutes with the real diagonal Pi, each parity sector
stays in the COE class for every delta.

Antiunitary operators are represented as (unitary matrix, flag) pairs
and all relations are evaluated as dense matrix identities with
explicit element-wise conjugation.

The parity diagonal is an exact integer formula, so the sector split has
no rounding to guard.  This module imports only spin: floquet imports
sector_indices from here, and verify_symmetries reads the operator it is
given without importing floquet, so the package's imports run one way.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .spin import dim_top, ladder_elements, validate_two_j

KINDS = ("parity", "time_reversal_1", "time_reversal_2", "particle_hole", "chiral")

_ANTIUNITARY = {
    "parity": False,
    "time_reversal_1": True,
    "time_reversal_2": True,
    "particle_hole": True,
    "chiral": False,
}


def parity_phases(two_j: int) -> np.ndarray:
    """Exact diagonal of the parity operator (entries are +-1).

    |m, s> at flat index 2k + s, k = j + m, has the eigenvalue
    exp(-i pi (m + s_z)), times i for even 2j, which is the integer sign
    (-1)^(k + s + floor(j)) for both parities of 2j.
    """
    k, s = np.divmod(np.arange(2 * dim_top(two_j)), 2)
    return 1.0 - 2.0 * ((k + s + two_j // 2) % 2)


def sector_indices(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices of the +1 and -1 parity sectors (2j+1 states each)."""
    phases = parity_phases(two_j)
    return np.where(phases > 0)[0], np.where(phases < 0)[0]


def symmetry_operator(kind: str, two_j: int) -> tuple[np.ndarray, bool]:
    """Unitary part of a symmetry operator and its conjugation flag."""
    two_j = validate_two_j(two_j)
    d = dim_top(two_j)
    if kind == "parity":
        mat = np.diag(parity_phases(two_j)).astype(complex)
    elif kind == "time_reversal_1":
        mat = np.eye(2 * d, dtype=complex)
    elif kind == "time_reversal_2":
        signed_reversal = np.diag((-1.0) ** np.arange(d))[:, ::-1]
        mat = np.kron(signed_reversal, [[0.0, -1.0], [1.0, 0.0]]).astype(complex)
    elif kind == "particle_hole":
        mat = np.kron(np.eye(d), np.diag([-1.0j, 1.0j]))
    elif kind == "chiral":
        mat = np.diag(np.tile([1.0, -1.0], d)).astype(complex)
    else:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return mat, _ANTIUNITARY[kind]


def squared_sign(kind: str, two_j: int) -> int:
    """Sign of the squared symmetry operator (K S K = S* for antiunitaries)."""
    mat, anti = symmetry_operator(kind, two_j)
    sq = mat @ mat.conj() if anti else mat @ mat
    sign = round(float(np.real(np.trace(sq))) / sq.shape[0])
    if np.abs(sq - sign * np.eye(sq.shape[0])).max() > 1e-10:
        raise AssertionError(f"{kind} squared is not proportional to the identity")
    return sign


@dataclass
class SymmetryReport:
    """Residuals of the symmetry relations for one Floquet operator."""

    two_j: int
    residuals: dict = field(default_factory=dict)
    squared_signs: dict = field(default_factory=dict)
    parity_offblock: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


def _maxabs(a: np.ndarray) -> float:
    return float(np.abs(a).max())


def _kick_generators(two_j: int) -> list[np.ndarray]:
    """Jx sigma_x / j and Jy sigma_y / j on the coupled space, from
    Jx / j = (J+ + J-) / 2j and Jy / j = (J+ - J-) / 2ij, with J+ / 2j
    the ladder elements over 2j on the subdiagonal."""
    jp = np.diag(ladder_elements(two_j) / two_j, -1)
    return [np.kron(jp + jp.T, [[0.0, 1.0], [1.0, 0.0]]),
            np.kron((jp - jp.T) / 1j, [[0.0, -1j], [1j, 0.0]])]


def verify_symmetries(operator) -> SymmetryReport:
    """Evaluate every symmetry relation for the given operator, a
    floquet.FloquetOperator (read through its .u and .two_j).

    The parity residual and parity_offblock are taken on the coupled-space
    kick generators Jx sigma_x / j, Jy sigma_y / j and sigma_z, not on U:
    the sector engine assembles U block-diagonal from the sector_indices
    split, so only the generators can show that split to be wrong.
    The time-reversal, particle-hole, and chiral relations hold (residuals
    at rounding level) only for the symmetrized variants with delta = 0;
    parity holds for every variant and delta.  With delta > 0 the chiral,
    time_reversal_2 and particle_hole residuals are O(1) because delta
    breaks those symmetries.  The time_reversal_1 residual is O(1) as well,
    but only because the plain ordering is not symmetrized: the similar
    operator Y^(1/2) X Y^(1/2) is complex symmetric for every delta, so K
    is kept up to similarity (see the module docstring).
    """
    u = operator.u
    two_j = operator.two_j
    u_conj = u.conj()
    u_inv = u.conj().T

    pi_diag = parity_phases(two_j)
    t2, _ = symmetry_operator("time_reversal_2", two_j)
    ph, _ = symmetry_operator("particle_hole", two_j)
    gamma_diag = np.tile([1.0, -1.0], dim_top(two_j))

    generators = _kick_generators(two_j) + [np.diag(gamma_diag)]
    residuals = {
        "parity": max(_maxabs(pi_diag[:, None] * g * pi_diag[None, :] - g)
                      for g in generators),
        "time_reversal_1": _maxabs(u_conj - u_inv),
        "time_reversal_2": _maxabs(t2 @ u_conj @ t2.conj().T - u_inv),
        "particle_hole": _maxabs(ph @ u_conj @ ph.conj().T - u),
        "chiral": _maxabs(gamma_diag[:, None] * u * gamma_diag[None, :] - u_inv),
    }
    # T2 Pi T2^-1 = (-1)^(2j+1) Pi, with the conjugation acting on Pi
    t2_parity_sign = (-1) ** (two_j + 1)
    residuals["t2_parity"] = _maxabs(
        t2 @ np.diag(pi_diag).conj() @ t2.conj().T - t2_parity_sign * np.diag(pi_diag)
    )

    # the generators are Hermitian, so the (-, +) block mirrors the (+, -) one
    idx_plus, idx_minus = sector_indices(two_j)
    offblock = max(_maxabs(g[np.ix_(idx_plus, idx_minus)]) for g in generators)

    signs = {kind: squared_sign(kind, two_j) for kind in KINDS}
    return SymmetryReport(two_j=two_j, residuals=residuals,
                          squared_signs=signs, parity_offblock=offblock)
