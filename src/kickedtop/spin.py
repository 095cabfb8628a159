"""Spin-j ladder elements, the Jx eigensystem, and spin coherent states.

Basis conventions used throughout the package:

* the top lives in the (2j+1)-dimensional space spanned by |m> with
  m = -j, ..., j in ascending order (flat index j + m);
* the coupled top + spin-1/2 space has dimension D = 2(2j+1) and the
  product state |m, s> (s = 0 for up, 1 for down) sits at flat index
  2*(j + m) + s, i.e. m-major, spin-minor;
* spins are specified by the integer two_j = 2j, so integer and
  half-integer j share one code path.

No angular momentum matrix and no rotation is built here.  Coherent
states come from one cached eigensystem per two_j of the real
tridiagonal Jx, whose eigenvectors are those of Jy up to the phase
(-i)^k of row k = j + m.  floquet builds each parity sector's kicks on
both axes from the same eigensystem, and symmetry builds the coupled
kick generators that it checks parity against from the ladder elements.
The eigensystem is solved once per two_j by numpy's dense symmetric eigh
of the tridiagonal matrix (_tridiagonal_eigh), which keeps the package
free of scipy.  Construction is deterministic.

This module sits at the bottom of the package's import graph: it
imports nothing from the package.
"""

import functools

import numpy as np

def validate_two_j(two_j):
    if not isinstance(two_j, (int, np.integer)) or two_j < 1:
        raise ValueError(f"two_j must be a positive integer, got {two_j!r}")
    return int(two_j)


def dim_top(two_j: int) -> int:
    """Dimension 2j+1 of the top space."""
    return validate_two_j(two_j) + 1


def m_values(two_j: int) -> np.ndarray:
    """Magnetic quantum numbers -j..j in ascending order."""
    j = validate_two_j(two_j) / 2.0
    return np.arange(two_j + 1) - j


def ladder_elements(two_j: int) -> np.ndarray:
    """The 2j subdiagonal entries sqrt(j(j+1) - m(m+1)) of J+, m = -j..j-1."""
    j = validate_two_j(two_j) / 2.0
    m = m_values(two_j)[:-1]
    return np.sqrt(j * (j + 1) - m * (m + 1))


def _tridiagonal_eigh(offdiag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors of the real
    symmetric tridiagonal matrix with zero diagonal and the given
    off-diagonal, from a dense eigh of its lower triangle.  The vectors
    are stored column-major: the layout picks the BLAS kernels, and so the
    last bits, of every product built on them."""
    evals, evecs = np.linalg.eigh(np.diag(offdiag, -1))
    return evals, np.asfortranarray(evecs)


@functools.cache
def jx_eigensystem(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached eigenvalues and real orthogonal eigenvectors of Jx (read-only).

    Jx is real symmetric tridiagonal with zero diagonal and off-diagonal
    entries half the ladder elements.
    """
    evals, evecs = _tridiagonal_eigh(ladder_elements(two_j) / 2.0)
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


def coherent_state(two_j: int, theta: float, phi: float) -> np.ndarray:
    """Spin coherent state exp(-i phi Jz) exp(-i theta Jy) |j, j>.

    Its angular momentum expectation values are
    j (sin theta cos phi, sin theta sin phi, cos theta).
    """
    if not 0.0 <= theta <= np.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta!r}")
    return np.exp(-1j * phi * m_values(two_j)) * coherent_tops(two_j, [theta])[:, 0]


def coherent_tops(two_j: int, thetas: np.ndarray) -> np.ndarray:
    """exp(-i theta Jy) |j, j> for every theta, as real (2j+1, n) columns.

    Row k = j + m of it is i^(2j-k) times row k of V (exp(-i theta
    lambda) * V[-1]): the cosine half of that product at even 2j - k, the
    sine half at odd, negated where 2j - k is 2 or 3 mod 4.
    """
    evals, evecs = jx_eigensystem(two_j)
    angles = np.outer(evals, thetas)
    halves = evecs @ (evecs[-1][:, None] * np.hstack([np.cos(angles), np.sin(angles)]))
    power = two_j - np.arange(two_j + 1)[:, None]
    return np.where(power % 2 == 0, *np.hsplit(halves, 2)) * np.where(power % 4 < 2, 1.0, -1.0)


def product_state(two_j: int, top: np.ndarray, spin: np.ndarray) -> np.ndarray:
    """Interleave a top vector with a 2-component spinor per the basis ordering."""
    d = dim_top(two_j)
    if top.shape != (d,) or spin.shape != (2,):
        raise ValueError("component dimensions do not match two_j")
    out = np.empty(2 * d, dtype=complex)
    out[0::2] = top * spin[0]
    out[1::2] = top * spin[1]
    return out
