"""Stroboscopic evolution and the regular-versus-chaotic dynamical probe.

An initial product state |theta0, 0> (x) |up> is kicked repeatedly; the
mean and standard deviation of Jz after each kick distinguish a state
pinned to a bound-state location (mean stays near its initial value)
from chaotic spreading (mean decays to zero, the deviation approaches
the uniform-ensemble value j/sqrt(3)).

stroboscopic_series runs the recursion psi_{n+1} = B psi_n on the exact
(2j+1)-dimensional parity-sector blocks B of the Floquet operator.  At
even 2j one block is assembled and sector -1 is evolved through its
mirror beside sector +1: the -1 block is G J conj(B) J G, with J the
basis reversal and G = diag((-1)^k), so B^n maps G J conj(psi_-) to
G J conj(psi_-(n)), and the mirrored column's m-ladder weights are those
of sector -1 reversed.  The first BATCH - 1 kicks take one product
each; then P = B^BATCH, from repeated squaring, advances the last BATCH
states at once, so each matrix product yields BATCH new states
(2 BATCH columns at even 2j).  Only that last batch and the
(n_max+1, 2j+1) real m-ladder weights are kept, and the norm of every
kick is checked against NORM_DRIFT_TOL.  eigenbasis_series evolves by eigenphases instead.  It
is the tests' independent oracle, not a production path: its error is
set by the eigenvector residuals (up to spectral.EIGEN_RESIDUAL_TOL),
not by rounding in the products.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .floquet import FloquetOperator, KickParams, floquet_operator
from .meanfield import allowed_kappa_x
from .spectral import QuasiSpectrum
from .spin import coherent_state, m_values, product_state
from .symmetry import sector_indices

NORM_DRIFT_TOL = 1e-8

# states per matrix product in stroboscopic_series after the first BATCH - 1 kicks
BATCH = 8


@dataclass
class DynamicsSeries:
    """Kick-resolved Jz statistics (in units of hbar)."""

    two_j: int
    params: KickParams
    n: np.ndarray
    jz_mean: np.ndarray
    jz_std: np.ndarray


def _jz_series(two_j: int, params: KickParams, weights: np.ndarray) -> DynamicsSeries:
    """The Jz mean and standard deviation after each kick, from the
    (n+1, d) per-kick occupation weights on the m ladder (ascending m)."""
    jz_diag = m_values(two_j)
    means = weights @ jz_diag
    stds = np.sqrt(np.maximum(weights @ jz_diag ** 2 - means ** 2, 0.0))
    return DynamicsSeries(two_j=two_j, params=params, n=np.arange(len(weights)),
                          jz_mean=means, jz_std=stds)


def _ladder_weights(states: np.ndarray) -> np.ndarray:
    """The (n, d) m-ladder weights of n consecutive kicks, from their
    states stacked as in stroboscopic_series: (1, d, n * 2) with one
    distinct block, sector -1 mirrored, else (2, d, n)."""
    p = states.real ** 2 + states.imag ** 2
    if len(p) == 1:
        p = p.reshape(p.shape[1], -1, 2)
        return (p[:, :, 0] + p[::-1, :, 1]).T
    return (p[0] + p[1]).T


def stroboscopic_series(operator: FloquetOperator, psi0: np.ndarray,
                        n_max: int) -> DynamicsSeries:
    """Evolve psi0 by repeated application of the one-period unitary.

    The recursion psi_{n+1} = B psi_n runs on the sector blocks B, one
    block per distinct core: with one, sector -1 is evolved through its
    mirror (FloquetOperator.mirror) by the +1 block.  Kicks 1 to
    BATCH - 1 take one product each; after that P = B^BATCH times the
    previous BATCH states gives the next BATCH in one product.  Raises
    NumericalError naming the first kick at which the state norm has
    drifted by more than NORM_DRIFT_TOL.  Entry 0 of the series is the
    initial state.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")
    blocks = operator.distinct_blocks()
    # each sector holds one state per m, in ascending m
    plus, minus = (psi0[idx].astype(complex) for idx in sector_indices(operator.two_j))
    # the columns of states[k] are evolved by blocks[k]
    if len(blocks) == 1:
        states = np.stack([plus, operator.mirror(minus)], axis=-1)[None]
    else:
        states = np.stack([plus, minus])[..., None]
    groups, d, width = states.shape
    weights = np.empty((n_max + 1, d))

    first = min(BATCH, n_max + 1)
    batch = np.empty((groups, d, first, width), dtype=complex)
    batch[:, :, 0] = states
    for n in range(1, first):
        batch[:, :, n] = blocks @ batch[:, :, n - 1]
    batch = batch.reshape(groups, d, first * width)
    weights[:first] = _ladder_weights(batch)
    if n_max >= BATCH:
        power = np.linalg.matrix_power(blocks, BATCH)
        for start in range(BATCH, n_max + 1, BATCH):
            count = min(BATCH, n_max + 1 - start)
            batch = power @ batch[:, :, :count * width]
            weights[start:start + count] = _ladder_weights(batch)

    drift = np.abs(np.sqrt(weights.sum(axis=1)) - 1.0)
    drifted = np.flatnonzero(~(drift <= NORM_DRIFT_TOL))   # a NaN drift counts
    if drifted.size:
        n = drifted[0]
        raise NumericalError(f"norm drifted by {drift[n]:.2e} at kick {n}")
    return _jz_series(operator.two_j, operator.params, weights)


def eigenbasis_series(spectrum: QuasiSpectrum, psi0: np.ndarray,
                      n_max: int) -> DynamicsSeries:
    """Same series computed by phase evolution in the eigenbasis.

    Cross-check for stroboscopic_series: expand psi0 over each sector's
    eigenvectors, attach exp(-i n eps) phases, transform back.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    n = np.arange(n_max + 1)
    weights = 0.0
    for idx, eps, vecs in zip(sector_indices(spectrum.two_j), spectrum.epsilons,
                              spectrum.vectors):
        coeffs = vecs.conj().T @ psi0[idx]
        weights = weights + np.abs((np.exp(-1j * np.outer(n, eps)) * coeffs) @ vecs.T) ** 2
    return _jz_series(spectrum.two_j, spectrum.params, weights)


@dataclass
class ScanColumn:
    """One allowed-kick-strength column of a dynamical scan."""

    n_x: int
    kappa_x: float
    series: DynamicsSeries
    late_mean: float            # mean of <Jz>/j over the last 20% of kicks
    late_std: float             # mean of sigma/j over the same window


def scan_params(kappa_y: float, z0: float, n_x_list, n_max: int,
                delta: float = 0.0, variant: str = "plain") -> list[KickParams]:
    """The kick parameters of a dynamical scan, one per n_x, with every
    option checked and no operator built.

    Every n_x >= 1 has an allowed kick strength (meanfield.allowed_kappa_x
    with n_y = 0).  Raises ValueError if |z0| >= 1, kappa_y <= 0, an n_x
    or n_max is below 1, or delta and variant do not go together.
    """
    if not abs(z0) < 1.0:
        raise ValueError(f"|z0| must be < 1, got {z0!r}")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return [KickParams(kappa_x=allowed_kappa_x(z0, kappa_y, n_x), kappa_y=kappa_y,
                       delta=delta, variant=variant)
            for n_x in n_x_list]


def dynamical_scan(two_j: int, kappa_y: float, z0: float, n_x_list,
                   n_max: int, delta: float = 0.0,
                   variant: str = "plain") -> list[ScanColumn]:
    """Evolve the z0 probe at every allowed kappa_x from the n_x ladder.

    The initial state is |arccos(z0), 0> (x) |up>.  The options are
    checked by scan_params before any operator is built.
    """
    all_params = scan_params(kappa_y, z0, n_x_list, n_max, delta, variant)
    psi0 = product_state(two_j, coherent_state(two_j, math.acos(z0), 0.0),
                         np.array([1.0, 0.0]))
    j = two_j / 2.0
    columns = []
    for n_x, params in zip(n_x_list, all_params):
        series = stroboscopic_series(floquet_operator(params, two_j), psi0, n_max)
        window = max(1, n_max // 5)
        columns.append(ScanColumn(
            n_x=int(n_x),
            kappa_x=params.kappa_x,
            series=series,
            late_mean=float(series.jz_mean[-window:].mean() / j),
            late_std=float(series.jz_std[-window:].mean() / j),
        ))
    return columns
