"""Stroboscopic evolution and the regular-versus-chaotic dynamical probe.

An initial product state |theta0, 0> (x) |up> is kicked repeatedly; the
mean and standard deviation of Jz after each kick distinguish a state
pinned to a bound-state location (mean stays near its initial value)
from chaotic spreading (mean decays to zero, the deviation approaches
the uniform-ensemble value j/sqrt(3)).

stroboscopic_series runs the recursion psi_{n+1} = B psi_n on the exact
(2j+1)-dimensional parity sectors, one distinct core at a time
(FloquetOperator.cores).  At even 2j sector -1 is evolved through its
mirror beside sector +1: the -1 block is G J conj(B) J G, with J the
basis reversal and G = diag((-1)^k), so B^n maps G J conj(psi_-) to
G J conj(psi_-(n)), and the mirrored state's m ladder is that of
sector -1 reversed.  Two paths evolve the sectors:

* Real fold (delta = 0).  Each core M has the chiral symmetry
  J conj(M) J = M, so on the basis Q of floquet.chiral_fold and with
  D = diag(1, i) it is M = Q D O D^dag Q^T, with O real orthogonal.  The
  blocks of O are the fold that floquet_operator builds and stores with
  the operator (FloquetOperator.folds).  A state enters as
  x = D^dag Q^T frame^dag psi, and each kick is one real product O x
  with the real and imaginary parts of the states side by side.  <Jz>
  needs no m-ladder projection: in the eigenbasis of Jx, Jz is
  tridiagonal, so frame^dag Jz frame is a band (FloquetOperator.jz_band),
  and y = Q D x gives the norm, <Jz> and <Jz^2> of every kick in O(2j)
  steps.  An operator built from explicit cores has its fold read from
  each core by chiral_fold, which drops the part (M - J conj(M) J) / 2;
  where that could move the state by more than NORM_DRIFT_TOL within
  n_max kicks, the operator goes to the complex path.
* Complex blocks (delta > 0).  The sector blocks B are assembled; the
  first BATCH - 1 kicks take one product each, then P = B^BATCH, from
  repeated squaring, advances the last BATCH states at once.  Only that
  last batch and the per-kick m-ladder weights are kept.

The norm of every kick is checked against NORM_DRIFT_TOL.
eigenbasis_series evolves by eigenphases instead.  It is the tests'
independent oracle, not a production path: its error is set by the
eigenvector residuals (up to spectral.EIGEN_RESIDUAL_TOL), not by
rounding in the products.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .floquet import (FloquetOperator, KickParams, chiral_fold, floquet_operator, fold_states,
                      unfold_states)
from .meanfield import allowed_kappa_x
from .spectral import QuasiSpectrum
from .spin import coherent_state, m_values, product_state
from .symmetry import sector_indices

NORM_DRIFT_TOL = 1e-8

# states per matrix product in the complex path after the first BATCH - 1 kicks
BATCH = 8

# kicks whose real states the fold path keeps at once for their moments
CHUNK = 32


@dataclass
class DynamicsSeries:
    """Kick-resolved Jz statistics (in units of hbar)."""

    two_j: int
    params: KickParams
    n: np.ndarray
    jz_mean: np.ndarray
    jz_std: np.ndarray


def _check_state(psi0, two_j: int) -> np.ndarray:
    """psi0 as an array; ValueError unless it is a finite, normalized
    vector of the coupled space, of length 2(2j+1)."""
    psi0 = np.asarray(psi0)
    shape = (2 * (two_j + 1),)
    if psi0.shape != shape:
        raise ValueError(f"initial state must have shape {shape}, got {psi0.shape}")
    if not np.isfinite(psi0).all():
        raise ValueError("initial state must be finite")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")
    return psi0


def _jz_series(two_j: int, params: KickParams, moments: np.ndarray) -> DynamicsSeries:
    """The Jz mean and standard deviation after each kick, from the
    (n+1, 3) per-kick squared norm, <Jz> and <Jz^2>."""
    means = moments[:, 1]
    stds = np.sqrt(np.maximum(moments[:, 2] - means ** 2, 0.0))
    return DynamicsSeries(two_j=two_j, params=params, n=np.arange(len(moments)),
                          jz_mean=means, jz_std=stds)


def _weight_moments(two_j: int, weights: np.ndarray) -> np.ndarray:
    """The (n, 3) squared norm, <Jz> and <Jz^2> of (n, d) occupation
    weights on the m ladder (ascending m)."""
    jz_diag = m_values(two_j)
    return np.stack([weights.sum(axis=1), weights @ jz_diag, weights @ jz_diag ** 2], axis=1)


def _ladder_weights(states: np.ndarray) -> np.ndarray:
    """The (n, d) m-ladder weights of n consecutive kicks, from their
    states stacked as in _batched_moments: (1, d, n * 2) with one
    distinct block, sector -1 mirrored, else (2, d, n)."""
    p = states.real ** 2 + states.imag ** 2
    if len(p) == 1:
        p = p.reshape(p.shape[1], -1, 2)
        return (p[:, :, 0] + p[::-1, :, 1]).T
    return (p[0] + p[1]).T


def _batched_moments(operator: FloquetOperator, states: np.ndarray, n_max: int) -> np.ndarray:
    """The moments of every kick from the complex sector blocks B of
    `cores`: kicks 1 to BATCH - 1 take one product each; after that
    P = B^BATCH times the previous BATCH states gives the next BATCH in
    one product."""
    blocks = operator.distinct_blocks()
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
    return _weight_moments(operator.two_j, weights)


def _band_moments(y: np.ndarray, band: tuple, jz_sign: np.ndarray) -> np.ndarray:
    """The (n, 3) squared norm, <Jz> and <Jz^2> of n kicks, from their
    core-basis states y (n, c, d) and the tridiagonal Jz of the frame
    (FloquetOperator.jz_band); state k's <Jz> counts with jz_sign[k]."""
    diag, off = band
    jz_y = diag * y
    jz_y[..., :-1] += off * y[..., 1:]
    jz_y[..., 1:] += off.conj() * y[..., :-1]
    y, jz_y = y.view(float), jz_y.view(float)
    return np.stack([np.einsum("ncd,ncd->n", y, y),
                     np.einsum("ncd,ncd->nc", y, jz_y) @ jz_sign,
                     np.einsum("ncd,ncd->n", jz_y, jz_y)], axis=1)


def _folded_moments(operator: FloquetOperator, rows: np.ndarray,
                    n_max: int) -> np.ndarray | None:
    """The moments of every kick from the real orthogonal fold of each
    of `cores`, or None where there is no fold (delta > 0) or the part
    that the fold drops could move the state by more than NORM_DRIFT_TOL
    within n_max kicks.

    On the basis Q of floquet.chiral_fold a core is
    M = [[A, iK], [iK^T, B]] = D O D^dag with D = diag(1, i) and the
    real orthogonal O = [[A, -K], [K^T, B]].  The blocks are the
    operator's stored folds (FloquetOperator.folds), which drop nothing,
    or else read from each core by chiral_fold.  A state psi of the
    core's sector enters as x = D^dag Q^T frame^dag psi, each kick is one
    real product with O (real and imaginary parts of every state as
    rows), and y = Q D x = frame^dag psi gives the moments through the
    tridiagonal frame^dag Jz frame.
    """
    signs, band = operator.reversals, operator.jz_band
    if signs is None or band is None:
        return None
    folds = operator.folds
    if folds is None:
        folds = [chiral_fold(core, s) for core, s in zip(operator.cores, signs)]
    if not n_max * max(fold[3] for fold in folds) <= NORM_DRIFT_TOL:
        return None
    width = rows.shape[1]
    # a mirrored state holds sector -1 with its m ladder reversed
    jz_sign = np.array([1.0, -1.0])[:width]
    moments = np.zeros((n_max + 1, 3))
    for (a, b, k, _), s, frame, core_rows in zip(folds, signs, operator.frame, rows):
        # O^T, as the states are rows; psi^T conj(frame) without a conjugated frame
        o_t = np.block([[a.T, k], [-k.T, b.T]])
        x = fold_states((core_rows.conj() @ frame).conj(), s)
        x = np.concatenate([x.real, x.imag])
        kicks = np.empty((CHUNK,) + x.shape)
        for n in range(n_max + 1):
            if n:
                x = x @ o_t
            kicks[n % CHUNK] = x
            if n % CHUNK == CHUNK - 1 or n == n_max:
                done = kicks[:n % CHUNK + 1]
                y = unfold_states(done[:, :width] + 1j * done[:, width:], s)
                moments[n + 1 - len(done):n + 1] += _band_moments(y, band, jz_sign)
    return moments


def stroboscopic_series(operator: FloquetOperator, psi0: np.ndarray,
                        n_max: int) -> DynamicsSeries:
    """Evolve psi0 by repeated application of the one-period unitary.

    Each distinct core (FloquetOperator.cores) evolves its sector; with
    one, sector -1 is evolved through its mirror (FloquetOperator.mirror)
    beside sector +1.  With delta = 0 the kicks are real products on the
    chiral fold of each core (_folded_moments), else, or when the fold
    drops too much of a core, complex products on the sector blocks
    (_batched_moments).  Raises ValueError unless psi0 is a finite,
    normalized vector of the coupled space, and NumericalError naming
    the first kick at which the state norm has drifted by more than
    NORM_DRIFT_TOL.  Entry 0 of the series is the initial state.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    psi0 = _check_state(psi0, operator.two_j)
    # each sector holds one state per m, in ascending m
    plus, minus = (psi0[idx].astype(complex) for idx in sector_indices(operator.two_j))
    # the states in rows[k] are evolved by core k
    if len(operator.cores) == 1:
        rows = np.stack([plus, operator.mirror(minus)])[None]
    else:
        rows = np.stack([plus, minus])[:, None]
    moments = _folded_moments(operator, rows, n_max)
    if moments is None:
        moments = _batched_moments(operator, rows.swapaxes(1, 2), n_max)

    drift = np.abs(np.sqrt(moments[:, 0]) - 1.0)
    drifted = np.flatnonzero(~(drift <= NORM_DRIFT_TOL))   # a NaN drift counts
    if drifted.size:
        n = drifted[0]
        raise NumericalError(f"norm drifted by {drift[n]:.2e} at kick {n}")
    return _jz_series(operator.two_j, operator.params, moments)


def eigenbasis_series(spectrum: QuasiSpectrum, psi0: np.ndarray,
                      n_max: int) -> DynamicsSeries:
    """Same series computed by phase evolution in the eigenbasis.

    Cross-check for stroboscopic_series: expand psi0 over each sector's
    eigenvectors, attach exp(-i n eps) phases, transform back.  Raises
    ValueError like stroboscopic_series for psi0.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    psi0 = _check_state(psi0, spectrum.two_j)
    n = np.arange(n_max + 1)
    weights = 0.0
    for idx, eps, vecs in zip(sector_indices(spectrum.two_j), spectrum.epsilons,
                              spectrum.vectors):
        coeffs = vecs.conj().T @ psi0[idx]
        weights = weights + np.abs((np.exp(-1j * np.outer(n, eps)) * coeffs) @ vecs.T) ** 2
    return _jz_series(spectrum.two_j, spectrum.params, _weight_moments(spectrum.two_j, weights))


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
