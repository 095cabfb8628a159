"""Stroboscopic evolution and the regular-versus-chaotic dynamical probe.

An initial product state |theta0, 0> (x) |up> is kicked repeatedly; the
mean and standard deviation of Jz after each kick distinguish a state
pinned to a bound-state location (mean stays near its initial value)
from chaotic spreading (mean decays to zero, the deviation approaches
the uniform-ensemble value j/sqrt(3)).

stroboscopic_series runs the recursion psi_{n+1} = B psi_n on the exact
(2j+1)-dimensional parity sectors, one distinct core at a time
(FloquetOperator.cores).  At even 2j sector -1 is evolved through its
mirror (floquet.conjugate_mirror) beside sector +1, by the core of
sector +1: the -1 block is G J conj(B) J G, with J the basis reversal
and G = diag((-1)^k), so B^n maps G J conj(psi_-) to G J conj(psi_-(n)),
and the mirrored state's m ladder is that of sector -1 reversed.

Each core is stored on its fold basis, where it is M = D O D^dag with
D = 1 on the + states and i on the - states and O = [[A, -K], [K^T, B]]
unitary, from the blocks that the operator keeps (FloquetOperator.folds,
real exactly when delta = 0; derived in the floquet module docstring).
A state enters as x = D^dag frame^dag psi, kept as its real and
imaginary parts side by side, and each kick is O x: one real product
where O is real, two (with Re O and Im O) where it is not.  <Jz> needs
no m-ladder projection: in the eigenbasis of Jx, Jz is tridiagonal, and
it keeps the spin, so on the fold basis it is a real band that D leaves
alone (FloquetOperator.jz_band), which gives the norm, <Jz> and <Jz^2>
of every kick from x in O(2j) steps.  The frames carry no kick, so x
enters on the band's basis as it is; for plain the core is turned once
by the half y kick, a turn of each pair (+k, -k)
(FloquetOperator.half_kick), onto that basis.

The norm of every kick is checked against NORM_DRIFT_TOL.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .floquet import FloquetOperator, KickParams, conjugate_mirror, floquet_operator, turn_fold
from .meanfield import allowed_kappa_x
from .spin import coherent_state, product_state
from .symmetry import sector_indices

NORM_DRIFT_TOL = 1e-8

# kicks whose real states the kick loop keeps at once for their moments
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


def _band_moments(x: np.ndarray, band: tuple, jz_sign: np.ndarray) -> np.ndarray:
    """The (n, 3) squared norm, <Jz> and <Jz^2> of n kicks, from their real
    fold-basis states x (n, c, d) and the real tridiagonal Jz of that basis
    (FloquetOperator.jz_band); row k's <Jz> counts with jz_sign[k]."""
    diag, off = band
    jz_x = diag * x
    jz_x[..., :-1] += off * x[..., 1:]
    jz_x[..., 1:] += off * x[..., :-1]
    return np.stack([np.einsum("ncd,ncd->n", x, x),
                     np.einsum("ncd,ncd->nc", x, jz_x) @ jz_sign,
                     np.einsum("ncd,ncd->n", jz_x, jz_x)], axis=1)


def _folded_moments(operator: FloquetOperator, rows: np.ndarray, n_max: int) -> np.ndarray:
    """The moments of every kick from the fold of each of `cores` (module
    docstring): the states x = D^dag frame^dag psi as rows, their real and
    imaginary parts apart, each kicked as x O^T.  The frames carry no
    kick, so x is on the basis of the band; for plain O is turned there
    by the half y kick, the pair kick H' = [[a, s], [-s, conj(a)]] of each
    pair (+k, -k) (FloquetOperator.half_kick), as H' O H'^dag: the rows of
    O^T by conj(H') and its columns by H'.
    """
    (diags, offs), turn = operator.jz_band, operator.half_kick
    width = rows.shape[1]
    # a mirrored state holds sector -1 with its m ladder reversed
    jz_sign = np.tile(np.array([1.0, -1.0])[:width], 2)
    moments = np.zeros((n_max + 1, 3))
    for (a, b, k), frame, band, core_rows in zip(operator.folds, operator.frame,
                                                 zip(diags, offs), rows):
        # O^T, as the states are rows; psi^T conj(frame) without a conjugated frame
        o_t = np.block([[a.T, k], [-k.T, b.T]])
        x = (core_rows.conj() @ frame).conj()
        n_plus = len(a)
        x[:, n_plus:] *= -1j
        if turn is not None:
            turn_fold(o_t, n_plus, (np.conj(turn[0]), turn[1]))
            turn_fold(o_t.T, n_plus, turn)
        x = np.concatenate([x.real, x.imag])
        o_re = np.ascontiguousarray(o_t.real)
        o_im = np.ascontiguousarray(o_t.imag) if np.iscomplexobj(o_t) else None
        kicks = np.empty((CHUNK,) + x.shape)
        for n in range(n_max + 1):
            if n:
                kicked = x @ o_re
                if o_im is not None:
                    # (x_re + i x_im) O^T, its real parts in the first width rows
                    swap = x @ o_im
                    kicked[:width] -= swap[width:]
                    kicked[width:] += swap[:width]
                x = kicked
            kicks[n % CHUNK] = x
            if n % CHUNK == CHUNK - 1 or n == n_max:
                done = kicks[:n % CHUNK + 1]
                moments[n + 1 - len(done):n + 1] += _band_moments(done, band, jz_sign)
    return moments


def stroboscopic_series(operator: FloquetOperator, psi0: np.ndarray,
                        n_max: int) -> DynamicsSeries:
    """Evolve psi0 by repeated application of the one-period unitary.

    Each distinct core (FloquetOperator.cores) evolves its sector; with
    one, sector -1 is evolved through its mirror (floquet.conjugate_mirror)
    beside sector +1, by the kicks of its fold (FloquetOperator.folds,
    which floquet_operator stores; _folded_moments).  Raises ValueError
    unless psi0 is a finite, normalized vector of the coupled space, and
    NumericalError naming the first kick at which the state norm has
    drifted by more than NORM_DRIFT_TOL.  Entry 0 of the series is the
    initial state.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    psi0 = _check_state(psi0, operator.two_j)
    # each sector holds one state per m, in ascending m
    plus, minus = (psi0[idx].astype(complex) for idx in sector_indices(operator.two_j))
    # the states in rows[k] are evolved by core k
    if len(operator.cores) == 1:
        rows = np.stack([plus, conjugate_mirror(minus)])[None]
    else:
        rows = np.stack([plus, minus])[:, None]
    moments = _folded_moments(operator, rows, n_max)

    drift = np.abs(np.sqrt(moments[:, 0]) - 1.0)
    drifted = np.flatnonzero(~(drift <= NORM_DRIFT_TOL))   # a NaN drift counts
    if drifted.size:
        n = drifted[0]
        raise NumericalError(f"norm drifted by {drift[n]:.2e} at kick {n}")
    means = moments[:, 1]
    stds = np.sqrt(np.maximum(moments[:, 2] - means ** 2, 0.0))
    return DynamicsSeries(two_j=operator.two_j, params=operator.params, n=np.arange(n_max + 1),
                          jz_mean=means, jz_std=stds)


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
