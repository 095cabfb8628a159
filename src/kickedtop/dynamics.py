"""Stroboscopic evolution and the regular-versus-chaotic dynamical probe.

An initial product state |theta0, 0> (x) |up> is kicked repeatedly; the
mean and standard deviation of Jz after each kick distinguish a state
pinned to a bound-state location (mean stays near its initial value)
from chaotic spreading (mean decays to zero, the deviation approaches
the uniform-ensemble value j/sqrt(3)).
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


@dataclass
class DynamicsSeries:
    """Kick-resolved Jz statistics (in units of hbar)."""

    two_j: int
    params: KickParams
    n: np.ndarray
    jz_mean: np.ndarray
    jz_std: np.ndarray


def _jz_series(two_j: int, params: KickParams, weights) -> DynamicsSeries:
    """The Jz mean and standard deviation after each kick, from an iterable
    of per-kick occupation weights on the m ladder (ascending m)."""
    jz_diag = m_values(two_j)
    means, stds = [], []
    for w in weights:
        m1 = float(jz_diag @ w)
        m2 = float((jz_diag ** 2) @ w)
        means.append(m1)
        stds.append(math.sqrt(max(m2 - m1 * m1, 0.0)))
    return DynamicsSeries(two_j=two_j, params=params, n=np.arange(len(means)),
                          jz_mean=np.array(means), jz_std=np.array(stds))


def stroboscopic_series(operator: FloquetOperator, psi0: np.ndarray,
                        n_max: int) -> DynamicsSeries:
    """Evolve psi0 by repeated application of the one-period unitary.

    The state is kicked one parity sector at a time with the two
    (2j+1)-dimensional sector blocks.  Aborts with NumericalError if the
    state norm drifts by more than 1e-8 at any kick.  Entry 0 of the
    series is the initial state.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")
    blocks = operator.sector_blocks()

    def weights():
        # each sector holds one state per m, in ascending m
        sectors = [psi0[idx].astype(complex) for idx in sector_indices(operator.two_j)]
        for n in range(n_max + 1):
            if n > 0:
                sectors = [block @ psi for block, psi in zip(blocks, sectors)]
                drift = abs(math.hypot(*(np.linalg.norm(psi) for psi in sectors)) - 1.0)
                if drift > NORM_DRIFT_TOL:
                    raise NumericalError(f"norm drifted by {drift:.2e} at kick {n}")
            yield sum(np.abs(psi) ** 2 for psi in sectors)

    return _jz_series(operator.two_j, operator.params, weights())


def eigenbasis_series(spectrum: QuasiSpectrum, psi0: np.ndarray,
                      n_max: int) -> DynamicsSeries:
    """Same series computed by phase evolution in the eigenbasis.

    Cross-check for stroboscopic_series: expand psi0 over each sector's
    eigenvectors, attach exp(-i n eps) phases, transform back.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    coeffs = [vecs.conj().T @ psi0[idx] for idx, vecs
              in zip(sector_indices(spectrum.two_j), spectrum.vectors)]
    weights = (sum(np.abs(vecs @ (np.exp(-1j * eps * n) * c)) ** 2
                   for eps, vecs, c in zip(spectrum.epsilons, spectrum.vectors, coeffs))
               for n in range(n_max + 1))
    return _jz_series(spectrum.two_j, spectrum.params, weights)


@dataclass
class ScanColumn:
    """One allowed-kick-strength column of a dynamical scan."""

    n_x: int
    kappa_x: float
    series: DynamicsSeries
    late_mean: float            # mean of <Jz>/j over the last 20% of kicks
    late_std: float             # mean of sigma/j over the same window


def dynamical_scan(two_j: int, kappa_y: float, z0: float, n_x_list,
                   n_max: int, delta: float = 0.0,
                   variant: str = "plain") -> list[ScanColumn]:
    """Evolve the z0 probe at every allowed kappa_x from the n_x ladder.

    The initial state is |arccos(z0), 0> (x) |up>.  Raises ValueError if
    |z0| >= 1 or if any requested n_x has no real allowed kick strength.
    """
    if not abs(z0) < 1.0:
        raise ValueError(f"|z0| must be < 1, got {z0!r}")
    psi0 = product_state(two_j, coherent_state(two_j, math.acos(z0), 0.0),
                         np.array([1.0, 0.0]))
    j = two_j / 2.0
    columns = []
    for n_x in n_x_list:
        kappa_x = allowed_kappa_x(z0, kappa_y, n_x)
        if kappa_x is None:
            raise ValueError(f"no allowed kappa_x for n_x = {n_x} at kappa_y = {kappa_y}")
        params = KickParams(kappa_x=kappa_x, kappa_y=kappa_y, delta=delta, variant=variant)
        series = stroboscopic_series(floquet_operator(params, two_j), psi0, n_max)
        window = max(1, n_max // 5)
        columns.append(ScanColumn(
            n_x=int(n_x),
            kappa_x=kappa_x,
            series=series,
            late_mean=float(series.jz_mean[-window:].mean() / j),
            late_std=float(series.jz_std[-window:].mean() / j),
        ))
    return columns
