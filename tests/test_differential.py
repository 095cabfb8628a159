"""A seeded differential test of the public outputs against an oracle
that the test builds itself.

The oracle imports nothing from kickedtop: the spin matrices come from
the ladder elements, each kick is scipy.linalg.expm of the Kronecker
generator (kappa/j) J_a sigma_a + delta sigma_z on the coupled space,
and the parity sectors come from the diagonal of
exp(-i pi (Jz + sigma_z/2)), times i at even 2j.  Every draw is checked
for all three variants at delta = 0 and for plain at a drawn delta > 0:
eigenphase sets per sector, the spacing ratio r, n_bound, the stage and
the stroboscopic <Jz>/j.  Where both kicks are positive and no two
levels of a sector lie closer than S2_SPACING_FLOOR, which leaves every
eigenvector unique up to a phase, it also checks the sphere-averaged
entropy on a small grid against an S2 from the eigenvectors of eig and
coherent probes exp(-i phi Jz) exp(-i theta Jy) |j, j> built here (127
of the 192 cases, from 37 of the 38 draws with both kicks positive).
The draws at two_j 18-65 also check, at delta = 0, the operator's fold
basis: its frame splits the spin (each + state on the spin-up rows, each
- state on the spin-down rows, once the plain frame's half y kick is
turned back), and Jz there is the real band of
FloquetOperator.jz_band.  Huge kicks (kappa >= 1e12) are left to
test_spectral.test_huge_kicks_keep_the_core_unitary: there kappa * lambda
mod 2 pi loses about kappa * 1e-16 in any oracle.
"""

import functools

import numpy as np
import pytest
import scipy.linalg

from kickedtop.dynamics import stroboscopic_series
from kickedtop.floquet import KickParams, floquet_operator
from kickedtop.localization import probe_columns, sphere_averaged_s2, sphere_grid
from kickedtop.spectral import (bound_window, parity_resolved_r, quasi_spectrum,
                                sector_eigenphases, stage_classify)

STAGE_NAMES = ("topological", "quasi_integrable", "transition", "chaotic")
# the kick product of stage s is drawn from pi (2j+1) [EDGES[s], EDGES[s+1])
EDGES = (0.0, 0.25, 0.5, 1.0, 2.0)
BOUND_TOL = 0.05
N_KICKS = 50
# Gauss-Legendre nodes in cos(theta) and uniform azimuths of the S2 check: an
# even number of azimuths takes the mirrored sector path at even 2j
S2_GRID = (4, 6)
# levels of one sector closer than this are left out of the S2 check: their
# eigenvectors err by about 1e-14 over the spacing, and a degenerate pair's
# are the solver's choice
S2_SPACING_FLOOR = 1e-4
SIGMA = {"x": np.array([[0.0, 1.0], [1.0, 0.0]]),
         "y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
         "z": np.diag([1.0, -1.0])}


def _draws(n: int = 40, n_large: int = 8, seed: int = 20261019) -> list[tuple]:
    """(two_j, stage, kappa_x, kappa_y, delta) of each draw: n draws at
    two_j 1-17, then n_large at two_j 18-65 from the same stream.  Draw i
    takes stage i % 4 and the shape i % 5: kappa_x = 0, kappa_x = kappa_y,
    or kappa_y / kappa_x log-uniform in [1/4, 4]; so the first 40 draws
    hold each (stage, shape) pair twice.  With kappa_x = 0 the drawn
    product is kappa_y^2, and the stage is topological."""
    rng = np.random.default_rng(seed)
    draws = []
    for i in range(n + n_large):
        two_j = int(rng.integers(1, 18) if i < n else rng.integers(18, 66))
        stage, shape = i % 4, i % 5
        product = np.pi * (two_j + 1) * rng.uniform(EDGES[stage], EDGES[stage + 1])
        ratio = 1.0 if shape < 2 else float(np.exp(rng.uniform(-np.log(4.0), np.log(4.0))))
        kx = 0.0 if shape == 0 else float(np.sqrt(product / ratio))
        ky = float(np.sqrt(product)) if shape == 0 else kx * ratio
        draws.append((two_j, 0 if shape == 0 else stage, kx, ky, float(rng.uniform(0.1, 3.0))))
    return draws


DRAWS = _draws()


def _spin_matrices(two_j: int) -> dict:
    """Jx, Jy, Jz on the top space, m ascending, from J+ |m> = sqrt(j(j+1) - m(m+1)) |m+1>."""
    j = two_j / 2.0
    m = np.arange(two_j + 1) - j
    jp = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), -1)
    return {"x": (jp + jp.T) / 2.0, "y": (jp - jp.T) / 2.0j, "z": np.diag(m)}


@functools.lru_cache(maxsize=8)
def _kick(two_j: int, axis: str, kappa: float, delta: float) -> np.ndarray:
    """expm(-i [(kappa/j) J_a sigma_a + delta sigma_z]) on the coupled space;
    the variants of one draw share their kicks, and its cases run in turn."""
    gen = kappa / (two_j / 2.0) * np.kron(_spin_matrices(two_j)[axis], SIGMA[axis])
    gen = gen + delta * np.kron(np.eye(two_j + 1), SIGMA["z"])
    return scipy.linalg.expm(-1j * gen)


def _oracle_unitary(two_j: int, kx: float, ky: float, delta: float, variant: str) -> np.ndarray:
    if variant == "plain":
        return _kick(two_j, "y", ky, delta) @ _kick(two_j, "x", kx, delta)
    if variant == "sym1":
        half = _kick(two_j, "y", ky / 2.0, 0.0)
        return half @ _kick(two_j, "x", kx, 0.0) @ half
    half = _kick(two_j, "x", kx / 2.0, 0.0)
    return half @ _kick(two_j, "y", ky, 0.0) @ half


def _oracle_sectors(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the +1 and -1 eigenvalues of the parity operator."""
    jz_plus_half_sz = np.kron(_spin_matrices(two_j)["z"], np.eye(2)) + np.kron(
        np.eye(two_j + 1), SIGMA["z"] / 2.0)
    parity = np.exp(-1j * np.pi * np.diag(jz_plus_half_sz)) * (1j if two_j % 2 == 0 else 1.0)
    assert np.abs(parity.imag).max() < 1e-12 and np.abs(np.abs(parity.real) - 1.0).max() < 1e-12
    return np.flatnonzero(parity.real > 0), np.flatnonzero(parity.real < 0)


@functools.lru_cache(maxsize=4)
def _oracle_probes(two_j: int) -> np.ndarray:
    """The coherent tops exp(-i phi Jz) exp(-i theta Jy) |j, j> times
    (|up> + |down>) / sqrt(2) at the nodes of S2_GRID, theta-major, one per
    row: Gauss-Legendre nodes in cos(theta), uniform azimuths."""
    n_theta, n_phi = S2_GRID
    spins = _spin_matrices(two_j)
    lam, v = np.linalg.eigh(spins["y"])
    thetas = np.arccos(np.polynomial.legendre.leggauss(n_theta)[0])
    tops = (v.conj()[-1] * np.exp(-1j * np.outer(thetas, lam))) @ v.T
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    tops = tops[:, None, :] * np.exp(-1j * np.outer(phis, np.diag(spins["z"])))
    return np.kron(tops.reshape(n_theta * n_phi, -1), [1.0, 1.0]) / np.sqrt(2.0)


def _oracle_s2(u: np.ndarray, two_j: int, sectors: tuple) -> np.ndarray:
    """S2 = -ln(IPR) / ln(2 (2j+1)) of each probe of _oracle_probes against
    the eigenvectors of eig of each sector block, as (n_theta, n_phi)."""
    probes = _oracle_probes(two_j)
    ipr = 0.0
    for idx in sectors:
        vectors = np.linalg.eig(u[np.ix_(idx, idx)])[1]
        ipr = ipr + (np.abs(probes[:, idx].conj() @ vectors) ** 4).sum(axis=1)
    return (-np.log(ipr) / np.log(u.shape[0])).reshape(S2_GRID)


def _oracle_phases(u: np.ndarray, idx: np.ndarray) -> np.ndarray:
    eps = -np.angle(np.linalg.eigvals(u[np.ix_(idx, idx)]))
    return np.where(eps <= -np.pi, eps + 2.0 * np.pi, eps)


def _circle_gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matched distances on the circle between two phase sets of one size,
    multiplicities included: both are cut in the middle of the widest gap
    of b, then sorted."""
    b_sorted = np.sort(b)
    gaps = np.diff(np.append(b_sorted, b_sorted[0] + 2.0 * np.pi))
    cut = b_sorted[np.argmax(gaps)] + 0.5 * gaps.max()
    unwrapped = [np.sort(np.mod(x - cut, 2.0 * np.pi)) for x in (a, b)]
    return np.abs(np.angle(np.exp(1j * (unwrapped[0] - unwrapped[1]))))


def _circle_spacing(eps: np.ndarray) -> float:
    """The smallest gap on the circle between neighbouring phases."""
    e = np.sort(eps)
    return float(np.diff(np.append(e, e[0] + 2.0 * np.pi)).min())


def _oracle_r(eps: np.ndarray) -> float:
    """Mean of min/max of neighbouring spacings of the sorted phases."""
    s = np.diff(np.sort(eps))
    return float((np.minimum(s[1:], s[:-1]) / np.maximum(s[1:], s[:-1])).mean())


def _cases():
    for i, (two_j, stage, kx, ky, delta) in enumerate(DRAWS):
        for variant, d in (("plain", 0.0), ("sym1", 0.0), ("sym2", 0.0), ("plain", delta)):
            yield pytest.param(two_j, stage, kx, ky, d, variant,
                               id=f"{i}-{two_j}-{variant}-{'delta' if d else '0'}")


def test_draws_cover_the_stages_parities_and_shapes():
    for draws, lo, hi in ((DRAWS[:40], 1, 17), (DRAWS[40:], 18, 65)):
        two_js = {d[0] for d in draws}
        assert {two_j % 2 for two_j in two_js} == {0, 1}
        assert min(two_js) >= lo and max(two_js) <= hi
        assert {d[1] for d in draws} == set(range(4))
    assert any(d[2] == 0.0 for d in DRAWS) and any(0.0 < d[2] == d[3] for d in DRAWS)
    assert all(0.1 < d[4] < 3.0 for d in DRAWS)


@pytest.mark.parametrize("two_j, stage, kx, ky, delta, variant", _cases())
def test_public_outputs_match_the_dense_oracle(two_j, stage, kx, ky, delta, variant):
    op = floquet_operator(KickParams(kx, ky, delta=delta, variant=variant), two_j)
    u = _oracle_unitary(two_j, kx, ky, delta, variant)
    sectors = _oracle_sectors(two_j)
    oracle = [_oracle_phases(u, idx) for idx in sectors]
    eps = sector_eigenphases(op)
    for s in range(2):
        assert _circle_gaps(eps[s], oracle[s]).max() < 1e-12

    assert stage_classify(kx, ky, two_j) == STAGE_NAMES[stage]

    if two_j >= 2 and min(np.diff(np.sort(e)).min() for e in oracle) >= 1e-6:
        r = sum(_oracle_r(e) for e in oracle) / 2.0   # both sectors weigh 2j - 1 ratios
        assert parity_resolved_r(eps)["r_mean"] == pytest.approx(r, abs=1e-9)

    if kx > 0.0 and ky > 0.0 and min(_circle_spacing(e) for e in oracle) > S2_SPACING_FLOOR:
        s2 = sphere_averaged_s2(quasi_spectrum(op), probe_columns(two_j, sphere_grid(*S2_GRID)))
        assert np.abs(s2.s2_nodes - _oracle_s2(u, two_j, sectors)).max() < 1e-10

    distance = np.concatenate([np.minimum(np.abs(e), np.abs(np.pi - np.abs(e))) for e in oracle])
    if np.abs(distance - BOUND_TOL).min() > 1e-9:
        assert int(bound_window(eps, BOUND_TOL)[1].sum()) == int((distance <= BOUND_TOL).sum())

    j = two_j / 2.0
    top = scipy.linalg.expm(-1j * np.arccos(0.5) * _spin_matrices(two_j)["y"])[:, -1]
    psi = np.kron(top, [1.0, 0.0])
    jz = np.kron(_spin_matrices(two_j)["z"], np.eye(2))
    dense = []
    for _ in range(N_KICKS + 1):
        dense.append(np.vdot(psi, jz @ psi).real / j)
        psi = u @ psi
    series = stroboscopic_series(op, np.kron(top, [1.0, 0.0]), N_KICKS)
    assert np.abs(series.jz_mean / j - dense).max() < 1e-10


def _large_cases():
    for i, (two_j, stage, kx, ky, delta) in enumerate(DRAWS[40:], start=40):
        for variant in ("plain", "sym1", "sym2"):
            yield pytest.param(two_j, kx, ky, variant, id=f"{i}-{two_j}-{variant}")


@pytest.mark.parametrize("two_j, kx, ky, variant", _large_cases())
def test_fold_basis_frame_and_jz_band_match_the_dense_oracle(two_j, kx, ky, variant):
    # the blocks that the frames and cores give are held against U by the
    # eigenphases and <Jz>/j of test_public_outputs_match_the_dense_oracle
    op = floquet_operator(KickParams(kx, ky, variant=variant), two_j)
    spins = _spin_matrices(two_j)
    jz = np.kron(spins["z"], np.eye(2))
    d, m, j = two_j + 1, (two_j + 1) // 2, two_j / 2.0
    # the plain frame carries the half y kick, which turns each pair (+k, -k) by
    # [[cos, -i sin], [-i sin, cos]] of half the kick angle of the k-th eigenvalue of Jx / j
    angle = 0.5 * ky * np.linalg.eigvalsh(spins["x"].real)[:m] / j if variant == "plain" else 0.0
    diags, offs, _ = op.jz_band
    for sector, (idx, (a, _, _), diag, off) in enumerate(zip(_oracle_sectors(two_j), op.folds,
                                                            diags, offs)):
        frame = op.frame[sector]
        n = len(a)
        assert n in (d // 2, (d + 1) // 2)
        turn = np.eye(d, dtype=complex)
        pairs = np.arange(m)
        turn[pairs, pairs] = turn[n + pairs, n + pairs] = np.cos(angle)
        turn[pairs, n + pairs] = turn[n + pairs, pairs] = -1j * np.sin(angle)
        split = frame @ turn.conj().T
        up = idx % 2 == 0
        assert np.abs(split[~up, :n]).max() < 1e-13 and np.abs(split[up, n:]).max() < 1e-13
        phases = np.where(np.arange(d) < n, 1.0, 1j)
        folded = phases.conj()[:, None] * (split.conj().T @ jz[np.ix_(idx, idx)] @ split) * phases
        band = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.abs(folded - band).max() < 1e-12 * j
