"""A seeded differential test of the public outputs against an oracle
that the test builds itself.

The oracle is dense_oracle, which imports nothing from kickedtop: each
kick is the eigh exponential of the Kronecker generator
(kappa/j) J_a sigma_a + delta sigma_z on the coupled space, and the
parity sectors come from the diagonal of exp(-i pi (Jz + sigma_z/2)),
times i at even 2j.  Every draw is checked for all three variants at
delta = 0 and for plain at a drawn delta > 0: eigenphase sets per
sector, the spacing ratio r, n_bound, the stage and the stroboscopic
<Jz>/j.  Where both kicks are positive and no two
levels of a sector lie closer than S2_SPACING_FLOOR, which leaves every
eigenvector unique up to a phase, it also checks the sphere-averaged
entropy on a small grid against an S2 from the eigenvectors of eig and
the oracle's coherent probes exp(-i phi Jz) exp(-i theta Jy) |j, j> (127
of the 192 cases, from 37 of the 38 draws with both kicks positive).
The draws at two_j 18-65 also check the operator's fold basis, for all
three variants at delta = 0 and for plain at the drawn delta > 0: its
frame, which carries no kick, splits the spin (each + state on the
spin-up rows, each - state on the spin-down rows), Jz there is the real
band of FloquetOperator.jz_band, and the plain half y kick that turns
the core's fold basis to the frame's is the oracle's pair kick
(FloquetOperator.half_kick).  Huge kicks (kappa >= 1e12) are left to
test_spectral.test_huge_kicks_keep_the_core_unitary: there kappa * lambda
mod 2 pi loses about kappa * 1e-16 in any oracle.
"""

import numpy as np
import pytest

import dense_oracle
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
    u = dense_oracle.unitary(two_j, kx, ky, variant, delta)
    oracle = [dense_oracle.phases(block) for block in dense_oracle.blocks(u)]
    eps = sector_eigenphases(op)
    for s in range(2):
        assert _circle_gaps(eps[s], oracle[s]).max() < 1e-12

    assert stage_classify(kx, ky, two_j) == STAGE_NAMES[stage]

    if two_j >= 2 and min(np.diff(np.sort(e)).min() for e in oracle) >= 1e-6:
        r = sum(_oracle_r(e) for e in oracle) / 2.0   # both sectors weigh 2j - 1 ratios
        assert parity_resolved_r(eps)["r_mean"] == pytest.approx(r, abs=1e-9)

    if kx > 0.0 and ky > 0.0 and min(_circle_spacing(e) for e in oracle) > S2_SPACING_FLOOR:
        s2 = sphere_averaged_s2(quasi_spectrum(op), probe_columns(two_j, sphere_grid(*S2_GRID)))
        n_theta, n_phi = S2_GRID
        probes = dense_oracle.coherent_probes(
            two_j, np.arccos(np.polynomial.legendre.leggauss(n_theta)[0]),
            2.0 * np.pi * np.arange(n_phi) / n_phi)
        oracle_s2 = dense_oracle.s2(dense_oracle.eigenbasis(u), probes).reshape(S2_GRID)
        assert np.abs(s2.s2_nodes - oracle_s2).max() < 1e-10

    distance = np.concatenate([np.minimum(np.abs(e), np.abs(np.pi - np.abs(e))) for e in oracle])
    if np.abs(distance - BOUND_TOL).min() > 1e-9:
        assert int(bound_window(eps, BOUND_TOL)[1].sum()) == int((distance <= BOUND_TOL).sum())

    psi = dense_oracle.coherent_probes(two_j, [np.arccos(0.5)], [0.0], spin=[1.0, 0.0])[0]
    dense = dense_oracle.jz_series(u, psi, N_KICKS)[0]
    series = stroboscopic_series(op, psi, N_KICKS)
    j = two_j / 2.0
    assert np.abs(series.jz_mean / j - dense / j).max() < 1e-10


def _large_cases():
    for i, (two_j, stage, kx, ky, delta) in enumerate(DRAWS[40:], start=40):
        for variant in ("plain", "sym1", "sym2"):
            yield pytest.param(two_j, kx, ky, 0.0, variant, id=f"{i}-{two_j}-{variant}")
        yield pytest.param(two_j, kx, ky, delta, "plain", id=f"{i}-{two_j}-plain-delta")


@pytest.mark.parametrize("two_j, kx, ky, delta, variant", _large_cases())
def test_fold_basis_frame_and_jz_band_match_the_dense_oracle(two_j, kx, ky, delta, variant):
    # the blocks that the frames and cores give are held against U by the
    # eigenphases and <Jz>/j of test_public_outputs_match_the_dense_oracle
    op = floquet_operator(KickParams(kx, ky, delta=delta, variant=variant), two_j)
    jz = np.kron(dense_oracle.spin_matrices(two_j)["z"], np.eye(2))
    d, j = two_j + 1, two_j / 2.0
    # the plain half y kick turns each pair (+k, -k) by
    # exp(-i (ky lam_k sigma_x + delta sigma_z) / 2), lam_k the k-th eigenvalue
    # of Jx / j, and the middle state of odd d by the phase of its side
    half = dense_oracle.pair_kicks(two_j, ky / 2.0, delta / 2.0)
    if variant == "plain":
        a, s = op.half_kick
        assert np.abs(a - half[:, 0, 0]).max() < 1e-13
        assert np.abs(-1j * s - half[:, 0, 1]).max() < 1e-13
    else:
        assert op.half_kick is None
    diags, offs = op.jz_band
    for sector, (idx, (a, _, _), diag, off) in enumerate(zip(dense_oracle.sectors(two_j), op.folds,
                                                            diags, offs)):
        frame = op.frame[sector]
        n = len(a)
        assert n in (d // 2, (d + 1) // 2)
        up = idx % 2 == 0
        assert np.abs(frame[~up, :n]).max() < 1e-13 and np.abs(frame[up, n:]).max() < 1e-13
        phases = np.where(np.arange(d) < n, 1.0, 1j)
        folded = phases.conj()[:, None] * (frame.conj().T @ jz[np.ix_(idx, idx)] @ frame) * phases
        band = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.abs(folded - band).max() < 1e-12 * j
