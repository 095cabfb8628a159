import dataclasses

import numpy as np
import pytest
from scipy.stats import ortho_group

from kickedtop import floquet, spectral
from kickedtop.errors import NumericalError
from kickedtop.floquet import (UNITARITY_TOL, VARIANTS, FloquetOperator, KickParams,
                               chiral_fold, floquet_operator, kick_unitary)
from kickedtop.spectral import (MIX, R_COE, R_CUE, R_POISSON, chiral_expectation,
                                detect_bound_states, mean_spacing_ratio,
                                parity_resolved_r, quasi_spectrum, sector_eigenpairs,
                                sector_eigenphases, stage_borders, stage_classify)
from kickedtop.spin import SIGMA_Z, probe_state
from kickedtop.symmetry import sector_indices, symmetry_operator


def _circle_set_distance(a, b):
    """Largest distance on the circle from a phase of one set to the nearest of the other."""
    gaps = np.abs(np.angle(np.exp(1j * (np.asarray(a)[:, None] - np.asarray(b)[None, :]))))
    return max(gaps.min(axis=1).max(), gaps.min(axis=0).max())


def test_identity_spectrum_is_zero():
    spec = quasi_spectrum(floquet_operator(KickParams(0.0, 0.0), 6))
    assert np.abs(spec.epsilons).max() < 1e-12


def test_branch_and_sorting():
    spec = quasi_spectrum(floquet_operator(KickParams(2.0, 3.0), 20))
    assert np.all(np.diff(spec.epsilons) >= 0)
    assert spec.epsilons.min() > -np.pi - 1e-12
    assert spec.epsilons.max() <= np.pi + 1e-12


def test_chiral_pairing_of_spectrum():
    # sigma_z commutes with parity, so the +-eps partners share a sector
    eps = quasi_spectrum(floquet_operator(KickParams(0.3, 0.3), 40)).epsilons
    assert np.abs(eps + eps[:, ::-1]).max() < 1e-9


@pytest.mark.parametrize("two_j", [14, 15])
def test_eigenpairs_and_parity_purity(two_j):
    op = floquet_operator(KickParams(1.7, 2.9), two_j)
    spec = quasi_spectrum(op)
    phases = np.exp(-1j * spec.epsilons)[:, None, :]
    residual = op.sector_blocks() @ spec.vectors - spec.vectors * phases
    assert np.linalg.norm(residual, axis=1).max() < 1e-8
    assert np.abs(np.linalg.norm(spec.vectors, axis=1) - 1.0).max() < 1e-12
    u = op.u
    pi_mat, _ = symmetry_operator("parity", two_j)
    for sector, sign in enumerate((1, -1)):
        for k, eps in enumerate(spec.epsilons[sector]):
            v = spec.state(sector, k)
            assert np.linalg.norm(u @ v - np.exp(-1j * eps) * v) < 1e-8
            value = np.vdot(v, pi_mat @ v).real
            assert abs(value) >= 1.0 - 1e-6
            assert np.sign(value) == sign


@pytest.mark.parametrize("solver", ["real", "schur"])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("two_j", [14, 15])
def test_sector_vectors_of_every_frame(monkeypatch, two_j, variant, solver):
    # sym1 and sym2 map real solver vectors through a real product; Schur's are complex
    if solver == "schur":
        monkeypatch.setattr(spectral, "sector_eigenpairs", spectral._schur_eigenpairs)
    op = floquet_operator(KickParams(1.7, 2.9, variant=variant), two_j)
    spec = quasi_spectrum(op)
    assert spec.vectors.dtype == complex
    phases = np.exp(-1j * spec.epsilons)[:, None, :]
    residual = op.sector_blocks() @ spec.vectors - spec.vectors * phases
    assert np.linalg.norm(residual, axis=1).max() < 1e-8
    assert np.abs(np.linalg.norm(spec.vectors, axis=1) - 1.0).max() < 1e-12
    if two_j % 2 == 0:    # sector -1 is the mirror of sector +1, reordered to -eps
        order = np.argsort(spectral._branch(-spec.epsilons[0]), kind="stable")
        assert np.array_equal(spec.vectors[1], op.mirror(spec.vectors[0])[:, order])


def test_exchange_symmetry_of_quasi_energies():
    a = quasi_spectrum(floquet_operator(KickParams(1.3, 3.1), 20)).epsilons
    b = quasi_spectrum(floquet_operator(KickParams(3.1, 1.3), 20)).epsilons
    assert np.abs(a - b).max() < 1e-9


def test_sector_eigenphases_match_full_spectrum():
    op = floquet_operator(KickParams(2.2, 0.9), 12)
    assert np.abs(sector_eigenphases(op) - quasi_spectrum(op).epsilons).max() < 1e-10


@pytest.mark.parametrize("two_j", [5, 6])
def test_non_unitary_rejected(two_j):
    op = floquet_operator(KickParams(1.0, 1.0), two_j)
    # complex-symmetric noise keeps M = M^T, the structure the real solver relies on
    rng = np.random.default_rng(two_j)
    noise = rng.standard_normal(op.core.shape) + 1j * rng.standard_normal(op.core.shape)
    noise += noise.swapaxes(-1, -2)
    noise *= 1e-6 / np.abs(noise).max()
    for core in (op.core * 1.001, op.core + noise):
        bad = FloquetOperator(core=core, frame=op.frame, params=op.params, two_j=two_j)
        with pytest.raises(NumericalError):
            quasi_spectrum(bad)
        with pytest.raises(NumericalError):
            sector_eigenphases(bad)


def _dense_sector_blocks(kx, ky, two_j, variant, delta=0.0):
    """The parity-sector blocks of the dense kick_unitary product."""
    x, y = kick_unitary("x", kx, two_j, delta), kick_unitary("y", ky, two_j, delta)
    if variant == "plain":
        dense = y @ x
    elif variant == "sym1":
        half = kick_unitary("y", ky / 2.0, two_j)
        dense = half @ x @ half
    else:
        half = kick_unitary("x", kx / 2.0, two_j)
        dense = half @ y @ half
    return np.stack([dense[np.ix_(idx, idx)] for idx in sector_indices(two_j)])


@pytest.mark.parametrize("two_j", [6, 7, 64, 65])
@pytest.mark.parametrize("variant, delta", [("plain", 0.0), ("sym1", 0.0), ("sym2", 0.0),
                                            ("plain", 0.7)])
def test_sector_eigenphases_match_dense_oracle(two_j, variant, delta):
    kx, ky = 1.9, 17.0
    op = floquet_operator(KickParams(kx, ky, delta=delta, variant=variant), two_j)
    # compared as sets on the circle: a level at pi may sit at either end of (-pi, pi]
    for eps, block in zip(sector_eigenphases(op),
                          _dense_sector_blocks(kx, ky, two_j, variant, delta)):
        oracle = -np.angle(np.linalg.eigvals(block))
        assert _circle_set_distance(eps, oracle) < 1e-12


@pytest.mark.parametrize("two_j", [6, 64, 200])
@pytest.mark.parametrize("variant", VARIANTS)
def test_sectors_are_twins_at_even_two_j_without_delta(two_j, variant):
    # at even 2j the pi rotation about x commutes with both kicks, anticommutes
    # with parity and reverses m: the -1 block is the +1 block reversed in both
    # indices.  Checked on the dense product, which does not use that relation
    plus, minus = _dense_sector_blocks(1.9, 17.0, two_j, variant)
    assert np.abs(minus - plus[::-1, ::-1]).max() < 1e-12
    op = floquet_operator(KickParams(1.9, 17.0, variant=variant), two_j)
    assert np.abs(op.sector_blocks() - np.stack([plus, minus])).max() < 1e-12


def _conjugate_mirror(block):
    """G J conj(block) J G, with J the basis reversal and G = diag((-1)^k)."""
    g = 1.0 - 2.0 * (np.arange(len(block)) % 2)
    return np.outer(g, g) * block[::-1, ::-1].conj()


@pytest.mark.parametrize("two_j, variant, delta", [
    *((two_j, variant, 0.0) for two_j in (6, 64, 200, 7, 65) for variant in VARIANTS),
    *((two_j, "plain", delta) for two_j in (6, 64, 200, 7, 65) for delta in (0.7, 5.0))])
def test_sectors_are_conjugate_mirrors_only_at_even_two_j(two_j, variant, delta):
    # at even 2j the -1 block is G J conj(+1 block) J G for every delta and
    # ordering, and at odd 2j it is not.  Checked on the dense product, which
    # does not use that relation
    plus, minus = _dense_sector_blocks(1.9, 17.0, two_j, variant, delta)
    defect = np.abs(minus - _conjugate_mirror(plus)).max()
    op = floquet_operator(KickParams(1.9, 17.0, delta=delta, variant=variant), two_j)
    if two_j % 2:
        assert defect > 1e-3
        assert len(op.cores) == 2
        return
    assert defect < 1e-12
    assert len(op.cores) == 1
    assert np.abs(op.sector_blocks() - np.stack([plus, minus])).max() < 1e-12


@pytest.mark.parametrize("two_j, variant, delta, solver", [
    pytest.param(two_j, variant, delta, solver,
                 id=f"{two_j}-{solver}" if delta else f"{two_j}-{variant}-{solver}")
    for two_j in (14, 64) for variant, delta in (("plain", 0.7), *((v, 0.0) for v in VARIANTS))
    for solver in ("real", "schur")])
def test_conjugate_twin_eigenpairs_match_dense_blocks(monkeypatch, two_j, variant, delta,
                                                      solver):
    # sector -1 is derived, eps_- = -eps_+ and v_- = G J conj(v_+) reordered:
    # both sectors' eigenpairs must hold on the dense product
    if solver == "schur":
        monkeypatch.setattr(spectral, "sector_eigenpairs", spectral._schur_eigenpairs)
    kx, ky = 1.9, 17.0
    op = floquet_operator(KickParams(kx, ky, delta=delta, variant=variant), two_j)
    assert len(op.cores) == 1
    spec = quasi_spectrum(op)
    assert np.all(np.diff(spec.epsilons) >= 0)
    assert _circle_set_distance(spec.epsilons[1], -spec.epsilons[0]) < 1e-14
    phases = np.exp(-1j * spec.epsilons)[:, None, :]
    blocks = _dense_sector_blocks(kx, ky, two_j, variant, delta)
    for stack in (blocks, op.sector_blocks()):
        residual = stack @ spec.vectors - spec.vectors * phases
        assert np.linalg.norm(residual, axis=1).max() < 1e-8
    assert np.abs(np.linalg.norm(spec.vectors, axis=1) - 1.0).max() < 1e-12
    gram = spec.vectors.conj().swapaxes(-1, -2) @ spec.vectors
    assert np.abs(gram - np.eye(two_j + 1)).max() < 1e-12
    assert np.abs(sector_eigenphases(op) - spec.epsilons).max() < 1e-10


@pytest.mark.parametrize("two_j, variant, delta", [
    *((two_j, variant, 0.0) for two_j in (7, 65, 201) for variant in VARIANTS),
    *((two_j, "plain", 0.7) for two_j in (6, 64, 200, 7, 65, 201))])
def test_sectors_differ_at_odd_two_j_or_with_delta(two_j, variant, delta):
    op = floquet_operator(KickParams(1.9, 17.0, delta=delta, variant=variant), two_j)
    eps_plus, eps_minus = sector_eigenphases(op)
    assert _circle_set_distance(eps_plus, eps_minus) > 1e-3


@pytest.mark.parametrize("two_j, delta, solves", [(12, 0.0, 1), (13, 0.0, 2), (12, 0.7, 1),
                                                  (13, 0.7, 2)])
def test_twin_sectors_are_solved_once(monkeypatch, two_j, delta, solves):
    # sector_eigenphases solves each distinct core with core_eigenphases,
    # quasi_spectrum with sector_eigenpairs
    op = floquet_operator(KickParams(1.9, 17.0, delta=delta), two_j)
    calls = {"core_eigenphases": [], "sector_eigenpairs": []}
    for name in calls:
        solve = getattr(spectral, name)
        monkeypatch.setattr(spectral, name,
                            lambda *a, solve=solve, name=name: calls[name].append(1) or solve(*a))
    sector_eigenphases(op)
    assert len(calls["core_eigenphases"]) == solves
    calls["sector_eigenpairs"].clear()
    quasi_spectrum(op)
    assert len(calls["sector_eigenpairs"]) == solves


def _reversal(signs):
    """The signed reversal J e_k = signs_k e_{d-1-k} as a matrix."""
    return np.diag(signs)[:, ::-1]


@pytest.mark.parametrize("two_j", [6, 7, 64, 65])
@pytest.mark.parametrize("variant", VARIANTS)
def test_chiral_reversal_conjugates_every_core(two_j, variant):
    # the invariant the fold rests on, on cores taken from the dense product
    kx, ky = 1.9, 17.0
    op = floquet_operator(KickParams(kx, ky, variant=variant), two_j)
    assert op.reversals.shape == (len(op.cores), two_j + 1)
    assert np.array_equal(np.abs(op.reversals), np.ones(op.reversals.shape))
    z = np.diag(np.kron(np.eye(two_j + 1), SIGMA_Z).real)
    blocks = _dense_sector_blocks(kx, ky, two_j, variant)
    for k, (core, signs) in enumerate(zip(op.cores, op.reversals)):
        frame = op.frame[k]
        oracle = frame.conj().T @ blocks[k] @ frame
        assert np.abs(oracle - core).max() < 1e-12
        j = _reversal(signs)
        assert np.abs(j @ oracle @ j - oracle.conj()).max() < 1e-12
        if variant != "plain":  # a real frame: the sector's sigma_z is J on the core basis
            sigma_z = frame.conj().T @ (z[sector_indices(two_j)[k]][:, None] * frame)
            assert np.abs(sigma_z - j).max() < 1e-12


@pytest.mark.parametrize("two_j", [1, 2, 6, 7, 64, 65, 200, 201])
def test_stored_fold_matches_the_fold_of_the_dense_core(two_j):
    # the fold built from C+ and C- against chiral_fold of the dense product
    # mapped onto the core basis, every variant from one set of dense kicks
    kx, ky = 1.9, 17.0
    half_x, half_y = kick_unitary("x", kx / 2.0, two_j), kick_unitary("y", ky / 2.0, two_j)
    x, y = half_x @ half_x, half_y @ half_y
    dense = {"plain": y @ x, "sym1": half_y @ x @ half_y, "sym2": half_x @ y @ half_x}
    for variant in VARIANTS:
        op = floquet_operator(KickParams(kx, ky, variant=variant), two_j)
        assert len(op.folds) == len(op.cores)
        for k, (fold, signs) in enumerate(zip(op.folds, op.reversals)):
            idx = sector_indices(two_j)[k]
            frame = op.frame[k]
            oracle = chiral_fold(frame.conj().T @ dense[variant][np.ix_(idx, idx)] @ frame, signs)
            assert fold[3] == 0.0
            for built, read in zip(fold[:3], oracle[:3]):
                assert built.shape == read.shape
                assert np.abs(built - read).max() < 1e-13


@pytest.mark.parametrize("two_j", [6, 7])
def test_uncertified_overlap_split_takes_the_complex_build(monkeypatch, two_j):
    # an overlap C that does not split into C+ and C- at UNITARITY_TOL leaves
    # the halves uncached: the cores come from the full-size products and
    # carry no fold, which the solver then reads from each core
    params = KickParams(1.9, 17.0)
    certified = floquet_operator(params, two_j)
    fold = floquet.chiral_fold
    with monkeypatch.context() as patch:
        patch.setattr(floquet, "chiral_fold",
                      lambda m, signs: (*fold(m, signs)[:3], 2.0 * UNITARITY_TOL))
        floquet._sectors.cache_clear()
        try:
            op = floquet_operator(params, two_j)
            assert floquet._sectors(two_j).halves is None
        finally:
            floquet._sectors.cache_clear()
    assert op.folds is None and op.reversals is not None
    assert np.abs(op.core - certified.core).max() < 1e-13
    calls = []
    read = spectral.chiral_fold
    monkeypatch.setattr(spectral, "chiral_fold", lambda *a: calls.append(1) or read(*a))
    for a, b in zip(sector_eigenphases(op), sector_eigenphases(certified)):
        assert _circle_set_distance(a, b) < 1e-12
    assert len(calls) == len(op.cores)


@pytest.mark.parametrize("two_j", [12, 13])
def test_delta_operator_never_takes_the_fold_path(monkeypatch, two_j):
    # every fold, stored or read from a core, is solved by _solve_fold
    calls = []
    solve = spectral._solve_fold
    monkeypatch.setattr(spectral, "_solve_fold", lambda *fold: calls.append(1) or solve(*fold))
    op = floquet_operator(KickParams(1.9, 17.0, delta=0.7), two_j)
    assert op.reversals is None and op.folds is None
    sector_eigenphases(op)
    assert calls == []
    sector_eigenphases(floquet_operator(KickParams(1.9, 17.0), two_j))
    assert len(calls) == (1 if two_j % 2 == 0 else 2)


@pytest.mark.parametrize("two_j", [5, 6, 200, 201])
def test_fold_guard_rejects_scaled_and_noisy_cores(two_j):
    op = floquet_operator(KickParams(1.0, 1.0), two_j)
    core, signs = op.cores[0], op.reversals[0]
    assert spectral._folded_eigenphases(core, signs) is not None
    # the pairs alone cannot see a common scale: the phase must be unit-modulus
    assert spectral._folded_eigenphases(core * 1.001, signs) is None
    # the complex-symmetric noise of test_non_unitary_rejected
    rng = np.random.default_rng(two_j)
    noise = rng.standard_normal(core.shape) + 1j * rng.standard_normal(core.shape)
    noise += noise.T
    noise *= 1e-6 / np.abs(noise).max()
    assert spectral._folded_eigenphases(core + noise, signs) is None
    with pytest.raises(NumericalError):
        spectral.core_eigenphases(core + noise, signs)
    # the blocks are read from the top rows: noise confined to the bottom-right
    # quarter leaves them as they were, and only the dropped part shows it
    half = (two_j + 2) // 2
    hidden = np.zeros_like(noise)
    hidden[half:, half:] = noise[half:, half:]
    assert spectral._folded_eigenphases(core + hidden, signs) is None


@pytest.mark.parametrize("two_j, kxky", [(200, 10.0), (201, 10.0), (200, 2000.0),
                                         (201, 2000.0), (13, 300.0)])
def test_forced_fallback_gives_the_same_phases(monkeypatch, two_j, kxky):
    kx = np.sqrt(kxky / 1.7)
    op = floquet_operator(KickParams(kx, 1.7 * kx), two_j)
    folded = sector_eigenphases(op)
    monkeypatch.setattr(spectral, "_solve_fold", lambda *fold: None)
    calls = []
    eigenpairs = spectral.sector_eigenpairs
    monkeypatch.setattr(spectral, "sector_eigenpairs", lambda m: calls.append(1) or eigenpairs(m))
    fallback = sector_eigenphases(op)
    assert len(calls) == len(op.cores)
    for a, b in zip(folded, fallback):
        assert _circle_set_distance(a, b) < 1e-12


@pytest.mark.parametrize("two_j", [200, 201, 400, 401])
@pytest.mark.parametrize("variant", VARIANTS)
def test_folded_phases_match_dense_oracle_at_zero_modes(two_j, variant):
    # kxky 10: exactly degenerate bound states at both 0 and pi.  The product
    # oracle is dense kick_unitary; at 400 and 401 the dense sector blocks
    kx, ky = np.sqrt(10.0 / 1.7), np.sqrt(10.0 * 1.7)
    op = floquet_operator(KickParams(kx, ky, variant=variant), two_j)
    if two_j < 400:
        blocks = _dense_sector_blocks(kx, ky, two_j, variant)
    else:
        blocks = op.distinct_blocks()
    eps = sector_eigenphases(op)
    assert (np.abs(eps) < 1e-6).any() and (np.abs(eps) > np.pi - 1e-6).any()
    for sector, block in enumerate(blocks):
        oracle = -np.angle(np.linalg.eigvals(block))
        assert _circle_set_distance(eps[sector], oracle) < 1e-12


def _folded_core(signs, theta, rng):
    """A unitary core with J conj(M) J = M, J the reversal of signs, whose
    phases are +-theta: the fold's block form [[A, iK], [iK^T, B]] with
    A = P cos P^T, B = Q cos Q^T, K = P sin Q^T mapped back to the core basis."""
    d = len(signs)
    n = d // 2
    p, q = ortho_group.rvs(n, random_state=rng), ortho_group.rvs(n, random_state=rng)
    folded = np.block([[(p * np.cos(theta)) @ p.T, 1j * (p * np.sin(theta)) @ q.T],
                       [1j * (q * np.sin(theta)) @ p.T, (q * np.cos(theta)) @ q.T]])
    basis = np.zeros((d, d))
    k = np.arange(n)
    basis[k, k] = basis[k, n + k] = np.sqrt(0.5)
    basis[d - 1 - k, k] = signs[k] * np.sqrt(0.5)
    basis[d - 1 - k, n + k] = -signs[k] * np.sqrt(0.5)
    return basis @ folded @ basis.T


def test_fold_resolves_levels_at_the_cluster_cut():
    # levels every 4e-3 rad through and past the window where the cluster
    # cut is placed, near 0 and near pi: whatever gap the cut takes, levels
    # sit within 1e-3 in cos of it on both sides, and A and B must split
    # them alike
    rng = np.random.default_rng(11)
    lo, hi = spectral.FOLD_CLUSTER
    window = np.arange(lo - 0.05, hi + 0.05, 4e-3)
    theta = np.concatenate([window, np.pi - window, [0.0, 1e-9, 1.1, 2.0, np.pi - 1e-9]])
    signs = rng.choice([-1.0, 1.0], size=2 * theta.size)
    signs[theta.size:] = signs[:theta.size][::-1]
    core = _folded_core(signs, theta, rng)
    assert np.abs(core @ core.conj().T - np.eye(signs.size)).max() < 1e-12
    cosines = np.cos(theta)
    for cut in (spectral._cluster_cut(cosines, cosines), -spectral._cluster_cut(-cosines, -cosines)):
        assert np.sort(np.abs(cosines - cut))[:2].max() < 1e-3
        assert (cosines > cut).any() and (cosines < cut).any()
    eps = spectral._folded_eigenphases(core, signs)
    assert eps is not None
    assert _circle_set_distance(eps, np.concatenate([theta, -theta])) < 1e-12
    assert _circle_set_distance(eps, -np.angle(np.linalg.eigvals(core))) < 1e-12


def test_fallback_when_the_real_solver_mixes_eigenvectors(monkeypatch):
    # two eigenphases mirrored about -atan(MIX) share one eigenvalue of
    # Re M + MIX Im M, so eigh returns a mixture of their eigenvectors
    shift = -2.0 * np.arctan(MIX)
    eps = np.array([0.4, shift - 0.4, 1.3, -2.1, 2.7, -0.9])
    basis = ortho_group.rvs(eps.size, random_state=np.random.default_rng(7))
    m = (basis * np.exp(-1j * eps)) @ basis.T
    calls = []
    schur = spectral._schur_eigenpairs
    monkeypatch.setattr(spectral, "_schur_eigenpairs", lambda a: calls.append(1) or schur(a))
    got, vectors = sector_eigenpairs(m)
    assert calls == [1]
    assert _circle_set_distance(got, -np.angle(np.linalg.eigvals(m))) < 1e-12
    assert np.abs(m @ vectors - vectors * np.exp(-1j * got)).max() < 1e-12


def test_mean_spacing_ratio_hand_case():
    # spacings 0.1, 0.2, 0.4 -> ratios 0.5, 0.5
    assert mean_spacing_ratio([0.0, 0.1, 0.3, 0.7]) == pytest.approx(0.5, abs=1e-15)


def test_mean_spacing_ratio_equal_spacing():
    assert mean_spacing_ratio(np.linspace(-1.0, 1.0, 30)) == pytest.approx(1.0)


def test_mean_spacing_ratio_degeneracies():
    # 0/positive counts as 0, 0/0 as 1
    assert mean_spacing_ratio([1.0, 1.0, 2.0]) == pytest.approx(0.0)
    assert mean_spacing_ratio([1.0, 1.0, 1.0]) == pytest.approx(1.0)


def test_mean_spacing_ratio_needs_three_levels():
    with pytest.raises(ValueError):
        mean_spacing_ratio([0.0, 1.0])


def test_poisson_surrogate_reference_value():
    rng = np.random.default_rng(20240601)
    spacings = rng.exponential(size=25000)
    lo = np.minimum(spacings[1:], spacings[:-1])
    hi = np.maximum(spacings[1:], spacings[:-1])
    assert (lo / hi).mean() == pytest.approx(R_POISSON, abs=0.01)
    # same sequence through the library path
    levels = np.concatenate([[0.0], np.cumsum(spacings)])
    assert mean_spacing_ratio(levels) == pytest.approx(R_POISSON, abs=0.01)


def test_universal_constants():
    assert R_POISSON == pytest.approx(0.386294361119890619, abs=1e-15)
    assert R_COE == pytest.approx(0.535898384862245413, abs=1e-15)
    assert R_CUE == pytest.approx(0.602657790843584099, abs=1e-15)


def test_parity_resolved_r_sectors_agree_for_small_case():
    op = floquet_operator(KickParams(1.1, 2.4), 30)
    stats = parity_resolved_r(sector_eigenphases(op))
    assert 0.0 <= stats["r_mean"] <= 1.0
    expected = 0.5 * (stats["r_plus"] + stats["r_minus"])
    assert stats["r_mean"] == pytest.approx(expected, abs=1e-12)
    via_spectrum = parity_resolved_r(quasi_spectrum(op).epsilons)
    assert via_spectrum["r_mean"] == pytest.approx(stats["r_mean"], abs=1e-9)


def test_stage_classification():
    two_j = 100
    base = np.pi * (two_j + 1)
    scale = np.sqrt(base)
    assert stage_classify(0.1 * scale, scale, two_j) == "topological"
    assert stage_classify(0.3 * scale, scale, two_j) == "quasi_integrable"
    assert stage_classify(0.6 * scale, scale, two_j) == "transition"
    assert stage_classify(scale, scale, two_j) == "chaotic"   # left-closed border
    with pytest.raises(ValueError):
        stage_classify(-1.0, 1.0, two_j)


def test_stage_borders_values():
    b1, b2, b3 = stage_borders(1000)
    assert b1 == pytest.approx(786.18, abs=0.01)
    assert b2 == pytest.approx(1572.37, abs=0.01)
    assert b3 == pytest.approx(3144.74, abs=0.01)


def test_detect_bound_states_small_kick():
    spec = quasi_spectrum(floquet_operator(KickParams(0.5, 0.5, variant="sym1"), 40))
    records = detect_bound_states(spec, tol=0.05)
    near_zero = [r for r in records if r.target == 0.0]
    assert len(near_zero) >= 2
    for record in records:
        assert record.distance <= 0.05
        assert -1.0 <= record.chiral <= 1.0


def test_detect_bound_states_identity_edge_case():
    # zero kicks leave U = I: every state counts as a quasi-energy-0 state
    spec = quasi_spectrum(floquet_operator(KickParams(0.0, 0.0), 6))
    assert len(detect_bound_states(spec, tol=0.05)) == 14
    with pytest.raises(ValueError):
        detect_bound_states(spec, tol=0.0)


def test_bound_state_counts_rise_then_fall():
    # counts grow while new states form, then decay as the bulk swallows them
    two_j = 100
    base = np.pi * (two_j + 1)
    counts = []
    for product in (base / 16, base * 0.625, base * 2.0):
        kappa = np.sqrt(product / 1.7)
        spec = quasi_spectrum(floquet_operator(KickParams(kappa, 1.7 * kappa), two_j))
        counts.append(len(detect_bound_states(spec, tol=0.05)))
    topological, transition_mid, deep_chaotic = counts
    assert topological < transition_mid
    assert deep_chaotic < transition_mid


def test_chiral_expectation_basis_states():
    up = np.zeros(10, dtype=complex)
    up[4] = 1.0            # even index: spin up
    assert chiral_expectation(up) == pytest.approx(1.0)
    down = np.zeros(10, dtype=complex)
    down[5] = 1.0
    assert chiral_expectation(down) == pytest.approx(-1.0)
    assert chiral_expectation(probe_state(8, 0.9, 0.4)) == pytest.approx(0.0, abs=1e-12)
