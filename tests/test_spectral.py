import dataclasses

import numpy as np
import pytest
from scipy.stats import ortho_group

import dense_oracle
from kickedtop import floquet, spectral
from kickedtop.errors import NumericalError
from kickedtop.floquet import (UNITARITY_TOL, VARIANTS, KickParams, chiral_fold,
                               floquet_operator, unitarity_defect)
from kickedtop.localization import probe_columns, sphere_averaged_s2, sphere_grid
from kickedtop.spectral import (EIGEN_RESIDUAL_TOL, MIX, R_COE, R_CUE, R_POISSON,
                                chiral_expectation, detect_bound_states, mean_spacing_ratio,
                                parity_resolved_r, quasi_spectrum, sector_eigenpairs,
                                sector_eigenphases, stage_borders, stage_classify)
from kickedtop.symmetry import sector_indices, symmetry_operator


# every solver of quasi_spectrum, for each ordering and for delta > 0; the
# ids of the delta = 0 cases are "<variant>-<solver>"
SOLVER_CASES = [
    pytest.param(variant, delta, solver,
                 id=f"{variant}-{solver}" if delta == 0.0 else f"{variant}-delta-{solver}")
    for variant, delta in (*((v, 0.0) for v in VARIANTS), ("plain", 0.7))
    for solver in ("real", "eigh", "schur")]


def _force_solver(monkeypatch, solver):
    """Leave each core to the real solver it takes ("real": the fold at
    delta = 0, the real eigh of sector_eigenpairs otherwise), send it to
    that eigh ("eigh": the fold refuses), or to the complex Schur
    fallback ("schur": the fold refuses, and sector_eigenpairs is
    _schur_eigenpairs)."""
    if solver != "real":
        monkeypatch.setattr(spectral, "_solve_fold", lambda *fold: None)
    if solver == "schur":
        monkeypatch.setattr(spectral, "sector_eigenpairs", spectral._schur_eigenpairs)


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
    vectors = spec.sector_vectors()
    phases = np.exp(-1j * spec.epsilons)[:, None, :]
    residual = op.sector_blocks() @ vectors - vectors * phases
    assert np.linalg.norm(residual, axis=1).max() < 1e-8
    assert np.abs(np.linalg.norm(vectors, axis=1) - 1.0).max() < 1e-12
    u = op.u
    pi_mat, _ = symmetry_operator("parity", two_j)
    for sector, sign in enumerate((1, -1)):
        for k, eps in enumerate(spec.epsilons[sector]):
            v = spec.state(sector, k)
            assert np.linalg.norm(u @ v - np.exp(-1j * eps) * v) < 1e-8
            value = np.vdot(v, pi_mat @ v).real
            assert abs(value) >= 1.0 - 1e-6
            assert np.sign(value) == sign


@pytest.mark.parametrize("variant, delta, solver", SOLVER_CASES)
@pytest.mark.parametrize("two_j", [14, 15])
def test_sector_vectors_of_every_frame(monkeypatch, two_j, variant, delta, solver):
    # only the solved sectors are stored, one per distinct core, in the dtype
    # of the solver and the frame: sym1 and sym2 map real solver vectors
    # through a real frame, and plain frames, delta > 0 and Schur's vectors
    # are complex
    _force_solver(monkeypatch, solver)
    op = floquet_operator(KickParams(1.7, 2.9, delta=delta, variant=variant), two_j)
    spec = quasi_spectrum(op)
    assert len(spec.vectors) == len(op.cores) == (1 if two_j % 2 == 0 else 2)
    real = variant != "plain" and solver != "schur"
    assert spec.vectors.dtype == (np.float64 if real else np.complex128)
    vectors = spec.sector_vectors()
    assert vectors.shape == (2, two_j + 1, two_j + 1) and vectors.dtype == spec.vectors.dtype
    phases = np.exp(-1j * spec.epsilons)[:, None, :]
    residual = op.sector_blocks() @ vectors - vectors * phases
    assert np.linalg.norm(residual, axis=1).max() < 1e-8
    assert np.abs(np.linalg.norm(vectors, axis=1) - 1.0).max() < 1e-12
    if two_j % 2:
        assert spec.mirror_order is None and vectors is spec.vectors
        return
    # sector -1 is the mirror G J conj of sector +1, reordered to -eps, and
    # state() derives each of its columns alike
    order = np.argsort(spectral._branch(-spec.epsilons[0]), kind="stable")
    g = 1.0 - 2.0 * (np.arange(two_j + 1) % 2)
    mirrored = g[:, None] * spec.vectors[0][::-1].conj()
    assert np.array_equal(vectors[1], mirrored[:, order])
    minus = sector_indices(two_j)[1]
    for k in range(two_j + 1):
        assert np.array_equal(spec.state(1, k)[minus], vectors[1][:, k])


@pytest.mark.parametrize("variant, delta, solver", SOLVER_CASES)
@pytest.mark.parametrize("two_j", [2, 14, 64])
def test_derived_sector_minus_one_states_are_eigenstates(monkeypatch, two_j, variant, delta,
                                                         solver):
    # at even 2j sector +1 alone is stored; every state of sector -1 that
    # state() derives is an eigenvector of the dense unitary, of parity -1
    _force_solver(monkeypatch, solver)
    op = floquet_operator(KickParams(1.9, 17.0, delta=delta, variant=variant), two_j)
    spec = quasi_spectrum(op)
    assert len(spec.vectors) == 1
    u = op.u
    parity = np.diag(symmetry_operator("parity", two_j)[0]).real
    for k, eps in enumerate(spec.epsilons[1]):
        v = spec.state(1, k)
        assert np.linalg.norm(u @ v - np.exp(-1j * eps) * v) <= 1e-8
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.vdot(v, parity * v).real == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("two_j", [2, 3])
def test_state_rejects_a_sector_or_index_out_of_range(two_j):
    spec = quasi_spectrum(floquet_operator(KickParams(1.7, 2.9), two_j))
    for sector, k, name in ((-1, 0, "sector"), (2, 0, "sector"), (0, -1, "k"),
                            (1, -1, "k"), (0, two_j + 1, "k"), (1, two_j + 1, "k")):
        with pytest.raises(ValueError, match=f"^{name} must"):
            spec.state(sector, k)
    assert spec.state(1, two_j).shape == (2 * (two_j + 1),)


def test_exchange_symmetry_of_quasi_energies():
    a = quasi_spectrum(floquet_operator(KickParams(1.3, 3.1), 20)).epsilons
    b = quasi_spectrum(floquet_operator(KickParams(3.1, 1.3), 20)).epsilons
    assert np.abs(a - b).max() < 1e-9


def test_sector_eigenphases_match_full_spectrum():
    # at delta = 0 both come from one solve of the fold
    op = floquet_operator(KickParams(2.2, 0.9), 12)
    assert np.array_equal(sector_eigenphases(op), quasi_spectrum(op).epsilons)
    op = floquet_operator(KickParams(2.2, 0.9, delta=0.7), 12)
    assert np.abs(sector_eigenphases(op) - quasi_spectrum(op).epsilons).max() < 1e-10


def test_quasi_energies_on_the_diagonal_match_dense_eigvals():
    # the README `spectrum --ratio 1` point kxky 7.53 at two_j 100: the full
    # real solver's Rayleigh-quotient phases sat 3e-13 from eigvals there
    kappa = np.sqrt(7.53)
    op = floquet_operator(KickParams(kappa, kappa), 100)
    eps = quasi_spectrum(op).epsilons
    for sector, block in enumerate(op.sector_blocks()):
        assert _circle_set_distance(eps[sector], dense_oracle.phases(block)) < 1e-13


@pytest.mark.parametrize("two_j", [5, 6])
def test_non_unitary_rejected(two_j):
    op = floquet_operator(KickParams(1.0, 1.0), two_j)
    # complex-symmetric noise keeps M = M^T, the structure the real solver relies on
    rng = np.random.default_rng(two_j)
    noise = rng.standard_normal(op.core.shape) + 1j * rng.standard_normal(op.core.shape)
    noise += noise.swapaxes(-1, -2)
    noise *= 1e-6 / np.abs(noise).max()
    # a scaled fold, and the fold of the noisy core, beside the core they belong
    # to: the core is stored on its fold basis, [[A, iK], [iK^T, B]]
    noisy = op.core + noise
    noisy_folds = [(m[:n, :n].real, m[n:, n:].real, m[:n, n:].imag)
                   for m, n in zip(noisy, (len(a) for a, _, _ in op.folds))]
    for core, folds in ((op.core * 1.001, [tuple(1.001 * b for b in fold) for fold in op.folds]),
                        (noisy, noisy_folds)):
        bad = dataclasses.replace(op, core=core, folds=folds)
        with pytest.raises(NumericalError):
            quasi_spectrum(bad)
        with pytest.raises(NumericalError):
            sector_eigenphases(bad)


@pytest.mark.parametrize("two_j", [6, 7, 64, 65])
@pytest.mark.parametrize("variant, delta", [("plain", 0.0), ("sym1", 0.0), ("sym2", 0.0),
                                            ("plain", 0.7)])
def test_sector_eigenphases_match_dense_oracle(two_j, variant, delta):
    kx, ky = 1.9, 17.0
    op = floquet_operator(KickParams(kx, ky, delta=delta, variant=variant), two_j)
    # compared as sets on the circle: a level at pi may sit at either end of (-pi, pi]
    for eps, block in zip(sector_eigenphases(op),
                          dense_oracle.blocks(dense_oracle.unitary(two_j, kx, ky, variant, delta))):
        assert _circle_set_distance(eps, dense_oracle.phases(block)) < 1e-12


@pytest.mark.parametrize("two_j", [6, 64, 200])
@pytest.mark.parametrize("variant", VARIANTS)
def test_sectors_are_twins_at_even_two_j_without_delta(two_j, variant):
    # at even 2j the pi rotation about x commutes with both kicks, anticommutes
    # with parity and reverses m: the -1 block is the +1 block reversed in both
    # indices.  Checked on the dense product, which does not use that relation
    plus, minus = dense_oracle.blocks(dense_oracle.unitary(two_j, 1.9, 17.0, variant))
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
    plus, minus = dense_oracle.blocks(dense_oracle.unitary(two_j, 1.9, 17.0, variant, delta))
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
    _force_solver(monkeypatch, solver)
    kx, ky = 1.9, 17.0
    op = floquet_operator(KickParams(kx, ky, delta=delta, variant=variant), two_j)
    assert len(op.cores) == 1
    spec = quasi_spectrum(op)
    assert np.all(np.diff(spec.epsilons) >= 0)
    assert _circle_set_distance(spec.epsilons[1], -spec.epsilons[0]) < 1e-14
    phases = np.exp(-1j * spec.epsilons)[:, None, :]
    vectors = spec.sector_vectors()
    blocks = dense_oracle.blocks(dense_oracle.unitary(two_j, kx, ky, variant, delta))
    for stack in (blocks, op.sector_blocks()):
        residual = stack @ vectors - vectors * phases
        assert np.linalg.norm(residual, axis=1).max() < 1e-8
    assert np.abs(np.linalg.norm(vectors, axis=1) - 1.0).max() < 1e-12
    gram = vectors.conj().swapaxes(-1, -2) @ vectors
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
    # sector_eigenphases and quasi_spectrum each solve every distinct core
    # once: its fold at delta = 0, else with sector_eigenpairs; and each
    # solve takes one eigh of at least half a core, the fold's of A alone
    op = floquet_operator(KickParams(1.9, 17.0, delta=delta), two_j)
    calls = {"sector_eigenpairs": [], "_solve_fold": []}
    for name in calls:
        solve = getattr(spectral, name)
        monkeypatch.setattr(spectral, name,
                            lambda *a, solve=solve, name=name: calls[name].append(1) or solve(*a))
    eigh, big = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda m: big.append(len(m) >= (two_j + 1) // 2)
                        or eigh(m))
    solver, unused = ("_solve_fold", "sector_eigenpairs")
    if delta > 0.0:
        solver, unused = unused, solver
    for spectrum in (sector_eigenphases, quasi_spectrum):
        for done in (*calls.values(), big):
            done.clear()
        spectrum(op)
        assert len(calls[solver]) == solves
        assert calls[unused] == []
        assert sum(big) == solves


def _smallest_spacing(epsilons):
    """The smallest gap on the circle between neighbouring levels of a sector."""
    eps = np.sort(epsilons, axis=-1)
    wrap = 2.0 * np.pi - (eps[:, -1] - eps[:, 0])
    return min(np.diff(eps, axis=-1).min(), wrap.min())


@pytest.mark.parametrize("two_j", [1, 2, 6, 7, 64, 65, 200, 201])
@pytest.mark.parametrize("kxky", [10.0, 300.0, 2600.0])
def test_fold_eigenvectors_match_dense_blocks(monkeypatch, two_j, kxky):
    # at delta = 0 quasi_spectrum takes its eigenvectors from the fold: the
    # residual pins each phase to its own vector, and S2 equals that of the
    # full real solver wherever the levels are resolved (kxky 10 holds exactly
    # degenerate levels at 65 and above, whose basis is the solver's choice)
    kx = np.sqrt(kxky / 1.7)
    probes = probe_columns(two_j, sphere_grid(8, 8))
    calls = []
    eigenpairs = spectral.sector_eigenpairs
    monkeypatch.setattr(spectral, "sector_eigenpairs", lambda m: calls.append(1) or eigenpairs(m))
    for variant in VARIANTS:
        op = floquet_operator(KickParams(kx, 1.7 * kx, variant=variant), two_j)
        with monkeypatch.context() as forced:
            forced.setattr(spectral, "_solve_fold", lambda *fold: None)
            full = quasi_spectrum(op)
        assert len(calls) == len(op.cores)
        calls.clear()
        spec = quasi_spectrum(op)
        assert calls == []
        phases = np.exp(-1j * spec.epsilons)[:, None, :]
        vectors = spec.sector_vectors()
        residual = op.sector_blocks() @ vectors - vectors * phases
        assert np.linalg.norm(residual, axis=1).max() <= 1e-10
        gram = vectors.conj().swapaxes(-1, -2) @ vectors
        assert np.abs(gram - np.eye(two_j + 1)).max() <= 1e-12
        if _smallest_spacing(spec.epsilons) >= 1e-6:
            s2 = sphere_averaged_s2(spec, probes).s2_nodes
            assert np.abs(s2 - sphere_averaged_s2(full, probes).s2_nodes).max() <= 1e-12


@pytest.mark.parametrize("two_j", [1, 2, 3, 6, 7, 64, 65])
@pytest.mark.parametrize("variant", VARIANTS)
def test_chiral_reversal_conjugates_every_core(two_j, variant):
    # the invariant the fold rests on: on the fold basis, D^dag M D is the
    # real orthogonal [[A, -K], [K^T, B]] of the stored fold, and the core is
    # the dense product there: on the frame, turned for plain by the half y
    # kick on the fold basis
    kx, ky = 1.9, 17.0
    op = floquet_operator(KickParams(kx, ky, variant=variant), two_j)
    z = np.tile(np.diag(dense_oracle.SIGMA["z"]), two_j + 1)
    blocks = dense_oracle.blocks(dense_oracle.unitary(two_j, kx, ky, variant))
    assert len(op.folds) == len(op.cores)
    for k, (core, fold) in enumerate(zip(op.cores, op.folds)):
        a, b, kk = fold
        n = len(a)
        phases = np.where(np.arange(two_j + 1) < n, 1.0, 1j)
        real = phases.conj()[:, None] * core * phases
        assert np.abs(real.imag).max() == 0.0
        assert np.abs(real.real - np.block([[a, -kk], [kk.T, b]])).max() < 1e-13
        frame = op.frame[k]
        if variant == "plain":
            frame = frame @ dense_oracle.fold_kick(two_j, n, ky / 2.0, 0.0)
        oracle = frame.conj().T @ blocks[k] @ frame
        assert np.abs(oracle - core).max() < 1e-12
        if variant != "plain":  # a real frame: the sector's sigma_z is +1 on the + states
            sigma_z = frame.conj().T @ (z[sector_indices(two_j)[k]][:, None] * frame)
            signs = np.where(np.arange(two_j + 1) < n, 1.0, -1.0)
            assert np.abs(sigma_z - np.diag(signs)).max() < 1e-12


@pytest.mark.parametrize("two_j", [1, 2, 3, 6, 7, 64, 65, 200, 201])
def test_stored_fold_matches_the_fold_of_the_dense_core(two_j):
    # the fold built from C+ and C- against chiral_fold of the dense product
    # on the kick eigenbasis gauge V half, and the frame, turned for plain by
    # the half y kick on the fold basis, against that eigenbasis times
    # chiral_fold's basis Q, every variant from the dense oracle's kicks
    kx, ky = 1.9, 17.0
    sectors = floquet._sectors(two_j)
    for variant in VARIANTS:
        op = floquet_operator(KickParams(kx, ky, variant=variant), two_j)
        dense = dense_oracle.unitary(two_j, kx, ky, variant)
        assert len(op.folds) == len(op.cores)
        for k, fold in enumerate(op.folds):
            idx = sector_indices(two_j)[k]
            signs = sectors.reversal[k]
            gauge = np.ones(two_j + 1) if variant == "sym2" else sectors.gauge[k]
            half = np.exp(-0.5j * ky * sectors.lam) if variant == "plain" else np.ones(two_j + 1)
            eigenbasis = gauge[:, None] * sectors.vecs * half
            core = eigenbasis.conj().T @ dense[np.ix_(idx, idx)] @ eigenbasis
            oracle = chiral_fold(core, signs)
            assert len(fold) == 3
            for built, read in zip(fold, oracle[:3]):
                assert built.shape == read.shape
                assert np.abs(built - read).max() < 1e-13
            # Q is the basis that chiral_fold reads the blocks on
            q, n = dense_oracle.fold_basis(signs)
            a, b, kk = oracle[:3]
            assert np.abs(q.T @ core @ q - np.block([[a, 1j * kk], [1j * kk.T, b]])).max() < 1e-12
            frame = op.frame[k]
            if variant == "plain":
                frame = frame @ dense_oracle.fold_kick(two_j, n, ky / 2.0, 0.0)
            assert np.abs(frame - eigenbasis @ q).max() < 1e-13


@pytest.mark.parametrize("two_j", [6, 7])
def test_uncertified_overlap_split_is_refused(monkeypatch, two_j):
    # an overlap C that does not split into C+ and C- at UNITARITY_TOL is
    # refused when the per-two_j data are built: no operator is built, with
    # or without delta, and nothing is cached
    fold = floquet.chiral_fold
    monkeypatch.setattr(floquet, "chiral_fold",
                        lambda m, signs: (*fold(m, signs)[:3], 2.0 * UNITARITY_TOL))
    floquet._sectors.cache_clear()
    for delta in (0.0, 0.7):
        with pytest.raises(NumericalError, match="split"):
            floquet_operator(KickParams(1.9, 17.0, delta=delta), two_j)
    assert floquet._sectors.cache_info().currsize == 0


@pytest.mark.parametrize("two_j", [4, 5, 400, 401])
@pytest.mark.parametrize("kx", [1e12, 1e150])
def test_huge_kicks_keep_the_core_unitary(two_j, kx):
    # the unpaired middle level of odd d is exactly 0, as the fold takes it
    # to be: a rounding residue there, times kx, would turn the core off
    # the unitary group, with or without delta
    if two_j % 2 == 0:
        assert floquet._sectors(two_j).lam[two_j // 2] == 0.0
    cases = [KickParams(kx, 1.7 * kx, variant=variant) for variant in VARIANTS]
    for params in cases + [KickParams(kx, 1.7 * kx, delta=1.6)]:
        op = floquet_operator(params, two_j)
        assert unitarity_defect(op.core) <= 1e-12
        assert sector_eigenphases(op).shape == (2, two_j + 1)


@pytest.mark.parametrize("two_j", [12, 13])
def test_delta_operator_never_takes_the_fold_path(monkeypatch, two_j):
    # every stored fold is solved by _solve_fold where it is real, and a
    # delta > 0 fold is complex
    calls = []
    solve = spectral._solve_fold
    monkeypatch.setattr(spectral, "_solve_fold", lambda *fold: calls.append(1) or solve(*fold))
    op = floquet_operator(KickParams(1.9, 17.0, delta=0.7), two_j)
    assert len(op.folds) == len(op.cores)
    assert all(block.dtype == complex for fold in op.folds for block in fold)
    sector_eigenphases(op)
    assert calls == []
    sector_eigenphases(floquet_operator(KickParams(1.9, 17.0), two_j))
    assert len(calls) == (1 if two_j % 2 == 0 else 2)


@pytest.mark.parametrize("two_j", [1, 2, 3, 5, 6, 7, 64, 65, 200, 201])
def test_fold_guard_rejects_scaled_and_noisy_cores(two_j):
    # the cores are taken back to the kick eigenbasis, where chiral_fold reads them
    signs = floquet._sectors(two_j).reversal
    for variant in VARIANTS:
        op = floquet_operator(KickParams(1.0, 1.0, variant=variant), two_j)
        q = [dense_oracle.fold_basis(s)[0] for s in signs[:len(op.cores)]]
        core = q[0] @ op.cores[0] @ q[0].T
        assert spectral._solve_fold(*chiral_fold(core, signs[0])[:3]) is not None
        # the pairs alone cannot see a common scale: the phase must be unit-modulus
        assert spectral._solve_fold(*chiral_fold(core * 1.001, signs[0])[:3]) is None
        # the complex-symmetric noise of test_non_unitary_rejected
        rng = np.random.default_rng(two_j)
        noise = rng.standard_normal(core.shape) + 1j * rng.standard_normal(core.shape)
        noise += noise.T
        noise *= 1e-6 / np.abs(noise).max()
        assert spectral._solve_fold(*chiral_fold(core + noise, signs[0])[:3]) is None
        # the refused fold falls through to sector_eigenpairs and Schur, which raise
        noisy = dataclasses.replace(op, core=op.core + noise)
        noisy.folds = [chiral_fold(basis @ c @ basis.T, s)[:3]
                       for basis, c, s in zip(q, noisy.cores, signs)]
        with pytest.raises(NumericalError):
            sector_eigenphases(noisy)
        # the blocks are read from the top rows: noise confined to the bottom-right
        # quarter leaves them as they were, and only chiral_fold's bound on the
        # dropped part shows it
        half = (two_j + 2) // 2
        hidden = np.zeros_like(noise)
        hidden[half:, half:] = noise[half:, half:]
        assert chiral_fold(core + hidden, signs[0])[3] > EIGEN_RESIDUAL_TOL


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
    # oracle is the dense oracle's unitary; at 400 and 401 the dense sector blocks
    kx, ky = np.sqrt(10.0 / 1.7), np.sqrt(10.0 * 1.7)
    op = floquet_operator(KickParams(kx, ky, variant=variant), two_j)
    if two_j < 400:
        blocks = dense_oracle.blocks(dense_oracle.unitary(two_j, kx, ky, variant))
    else:
        blocks = op.sector_blocks()
    eps = sector_eigenphases(op)
    assert (np.abs(eps) < 1e-6).any() and (np.abs(eps) > np.pi - 1e-6).any()
    for sector, block in enumerate(blocks):
        assert _circle_set_distance(eps[sector], dense_oracle.phases(block)) < 1e-12


def _folded_core(signs, theta, rng, free_a=(), free_b=()):
    """A unitary core with J conj(M) J = M, J the reversal of signs, whose
    phases are +-theta: the fold's block form [[A, iK], [iK^T, B]] with
    A = P cos P^T, B = Q cos Q^T, K = P sin Q^T mapped back to the core basis.
    free_a and free_b are cosines +-1 of A and B past those of theta: modes
    that K leaves unpaired, at phase 0 or pi."""
    n = len(theta)
    cos_a, cos_b = (np.concatenate([np.cos(theta), free]) for free in (free_a, free_b))
    p, q = (ortho_group.rvs(len(c), random_state=rng) for c in (cos_a, cos_b))
    k = (p[:, :n] * np.sin(theta)) @ q[:, :n].T
    folded = np.block([[(p * cos_a) @ p.T, 1j * k], [1j * k.T, (q * cos_b) @ q.T]])
    basis, _ = dense_oracle.fold_basis(signs)
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
    for cut in (spectral._cluster_cut(cosines), -spectral._cluster_cut(-cosines)):
        assert np.sort(np.abs(cosines - cut))[:2].max() < 1e-3
        assert (cosines > cut).any() and (cosines < cut).any()
    solved = spectral._solve_fold(*chiral_fold(core, signs)[:3])
    assert solved is not None
    eps = solved[0]
    assert _circle_set_distance(eps, np.concatenate([theta, -theta])) < 1e-12
    assert _circle_set_distance(eps, dense_oracle.phases(core)) < 1e-12


def _free_mode_folds():
    """(fold, core) pairs whose unpaired modes sit on B's side."""
    rng = np.random.default_rng(5)
    theta = np.array([1e-9, 0.1, 1.1, 2.0, np.pi - 0.1, np.pi - 1e-9])
    # even d: B holds free modes at exactly 0 and pi, A two at 0
    signs = rng.choice([-1.0, 1.0], size=8)
    signs = np.concatenate([signs, signs[::-1]])
    core = _folded_core(signs, theta, rng, free_a=(1.0, 1.0), free_b=(1.0, -1.0))
    yield chiral_fold(core, signs)[:3], core
    # odd d whose middle state is a - state: B is the larger block
    signs = np.concatenate([signs[:7], [-1.0], signs[:7][::-1]])
    core = _folded_core(signs, theta, rng, free_a=(-1.0,), free_b=(1.0, -1.0))
    yield chiral_fold(core, signs)[:3], core
    # no kicks: A = 1, B = 1, K = 0, and every mode is unpaired
    for two_j in (6, 7):
        op = floquet_operator(KickParams(0.0, 0.0), two_j)
        for fold, core in zip(op.folds, op.cores):
            yield fold, core


def test_fold_solves_unpaired_modes_of_either_block():
    # the modes K q = 0 of B, which have no partner in A, come out at
    # exactly 0 or pi with their own eigenvectors (0, q)
    for (a, b, k), core in _free_mode_folds():
        solved = spectral._solve_fold(a, b, k)
        assert solved is not None
        eps, p, q, paired = solved
        assert _circle_set_distance(eps, dense_oracle.phases(core)) < 1e-12
        vecs = np.sqrt(0.5) * np.block([[p, p[:, paired]], [q, -q[:, paired]]])
        folded = np.block([[a, 1j * k], [1j * k.T, b]])
        residual = folded @ vecs - vecs * np.exp(-1j * eps)
        assert np.linalg.norm(residual, axis=0).max() <= 1e-10
        assert np.abs(vecs.T @ vecs - np.eye(len(core))).max() <= 1e-12


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
    assert _circle_set_distance(got, dense_oracle.phases(m)) < 1e-12
    assert np.abs(m @ vectors - vectors * np.exp(-1j * got)).max() < 1e-12


@pytest.mark.parametrize("part", ["imag", "real"])
def test_residual_guard_sees_a_defect_in_either_part(monkeypatch, part):
    # M = i B diag(sigma (1 + defect)) B^T, or the same without the i: its
    # phases sit at +-pi/2 (or 0 and pi), so a modulus defect of 1e-6 lies
    # in Im M (or Re M) only, and only that half of the residual sees it
    rng = np.random.default_rng(11)
    basis = ortho_group.rvs(12, random_state=rng)
    moduli = rng.choice([-1.0, 1.0], 12) * (1.0 + rng.uniform(1e-6, 2e-6, 12))
    m = (basis * moduli) @ basis.T
    m = 1j * m if part == "imag" else m.astype(complex)
    calls = []
    schur = spectral._schur_eigenpairs
    monkeypatch.setattr(spectral, "_schur_eigenpairs", lambda a: calls.append(1) or schur(a))
    with pytest.raises(NumericalError, match="eigenpair residual"):
        sector_eigenpairs(m)
    assert calls == [1]


def _check_fallback_eigenpairs(m):
    eps, vectors = spectral._schur_eigenpairs(m)
    assert np.linalg.norm(m @ vectors - vectors * np.exp(-1j * eps), axis=0).max() < 1e-12
    assert np.abs(vectors.conj().T @ vectors - np.eye(len(m))).max() < 1e-12
    assert _circle_set_distance(eps, dense_oracle.phases(m)) < 1e-12


@pytest.mark.parametrize("multiplicity", [2, 10, 50])
@pytest.mark.parametrize("n", [200, 201])
def test_fallback_orthonormalizes_exactly_degenerate_levels(n, multiplicity):
    # eig's eigenvectors of one degenerate level are far from orthogonal
    rng = np.random.default_rng(n + multiplicity)
    eps = rng.uniform(-np.pi, np.pi, n - multiplicity + 1)
    eps = np.concatenate([np.full(multiplicity - 1, eps[0]), eps])
    basis = ortho_group.rvs(n, random_state=rng)
    _check_fallback_eigenpairs((basis * np.exp(-1j * eps)) @ basis.T)


@pytest.mark.parametrize("variant", ["sym1", "plain"])
def test_fallback_on_degenerate_cores(variant):
    # at kxky 10 a sector of two_j 200 holds exactly degenerate levels
    kx = np.sqrt(10.0 / 1.7)
    op = floquet_operator(KickParams(kx, 1.7 * kx, variant=variant), 200)
    for core in op.cores:
        _check_fallback_eigenpairs(core)


def test_fallback_failure_is_a_numerical_error():
    with pytest.raises(NumericalError, match="eigendecomposition failed"):
        spectral._schur_eigenpairs(np.full((4, 4), np.nan, dtype=complex))


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
    for bad_two_j in (0, -1):
        with pytest.raises(ValueError):
            stage_classify(1.0, 1.0, bad_two_j)


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
    assert chiral_expectation(dense_oracle.probe(8, 0.9, 0.4)) == pytest.approx(0.0, abs=1e-12)
