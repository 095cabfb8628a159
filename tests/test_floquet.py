import numpy as np
import pytest
import scipy.linalg

from kickedtop import floquet
from kickedtop.errors import NumericalError
from kickedtop.floquet import (FloquetOperator, KickParams, coupling_generator,
                               floquet_operator, kick_unitary, unitarity_defect)
from kickedtop.spin import (SIGMA_Z, angular_momentum_matrices, coupling_operator, dim_top,
                           ladder_elements, m_values)
from kickedtop.symmetry import sector_indices


def _expm_kick(axis, kappa, two_j, delta=0.0):
    gen = kappa * coupling_generator(axis, two_j)
    if delta:
        gen = gen + delta * np.kron(np.eye(dim_top(two_j)), SIGMA_Z)
    return scipy.linalg.expm(-1j * gen)


def _sorted_eigenphases(u):
    return np.sort(np.angle(np.linalg.eigvals(u)))


def test_zero_kick_is_identity():
    assert np.abs(kick_unitary("x", 0.0, 6) - np.eye(14)).max() < 1e-12


def test_pure_delta_pi_is_minus_identity():
    u = kick_unitary("y", 0.0, 3, delta=np.pi)
    assert np.abs(u + np.eye(8)).max() < 1e-10


@pytest.mark.parametrize("axis", ["x", "y"])
def test_kick_matches_expm_oracle(axis):
    u = kick_unitary(axis, 1.0, 4)
    assert np.abs(u - _expm_kick(axis, 1.0, 4)).max() < 1e-10


def test_delta_kick_matches_expm_oracle():
    u = kick_unitary("x", 1.3, 6, delta=0.7)
    assert np.abs(u - _expm_kick("x", 1.3, 6, delta=0.7)).max() < 1e-10


def test_zero_params_identity_operator():
    op = floquet_operator(KickParams(0.0, 0.0), 5)
    assert np.abs(op.u - np.eye(12)).max() < 1e-12


def test_plain_product_matches_expm_oracle():
    for two_j in (20, 21):
        for delta in (0.0, 0.7):
            op = floquet_operator(KickParams(1.0, 2.0, delta=delta), two_j)
            oracle = _expm_kick("y", 2.0, two_j, delta) @ _expm_kick("x", 1.0, two_j, delta)
            assert np.abs(op.u - oracle).max() < 1e-10
            dense = kick_unitary("y", 2.0, two_j, delta) @ kick_unitary("x", 1.0, two_j, delta)
            assert np.abs(op.u - dense).max() < 1e-12


def test_plain_order_x_kick_first():
    # U psi for a one-kick y operator must equal the y kick alone
    two_j = 6
    op = floquet_operator(KickParams(0.0, 1.5), two_j)
    assert np.abs(op.u - kick_unitary("y", 1.5, two_j)).max() < 1e-12


@pytest.mark.parametrize("variant", ["sym1", "sym2"])
def test_variant_spectra_agree(variant):
    rng = np.random.default_rng(11)
    for _ in range(10):
        kx, ky = rng.uniform(0.2, 4.0, size=2)
        plain = floquet_operator(KickParams(kx, ky), 20)
        other = floquet_operator(KickParams(kx, ky, variant=variant), 20)
        diff = _sorted_eigenphases(plain.u) - _sorted_eigenphases(other.u)
        assert np.abs(diff).max() < 1e-9


def test_sym1_structure():
    kx, ky = 1.1, 2.3
    for two_j in (8, 9):
        op = floquet_operator(KickParams(kx, ky, variant="sym1"), two_j)
        half = kick_unitary("y", ky / 2.0, two_j)
        assert np.abs(op.u - half @ kick_unitary("x", kx, two_j) @ half).max() < 1e-12


def test_sym2_structure():
    kx, ky = 1.1, 2.3
    for two_j in (8, 9):
        op = floquet_operator(KickParams(kx, ky, variant="sym2"), two_j)
        half = kick_unitary("x", kx / 2.0, two_j)
        assert np.abs(op.u - half @ kick_unitary("y", ky, two_j) @ half).max() < 1e-12


@pytest.mark.parametrize("two_j", [1, 2, 6, 7, 64, 65, 200, 201])
def test_generators_are_real_in_each_parity_sector(two_j):
    # the facts the sector-reduced engine rests on: no entries between the
    # sectors, Jx sx / j = T = Jx / j, Jy sy / j = S T S for a +-1 gauge S of
    # period 4, and sz diagonal +-1, each in ascending-m sector order
    j = two_j / 2.0
    t = angular_momentum_matrices(two_j).jx.real / j
    d = dim_top(two_j)
    gauges = [np.resize([1.0, 1.0, -1.0, -1.0], d), np.resize([1.0, -1.0, -1.0, 1.0], d)]
    gens = {axis: coupling_operator(axis, two_j) / j for axis in "xy"}
    gens["z"] = np.kron(np.eye(d), SIGMA_Z)
    plus, minus = sector_indices(two_j)
    for idx, other in ((plus, minus), (minus, plus)):
        blocks = {axis: gen[np.ix_(idx, idx)] for axis, gen in gens.items()}
        for gen in gens.values():
            assert not gen[np.ix_(idx, other)].any()
        assert np.abs(blocks["x"] - t).max() < 1e-15
        assert min(np.abs(blocks["y"] - s[:, None] * t * s[None, :]).max()
                   for s in gauges) < 1e-15
        z = np.diag(blocks["z"])
        assert np.array_equal(blocks["z"], np.diag(z)) and np.array_equal(np.abs(z), np.ones(d))


def test_kick_exchange_symmetry_of_spectrum():
    a = floquet_operator(KickParams(1.4, 2.6), 20)
    b = floquet_operator(KickParams(2.6, 1.4), 20)
    diff = _sorted_eigenphases(a.u) - _sorted_eigenphases(b.u)
    assert np.abs(diff).max() < 1e-9


@pytest.mark.parametrize("params", [
    KickParams(0.5, 0.5),
    KickParams(3.0, 7.0, variant="sym1"),
    KickParams(10.0, 20.0, variant="sym2"),
    KickParams(2.0, 4.0, delta=1.6),
])
def test_unitarity(params):
    op = floquet_operator(params, 15)
    assert unitarity_defect(op.u) < 1e-10


def test_refresh_sweep_unitary():
    # a 100-point sweep of the kick strengths, as a parameter sweep rebuilds
    # the operator, for every ordering and with delta
    for variant, delta in [("plain", 0.0), ("sym1", 0.0), ("sym2", 0.0), ("plain", 1.6)]:
        for kappa in np.linspace(0.1, 12.0, 100):
            swept = KickParams(kappa, 0.7 * kappa, delta=delta, variant=variant)
            assert unitarity_defect(floquet_operator(swept, 40).u) < 1e-10


@pytest.mark.parametrize("two_j", [6, 7])
def test_non_orthogonal_cached_overlap_rejected(monkeypatch, two_j):
    # C = V^T S V is certified once per two_j, before the cache entry is stored
    eigensystem = floquet.jx_eigensystem
    floquet._sectors.cache_clear()
    monkeypatch.setattr(floquet, "jx_eigensystem",
                        lambda n: (eigensystem(n)[0], 1.001 * eigensystem(n)[1]))
    with pytest.raises(NumericalError):
        floquet_operator(KickParams(1.0, 1.0), two_j)
    assert floquet._sectors.cache_info().currsize == 0


@pytest.mark.parametrize("two_j", [6, 7])
def test_chiral_reversal_is_certified_once_per_two_j(monkeypatch, two_j):
    sectors = floquet._sectors(two_j)
    assert not sectors.reversal.flags.writeable
    assert np.array_equal(sectors.reversal[1], -sectors.reversal[0])
    # swapping two eigenvectors keeps C = V^T S V orthogonal but makes
    # V^T Z V no signed reversal: every core, with or without delta, is built
    # on its fold basis, so no operator is built and nothing is cached
    eigensystem = floquet.jx_eigensystem
    floquet._sectors.cache_clear()
    monkeypatch.setattr(floquet, "jx_eigensystem",
                        lambda n: (eigensystem(n)[0], eigensystem(n)[1][:, [1, 0, *range(2, n + 1)]]))
    for delta in (0.0, 0.7):
        with pytest.raises(NumericalError, match="reversal"):
            floquet_operator(KickParams(1.0, 1.0, delta=delta), two_j)
    assert floquet._sectors.cache_info().currsize == 0


def _fold_basis(signs):
    """The fold basis Q for the reversal J e_k = signs_k e_{d-1-k}: the +
    states (e_k + signs_k e_{d-1-k}) / sqrt(2), k ascending, then the -
    states, the middle state e_m of odd d last in the block of its sign;
    and the number of + states."""
    d, m = len(signs), len(signs) // 2
    n = m + int(d % 2 == 1 and signs[m] > 0)
    q = np.zeros((d, d))
    k = np.arange(m)
    q[k, k] = q[k, n + k] = np.sqrt(0.5)
    q[d - 1 - k, k] = signs[k] * np.sqrt(0.5)
    q[d - 1 - k, n + k] = -signs[k] * np.sqrt(0.5)
    if d % 2:
        q[m, m if n > m else d - 1] = 1.0
    return q, n


@pytest.mark.parametrize("two_j, built", [(6, 1), (7, 2)])
def test_stored_overlaps_are_the_built_sectors(two_j, built):
    # at even 2j only sector +1 is built, so only the halves of its overlap
    # C = V^T S V are kept: C+ and C-, the blocks of C on the fold basis
    sectors = floquet._sectors(two_j)
    assert len(sectors.halves) == built
    for (plus, minus), gauge, signs in zip(sectors.halves, sectors.gauge, sectors.reversal):
        assert not plus.flags.writeable and not minus.flags.writeable
        q, _ = _fold_basis(signs)
        folded = q.T @ sectors.vecs.T @ (gauge[:, None] * sectors.vecs) @ q
        assert np.abs(folded - scipy.linalg.block_diag(plus, minus)).max() < 1e-14


DELTA_KICKS = [(kappa, delta) for kappa in (0.0, 1e-9, 1.7, 300.0) for delta in (1e-9, 0.7, 40.0)]


@pytest.mark.parametrize("two_j", [1, 2, 3, 6, 7, 64, 65, 200, 201])
def test_delta_kick_matches_the_tridiagonal_and_dense_oracles(two_j):
    # on the fold basis Q D of the cached eigenbasis V, D = 1 on the + states
    # and i on the - states, the kick exp(-i (kappa T + delta Z)) is one pair
    # kick [[a, s], [-s, conj(a)]] per pair (+k, -k), and the phase of its side
    # on the middle state of odd d.  The oracles are the kick of the
    # tridiagonal eigenproblem and the dense kick; the dense one costs one eigh
    # of size 2d per kick, so at two_j 200 and 201 it checks four of the twelve
    # kicks, which take every kappa and every delta
    sectors = floquet._sectors(two_j)
    d, m = two_j + 1, (two_j + 1) // 2
    pairs = np.arange(m)
    offdiag = ladder_elements(two_j) / two_j
    z = np.tile(np.diag(SIGMA_Z).real, two_j + 1)
    dense_kicks = DELTA_KICKS if two_j < 100 else DELTA_KICKS[::4] + DELTA_KICKS[-1:]
    for kappa, delta in DELTA_KICKS:
        dense = kick_unitary("x", kappa, two_j, delta) if (kappa, delta) in dense_kicks else None
        a, s = floquet._pair_kick(sectors.lam[:(d + 1) // 2], kappa, delta)
        for k, idx in enumerate(sector_indices(two_j)):
            q, n = _fold_basis(sectors.reversal[k])
            kick = np.zeros((d, d), dtype=complex)
            kick[pairs, pairs], kick[n + pairs, n + pairs] = a[:m], np.conj(a[:m])
            kick[pairs, n + pairs], kick[n + pairs, pairs] = s[:m], -s[:m]
            if d % 2:
                kick[(m, m) if n > m else (d - 1, d - 1)] = a[m] if n > m else np.conj(a[m])
            basis = sectors.vecs @ q * np.where(np.arange(d) < n, 1.0, 1j)
            evals, vecs = scipy.linalg.eigh_tridiagonal(delta * z[idx], kappa * offdiag)
            oracles = [(vecs * np.exp(-1j * evals)) @ vecs.T]
            if dense is not None:
                oracles.append(dense[np.ix_(idx, idx)])
            for oracle in oracles:
                assert np.abs(basis.conj().T @ oracle @ basis - kick).max() < 1e-12


def _frame_jz(op):
    """frame^dag Jz frame of each of op.cores, Jz on the sector's m ladder."""
    m = m_values(op.two_j)
    return [frame.conj().T @ (m[:, None] * frame) for frame in op.frame[:len(op.cores)]]


@pytest.mark.parametrize("two_j", [1, 2, 3, 6, 7, 64, 65])
@pytest.mark.parametrize("variant", ["plain", "sym1", "sym2"])
def test_jz_band_is_the_frame_jz(two_j, variant):
    # Jz keeps the spin and couples neighbouring eigenstates of Jx only, so on
    # the fold basis, with D = 1 on the + states and i on the - states,
    # D^dag frame^dag Jz frame D is a real band; the plain frames' half y kicks
    # turn each pair (+k, -k) of it by half the kick angle of lambda_k
    d, ky = two_j + 1, 2.9
    op = floquet_operator(KickParams(1.7, ky, variant=variant), two_j)
    diags, offs, turn = op.jz_band
    assert diags.shape == (len(op.cores), d) and offs.shape == (len(op.cores), d - 1)
    lam = np.linalg.eigvalsh(angular_momentum_matrices(two_j).jx.real)[:d // 2] / (two_j / 2.0)
    cos, sin = np.cos(0.5 * ky * lam), np.sin(0.5 * ky * lam)
    if variant == "plain":
        assert np.abs(turn[0] - cos).max() < 1e-13 and np.abs(turn[1] - sin).max() < 1e-13
    else:
        assert turn is None
    for dense, fold, diag, off in zip(_frame_jz(op), op.folds, diags, offs):
        n = len(fold[0])
        phases = np.where(np.arange(d) < n, 1.0, 1j)
        folded = phases.conj()[:, None] * dense * phases
        if variant == "plain":
            pairs = np.arange(d // 2)
            rotation = np.eye(d)
            rotation[pairs, pairs] = rotation[n + pairs, n + pairs] = cos
            rotation[pairs, n + pairs], rotation[n + pairs, pairs] = sin, -sin
            folded = rotation @ folded @ rotation.T
        band = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.abs(folded - band).max() < 1e-12 * two_j / 2.0


@pytest.mark.parametrize("two_j", [3, 6, 7, 64, 65])
def test_delta_frames_have_no_jz_band(two_j):
    op = floquet_operator(KickParams(1.7, 2.9, delta=0.7), two_j)
    assert op.jz_band is None
    for dense in _frame_jz(op):
        off_band = dense - np.triu(np.tril(dense, 1), -1)
        assert np.abs(off_band).max() > 1e-3 * two_j / 2.0


def test_jz_band_is_certified_once_per_two_j(monkeypatch):
    two_j = 6
    diag, off = floquet._jz_band(two_j)
    assert not diag.flags.writeable and not off.flags.writeable
    # Jz + Jz^2 / 2j is no band in the eigenbasis of Jx, as Jz^2 couples
    # next-nearest levels; only the band reads m_values, so the operator
    # builds and its band is refused
    floquet._jz_band.cache_clear()
    monkeypatch.setattr(floquet, "m_values", lambda n: m_values(n) + m_values(n) ** 2 / n)
    op = floquet_operator(KickParams(1.0, 1.0, variant="sym1"), two_j)
    with pytest.raises(NumericalError, match="band"):
        op.jz_band
    assert floquet._jz_band.cache_info().currsize == 0


def test_certificates_hold_at_every_workload_size():
    # the per-two_j certificates refuse a build where they fail; at the sizes
    # that the tests, the README and the benchmark use, none does, and a fold
    # and a fold-basis Jz band of each distinct core exist exactly when delta = 0
    for two_j in (*range(1, 66), 200, 201, 400, 401):
        floquet._sectors(two_j)
        floquet._jz_band(two_j)
        for params in (KickParams(1.9, 17.0), KickParams(1.9, 17.0, delta=0.7)):
            op = floquet_operator(params, two_j)
            present = [value is not None for value in (op.folds, op.jz_band)]
            assert present == [params.delta == 0.0] * 2, two_j
            if op.folds is not None:
                assert len(op.folds) == len(op.jz_band[0]) == len(op.cores), two_j


def test_non_orthogonal_delta_overlap_rejected(monkeypatch):
    # each pair kick is certified unitary where a core is built, for every delta
    floquet_operator(KickParams(1.0, 1.0), 7)  # the cached entry is certified and stored
    kick = floquet._pair_kick
    monkeypatch.setattr(floquet, "_pair_kick", lambda *args: tuple(1.001 * x for x in kick(*args)))
    for delta in (0.7, 0.0):
        with pytest.raises(NumericalError, match="pair kick"):
            floquet_operator(KickParams(1.0, 1.0, delta=delta), 7)


@pytest.mark.parametrize("two_j", [1, 2, 12, 13, 64, 65])
@pytest.mark.parametrize("kx, ky", [(1.9, 17.0), (0.0, 3.0), (40.0, 70.0)])
def test_stored_core_and_frame_are_continuous_as_delta_vanishes(two_j, kx, ky):
    # every core is built and stored on its fold basis, whatever delta
    zero = floquet_operator(KickParams(kx, ky), two_j)
    small = floquet_operator(KickParams(kx, ky, delta=1e-10), two_j)
    assert np.abs(small.core - zero.core).max() < 1e-9
    assert np.abs(small.frame - zero.frame).max() < 1e-9


def test_operator_records_inputs():
    params = KickParams(0.3, 0.4, variant="sym2")
    op = floquet_operator(params, 9)
    assert isinstance(op, FloquetOperator)
    assert op.params == params
    assert op.two_j == 9
    assert op.dim == 20


def test_param_validation():
    with pytest.raises(ValueError):
        KickParams(-1.0, 1.0)
    with pytest.raises(ValueError):
        KickParams(1.0, 1.0, delta=-0.1)
    with pytest.raises(ValueError):
        KickParams(1.0, 1.0, variant="nope")
    with pytest.raises(ValueError):
        KickParams(1.0, 1.0, delta=0.5, variant="sym1")
    with pytest.raises(ValueError):
        kick_unitary("x", -1.0, 4)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["kappa_x", "kappa_y", "delta"])
def test_non_finite_params_rejected(field, value):
    values = {"kappa_x": 1.0, "kappa_y": 1.0, "delta": 0.0, field: value}
    with pytest.raises(ValueError, match=field):
        KickParams(**values)
