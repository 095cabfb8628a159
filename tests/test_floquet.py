import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import dense_oracle
from kickedtop import floquet
from kickedtop.errors import NumericalError
from kickedtop.floquet import FloquetOperator, KickParams, floquet_operator, unitarity_defect
from kickedtop.spin import dim_top, ladder_elements, m_values
from kickedtop.symmetry import sector_indices


def _sorted_eigenphases(u):
    return np.sort(np.angle(np.linalg.eigvals(u)))


# the dense oracle's kicks, from eigh, against the identity and expm


def test_zero_kick_is_identity():
    assert np.abs(dense_oracle.kick(6, "x", 0.0) - np.eye(14)).max() < 1e-12


def test_pure_delta_pi_is_minus_identity():
    u = dense_oracle.kick(3, "y", 0.0, np.pi)
    assert np.abs(u + np.eye(8)).max() < 1e-10


@pytest.mark.parametrize("axis", ["x", "y"])
def test_kick_matches_expm_oracle(axis):
    expm = scipy.linalg.expm(-1j * dense_oracle.generator(4, axis, 1.0))
    assert np.abs(dense_oracle.kick(4, axis, 1.0) - expm).max() < 1e-10


def test_delta_kick_matches_expm_oracle():
    expm = scipy.linalg.expm(-1j * dense_oracle.generator(6, "x", 1.3, 0.7))
    assert np.abs(dense_oracle.kick(6, "x", 1.3, 0.7) - expm).max() < 1e-10


def test_zero_params_identity_operator():
    op = floquet_operator(KickParams(0.0, 0.0), 5)
    assert np.abs(op.u - np.eye(12)).max() < 1e-12


def test_plain_product_matches_expm_oracle():
    # the oracle's kicks are held against expm by the kick tests above
    for two_j in (20, 21):
        for delta in (0.0, 0.7):
            op = floquet_operator(KickParams(1.0, 2.0, delta=delta), two_j)
            dense = dense_oracle.unitary(two_j, 1.0, 2.0, "plain", delta)
            assert np.abs(op.u - dense).max() < 1e-12


def test_plain_order_x_kick_first():
    # U psi for a one-kick y operator must equal the y kick alone
    two_j = 6
    op = floquet_operator(KickParams(0.0, 1.5), two_j)
    assert np.abs(op.u - dense_oracle.kick(two_j, "y", 1.5)).max() < 1e-12


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
        assert np.abs(op.u - dense_oracle.unitary(two_j, kx, ky, "sym1")).max() < 1e-12


def test_sym2_structure():
    kx, ky = 1.1, 2.3
    for two_j in (8, 9):
        op = floquet_operator(KickParams(kx, ky, variant="sym2"), two_j)
        assert np.abs(op.u - dense_oracle.unitary(two_j, kx, ky, "sym2")).max() < 1e-12


@pytest.mark.parametrize("two_j", [1, 2, 6, 7, 64, 65, 200, 201])
def test_generators_are_real_in_each_parity_sector(two_j):
    # the facts the sector-reduced engine rests on: no entries between the
    # sectors, Jx sx / j = T = Jx / j, Jy sy / j = S T S for a +-1 gauge S of
    # period 4, and sz diagonal +-1, each in ascending-m sector order
    t = np.diag(ladder_elements(two_j) / two_j, -1)
    t += t.T
    d = dim_top(two_j)
    gauges = [np.resize([1.0, 1.0, -1.0, -1.0], d), np.resize([1.0, -1.0, -1.0, 1.0], d)]
    gens = {axis: dense_oracle.generator(two_j, axis, 1.0) for axis in "xy"}
    gens["z"] = np.kron(np.eye(d), dense_oracle.SIGMA["z"])
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


@pytest.mark.parametrize("two_j, built", [(6, 1), (7, 2)])
def test_stored_overlaps_are_the_built_sectors(two_j, built):
    # at even 2j only sector +1 is built, so only the halves of its overlap
    # C = V^T S V are kept: C+ and C-, the blocks of C on the fold basis
    sectors = floquet._sectors(two_j)
    assert len(sectors.halves) == built
    for (plus, minus), gauge, signs in zip(sectors.halves, sectors.gauge, sectors.reversal):
        assert not plus.flags.writeable and not minus.flags.writeable
        q, _ = dense_oracle.fold_basis(signs)
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
    z = np.tile(np.diag(dense_oracle.SIGMA["z"]), two_j + 1)
    dense_kicks = DELTA_KICKS if two_j < 100 else DELTA_KICKS[::4] + DELTA_KICKS[-1:]
    for kappa, delta in DELTA_KICKS:
        dense = (dense_oracle.kick(two_j, "x", kappa, delta) if (kappa, delta) in dense_kicks
                 else None)
        a, s = floquet._pair_kick(sectors.lam[:(d + 1) // 2], kappa, delta)
        for k, idx in enumerate(sector_indices(two_j)):
            q, n = dense_oracle.fold_basis(sectors.reversal[k])
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
@pytest.mark.parametrize("variant, delta", [("plain", 0.0), ("sym1", 0.0), ("sym2", 0.0),
                                            ("plain", 0.7)],
                         ids=["plain", "sym1", "sym2", "plain-delta"])
def test_jz_band_is_the_frame_jz(two_j, variant, delta):
    # Jz keeps the spin and couples neighbouring eigenstates of Jx only, so on
    # the fold basis, with D = 1 on the + states and i on the - states,
    # D^dag frame^dag Jz frame D is a real band: the frames carry no kick.  The
    # plain half y kick, which turns the fold basis of a core to that of its
    # frame, is on each pair (+k, -k) the kick
    # exp(-i (ky lambda_k sigma_x + delta sigma_z) / 2), turned by D, and on the
    # middle state of odd d the phase of its side
    d, ky = two_j + 1, 2.9
    op = floquet_operator(KickParams(1.7, ky, delta=delta, variant=variant), two_j)
    diags, offs = op.jz_band
    assert diags.shape == (len(op.cores), d) and offs.shape == (len(op.cores), d - 1)
    kicks = dense_oracle.pair_kicks(two_j, ky / 2.0, delta / 2.0)
    a, s = kicks[:, 0, 0], 1j * kicks[:, 0, 1]
    if variant == "plain":
        turn = op.half_kick
        assert np.abs(turn[0] - a).max() < 1e-13 and np.abs(turn[1] - s).max() < 1e-13
    else:
        assert op.half_kick is None
    for dense, fold, diag, off in zip(_frame_jz(op), op.folds, diags, offs):
        n = len(fold[0])
        phases = np.where(np.arange(d) < n, 1.0, 1j)
        folded = phases.conj()[:, None] * dense * phases
        band = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.abs(folded - band).max() < 1e-12 * two_j / 2.0


def test_jz_band_is_certified_once_per_two_j(monkeypatch):
    two_j = 6
    diag, off = floquet._jz_band(two_j, False)
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
    # that the tests, the README and the benchmark use, none does, and every
    # build stores a fold and a fold-basis Jz band of each distinct core, the
    # fold real exactly when delta = 0
    for two_j in (*range(1, 66), 200, 201, 400, 401):
        floquet._sectors(two_j)
        floquet._jz_band(two_j, False)
        for params in (KickParams(1.9, 17.0), KickParams(1.9, 17.0, delta=0.7)):
            op = floquet_operator(params, two_j)
            assert len(op.folds) == len(op.jz_band[0]) == len(op.cores), two_j
            dtypes = {block.dtype for fold in op.folds for block in fold}
            assert dtypes == {np.dtype(float if params.delta == 0.0 else complex)}, two_j


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
    # every core is built and stored on its fold basis, whatever delta, and
    # every plain operator at a two_j shares one frame stack: what delta moves
    # is the half y kick that turns the core's fold basis to the frame's
    zero = floquet_operator(KickParams(kx, ky), two_j)
    small = floquet_operator(KickParams(kx, ky, delta=1e-10), two_j)
    assert np.abs(small.core - zero.core).max() < 1e-9
    assert small.frame is zero.frame
    for built, limit in zip(small.half_kick, zero.half_kick):
        assert np.abs(built - limit).max() < 1e-9


@pytest.mark.parametrize("two_j", [1, 2, 12, 13, 64, 65])
@pytest.mark.parametrize("delta", [0.0, 0.7])
def test_plain_frame_with_its_half_kick_and_blocks_match_the_dense_oracle(two_j, delta):
    # the plain frame S V Q carries no kick; turned by the half y kick H on
    # the fold basis it is the oracle's half y kick on the gauged eigenbasis
    # of Jx / j, Y^(1/2) S V Q, and sector_blocks, which turns the core by H
    # on both sides, gives the oracle's blocks of Y X
    kx, ky = 1.9, 2.9
    op = floquet_operator(KickParams(kx, ky, delta=delta), two_j)
    sectors = floquet._sectors(two_j)
    half = dense_oracle.kick(two_j, "y", ky / 2.0, delta / 2.0)
    for k, (idx, (a, _, _)) in enumerate(zip(dense_oracle.sectors(two_j), op.folds)):
        q, n = dense_oracle.fold_basis(sectors.reversal[k])
        assert n == len(a)
        eigenbasis = half[np.ix_(idx, idx)] @ (sectors.gauge[k][:, None] * sectors.vecs)
        kicked = op.frame[k] @ dense_oracle.fold_kick(two_j, n, ky / 2.0, delta / 2.0)
        assert np.abs(kicked - eigenbasis @ q).max() < 1e-13
    blocks = dense_oracle.blocks(dense_oracle.unitary(two_j, kx, ky, "plain", delta))
    assert np.abs(op.sector_blocks() - blocks).max() < 1e-13


@pytest.mark.parametrize("two_j", [12, 13])
def test_builds_share_one_read_only_frame_stack_per_gauge_family(monkeypatch, two_j):
    # the frames depend on two_j and the gauge alone: S V Q for plain and
    # sym1, with or without delta, and V Q for sym2, each stack written at
    # the first build of its family and read by every later one
    d = two_j + 1
    plain = floquet_operator(KickParams(1.9, 2.9), two_j)
    sym2 = floquet_operator(KickParams(1.9, 2.9, variant="sym2"), two_j)
    writes = []
    for name in ("_fold_frame", "conjugate_mirror"):
        monkeypatch.setattr(floquet, name, lambda *args, name=name, **kw: writes.append(name))
    for params in (KickParams(0.3, 17.0), KickParams(0.3, 17.0, delta=0.7),
                   KickParams(0.3, 17.0, variant="sym1")):
        assert floquet_operator(params, two_j).frame is plain.frame
    assert floquet_operator(KickParams(0.3, 17.0, variant="sym2"), two_j).frame is sym2.frame
    assert writes == []
    assert sym2.frame is not plain.frame
    sectors = floquet._sectors(two_j)
    for op, gauge in ((plain, sectors.gauge), (sym2, np.ones((2, d)))):
        assert op.frame.shape == (2, d, d) and op.frame.dtype == complex
        assert not op.frame.flags.writeable
        for k in range(len(op.cores)):
            q, _ = dense_oracle.fold_basis(sectors.reversal[k])
            assert np.abs(op.frame[k] - gauge[k][:, None] * sectors.vecs @ q).max() < 1e-14


@pytest.mark.parametrize("two_j", [64, 65])
@pytest.mark.parametrize("delta", [0.0, 0.7])
def test_a_build_allocates_no_frame_and_one_core_stack(two_j, delta):
    # the core stack is a build's one (2, d, d) allocation, and no larger
    # block holds it: the frames are shared per two_j
    params = KickParams(1.9, 2.9, delta=delta)
    floquet_operator(params, two_j)
    tracemalloc.start()
    try:
        op = floquet_operator(params, two_j)
        sizes = [trace.size for trace in tracemalloc.take_snapshot().traces]
    finally:
        tracemalloc.stop()
    assert op.core.shape == (2, two_j + 1, two_j + 1) and op.core.base is None
    assert [size for size in sizes if size >= op.core.nbytes] == [op.core.nbytes]


def test_each_build_and_band_reads_only_its_own_frame_family():
    # the frames are kept beside the per-two_j data, so clearing that cache
    # clears them, and a family is built only when an operator of it is built
    # or its Jz band read: plain and sym1 leave the sym2 family unbuilt, and
    # sym2 the other one, and both families give one band
    bands = {}
    for sym2, variants in ((False, ("plain", "sym1")), (True, ("sym2",))):
        floquet._sectors.cache_clear()
        floquet._jz_band.cache_clear()
        for variant in variants:
            for delta in ((0.0, 0.7) if variant == "plain" else (0.0,)):
                bands[variant, delta] = floquet_operator(
                    KickParams(1.9, 2.9, delta=delta, variant=variant), 12).jz_band
        assert list(floquet._sectors(12).frames) == [sym2]
    for diag, off in bands.values():
        assert np.array_equal(diag, bands["sym2", 0.0][0])
        assert np.array_equal(off, bands["sym2", 0.0][1])
    floquet._sectors.cache_clear()
    assert floquet._sectors(12).frames == {}


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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["kappa_x", "kappa_y", "delta"])
def test_non_finite_params_rejected(field, value):
    values = {"kappa_x": 1.0, "kappa_y": 1.0, "delta": 0.0, field: value}
    with pytest.raises(ValueError, match=field):
        KickParams(**values)
