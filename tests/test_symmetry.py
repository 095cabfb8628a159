import functools

import numpy as np
import pytest
import scipy.linalg

from kickedtop.errors import NumericalError
from kickedtop.floquet import KickParams, floquet_operator, kick_unitary
from kickedtop.spin import angular_momentum_matrices, dim_top, pauli_matrix
from kickedtop.symmetry import (KINDS, parity_labels, parity_phases, sector_indices,
                                squared_sign, symmetry_operator, verify_symmetries)


def test_parity_labels_spin_half():
    # sectors {(-1/2,up), (+1/2,down)} and {(-1/2,down), (+1/2,up)}
    assert parity_labels(1).tolist() == [1, -1, -1, 1]


@pytest.mark.parametrize("two_j", [1, 2, 5, 10, 11])
def test_sector_sizes_and_signs(two_j):
    labels = parity_labels(two_j)
    assert (labels == 1).sum() == two_j + 1
    assert (labels == -1).sum() == two_j + 1
    assert np.array_equal(labels ** 2, np.ones_like(labels))


@pytest.mark.parametrize("two_j", [4, 7])
def test_parity_squares_to_identity(two_j):
    mat, anti = symmetry_operator("parity", two_j)
    assert not anti
    assert np.abs(mat @ mat - np.eye(mat.shape[0])).max() < 1e-12


def test_time_reversal_2_matches_expm_oracle():
    two_j = 6
    ops = angular_momentum_matrices(two_j)
    gen = np.kron(ops.jy, np.eye(2)) + np.kron(np.eye(dim_top(two_j)), pauli_matrix("y") / 2)
    oracle = scipy.linalg.expm(-1j * np.pi * gen)
    mat, anti = symmetry_operator("time_reversal_2", two_j)
    assert anti
    assert np.abs(mat - oracle).max() < 1e-12


@pytest.mark.parametrize("two_j", [6, 7, 40, 41])
@pytest.mark.parametrize("variant", ["plain", "sym1", "sym2"])
def test_pi_rotation_about_x_commutes_with_u_and_flips_parity_at_even_two_j(two_j, variant):
    # R_x = exp(-i pi (Jx + sigma_x/2)) keeps Jx sigma_x and maps Jy sigma_y to
    # itself, so it commutes with every ordering of the kicks.  It sends m to
    # -m: with total spin j + 1/2 it anticommutes with parity at even 2j, which
    # makes the sectors mirrors, and commutes with it at odd 2j
    ops = angular_momentum_matrices(two_j)
    gen = np.kron(ops.jx, np.eye(2)) + np.kron(np.eye(dim_top(two_j)), pauli_matrix("x") / 2)
    r = scipy.linalg.expm(-1j * np.pi * gen)
    kx, ky = 1.9, 17.0
    x, y = kick_unitary("x", kx, two_j), kick_unitary("y", ky, two_j)
    if variant == "plain":
        u = y @ x
    elif variant == "sym1":
        half = kick_unitary("y", ky / 2.0, two_j)
        u = half @ x @ half
    else:
        half = kick_unitary("x", kx / 2.0, two_j)
        u = half @ y @ half
    assert np.abs(r @ u - u @ r).max() < 1e-12
    pi = np.diag(parity_phases(two_j))
    anti, comm = np.abs(r @ pi + pi @ r).max(), np.abs(r @ pi - pi @ r).max()
    if two_j % 2 == 0:
        assert anti < 1e-12 and comm > 0.5
    else:
        assert comm < 1e-12 and anti > 0.5


def test_squared_signs():
    for two_j in (10, 12):   # 2j even: T2 squares to -1
        assert squared_sign("time_reversal_2", two_j) == -1
    for two_j in (9, 11):    # 2j odd: T2 squares to +1
        assert squared_sign("time_reversal_2", two_j) == 1
    for kind in ("parity", "time_reversal_1", "particle_hole", "chiral"):
        assert squared_sign(kind, 10) == 1
        assert squared_sign(kind, 11) == 1


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        symmetry_operator("mirror", 4)


@pytest.mark.parametrize("two_j", [10, 11])
@pytest.mark.parametrize("variant", ["sym1", "sym2"])
def test_all_relations_hold_for_symmetrized(two_j, variant):
    op = floquet_operator(KickParams(1.3, 2.1, variant=variant), two_j)
    report = verify_symmetries(op)
    for name, value in report.residuals.items():
        assert value <= 1e-10, (name, value)
    assert report.parity_offblock <= 1e-12
    assert report.squared_signs["time_reversal_2"] == (1 if two_j % 2 else -1)


def test_plain_variant_preserves_parity_only():
    report = verify_symmetries(floquet_operator(KickParams(1.0, 2.0), 10))
    assert report.residuals["parity"] <= 1e-12
    assert report.parity_offblock <= 1e-12
    # the plain ordering is not symmetric, so the conjugation relations fail
    assert report.residuals["time_reversal_1"] > 1e-6


def test_delta_breaks_chiral_keeps_parity():
    report = verify_symmetries(floquet_operator(KickParams(1.0, 2.0, delta=1.6), 10))
    assert report.residuals["chiral"] > 1e-6
    assert report.residuals["parity"] <= 1e-10
    assert report.parity_offblock <= 1e-12


@pytest.mark.parametrize("two_j", [10, 11])
def test_delta_keeps_conjugation_up_to_similarity(two_j):
    # both kick generators stay real symmetric for delta > 0, so U = Y X is
    # similar to the complex-symmetric U~ = Y^(1/2) X Y^(1/2): K maps U~ to U~^-1
    kx, ky, delta = 1.3, 2.1, 1.6
    op = floquet_operator(KickParams(kx, ky, delta=delta), two_j)
    half_y = kick_unitary("y", ky / 2.0, two_j, delta / 2.0)
    u_sym = half_y @ kick_unitary("x", kx, two_j, delta) @ half_y
    assert np.abs(half_y.conj().T @ op.u @ half_y - u_sym).max() <= 1e-10
    assert np.abs(u_sym - u_sym.T).max() <= 1e-10
    report = verify_symmetries(op)
    for name in ("time_reversal_2", "particle_hole", "chiral"):
        assert report.residuals[name] > 1e-6, (name, report.residuals[name])


def test_misassigned_sector_shows_in_parity_offblock(monkeypatch):
    # one state put into the wrong parity sector
    from kickedtop import floquet, symmetry

    plus, minus = (idx.copy() for idx in sector_indices(11))
    plus[0], minus[0] = minus[0], plus[0]
    params = KickParams(1.3, 2.1, variant="sym1")
    # the operator refuses to build on that split: sigma_z is then no signed
    # reversal of the kick eigenbasis
    with monkeypatch.context() as patch:
        patch.setattr(floquet, "sector_indices", lambda two_j: (plus, minus))
        patch.setattr(floquet, "_sectors", functools.cache(floquet._sectors.__wrapped__))
        with pytest.raises(NumericalError, match="reversal"):
            floquet_operator(params, 11)
    # U built on the correct split is block-diagonal there; the kick
    # generators are not block-diagonal on the wrong one, and the report shows it
    op = floquet_operator(params, 11)
    monkeypatch.setattr(symmetry, "sector_indices", lambda two_j: (plus, minus))
    assert verify_symmetries(op).parity_offblock > 0.0


def test_report_serializes():
    report = verify_symmetries(floquet_operator(KickParams(0.7, 0.9, variant="sym1"), 5))
    doc = report.as_dict()
    assert set(doc) == {"two_j", "residuals", "squared_signs", "parity_offblock"}
    assert set(doc["squared_signs"]) == set(KINDS)


def test_sector_indices_partition():
    plus, minus = sector_indices(8)
    together = np.sort(np.concatenate([plus, minus]))
    assert np.array_equal(together, np.arange(18))


def test_parity_phases_real_sign_pattern():
    for two_j in (3, 4, 9, 12):
        phases = parity_phases(two_j)
        assert np.array_equal(np.abs(phases), np.ones(2 * (two_j + 1)))
