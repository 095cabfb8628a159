import dataclasses

import numpy as np
import pytest

import dense_oracle
from kickedtop import dynamics
from kickedtop.dynamics import dynamical_scan, stroboscopic_series
from kickedtop.errors import NumericalError
from kickedtop.floquet import FloquetOperator, KickParams, floquet_operator
from kickedtop.spectral import quasi_spectrum
from kickedtop.spin import coherent_state, product_state


def test_zero_kick_series_constant():
    op = floquet_operator(KickParams(0.0, 0.0), 10)
    psi0 = dense_oracle.probe(10, 0.7, 0.2)
    series = stroboscopic_series(op, psi0, 50)
    assert np.abs(series.jz_mean - series.jz_mean[0]).max() < 1e-12
    assert np.abs(series.jz_std - series.jz_std[0]).max() < 1e-12
    assert series.n.tolist() == list(range(51))


def test_norm_conserved_over_many_kicks():
    two_j = 100
    op = floquet_operator(KickParams(2.3, 4.1), two_j)
    psi = product_state(two_j, coherent_state(two_j, np.pi / 3, 0.0), np.array([1.0, 0.0]))
    u = op.u    # assembled on each access
    for _ in range(500):
        psi = u @ psi
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-10


def test_series_conserves_norm_over_many_kicks(monkeypatch):
    # the series' own guard, held to the bound the dense loop above meets
    monkeypatch.setattr(dynamics, "NORM_DRIFT_TOL", 1e-10)
    two_j = 100
    for params in (KickParams(2.3, 4.1), KickParams(2.3, 4.1, delta=0.7)):
        op = floquet_operator(params, two_j)
        psi = product_state(two_j, coherent_state(two_j, np.pi / 3, 0.0), np.array([1.0, 0.0]))
        series = stroboscopic_series(op, psi, 500)
        mean, std = dense_oracle.jz_series(op.u, psi, 500)
        assert np.abs(series.jz_mean - mean).max() < 1e-10
        assert np.abs(series.jz_std - std).max() < 1e-10


@pytest.mark.parametrize("n_max", [1, 7, 8, 9, 37])
@pytest.mark.parametrize("two_j, variant, delta", [
    (40, "plain", 0.0), (40, "sym1", 0.0), (40, "sym2", 0.0),
    (41, "plain", 0.0), (41, "sym1", 0.0), (41, "sym2", 0.0),
    (41, "plain", 0.7), (40, "plain", 0.7),
])
def test_series_matches_dense_oracle(two_j, variant, delta, n_max):
    op = floquet_operator(KickParams(1.7, 2.9, delta=delta, variant=variant), two_j)
    assert len(op.cores) == 1 + two_j % 2
    psi0 = dense_oracle.probe(two_j, 0.9, 0.4)
    series = stroboscopic_series(op, psi0, n_max)
    mean, std = dense_oracle.jz_series(op.u, psi0, n_max)
    assert series.n.tolist() == list(range(n_max + 1))
    assert np.abs(series.jz_mean - mean).max() < 1e-12
    assert np.abs(series.jz_std - std).max() < 1e-12


@pytest.mark.parametrize("two_j", [1, 2, 6, 7, 64, 65, 200, 201])
@pytest.mark.parametrize("variant, delta", [("plain", 0.0), ("sym1", 0.0), ("sym2", 0.0),
                                            ("plain", 0.7)],
                         ids=["plain", "sym1", "sym2", "plain-delta"])
def test_series_matches_dense_oracle_at_every_size(two_j, variant, delta):
    # the one kick loop, on the real fold at delta = 0 and on the complex one
    # at delta > 0, with and without a middle state and a mirrored sector;
    # n_max 37 runs past the first chunk of moments
    op = floquet_operator(KickParams(1.7, 2.9, delta=delta, variant=variant), two_j)
    psi0 = dense_oracle.probe(two_j, 0.9, 0.4)
    mean, std = dense_oracle.jz_series(op.u, psi0, 37)
    for n_max in (1, 7, 8, 9, 37):
        series = stroboscopic_series(op, psi0, n_max)
        assert np.abs(series.jz_mean - mean[:n_max + 1]).max() < 1e-12 * two_j / 2.0
        assert np.abs(series.jz_std - std[:n_max + 1]).max() < 1e-12 * two_j / 2.0


@pytest.mark.parametrize("two_j", [40, 41])
@pytest.mark.parametrize("variant", ["plain", "sym1", "sym2"])
def test_fold_path_matches_dense_kicks_over_many_kicks(two_j, variant):
    kx, ky = 1.7, 2.9
    op = floquet_operator(KickParams(kx, ky, variant=variant), two_j)
    psi0 = dense_oracle.probe(two_j, 0.9, 0.4)
    series = stroboscopic_series(op, psi0, 200)
    mean, std = dense_oracle.jz_series(dense_oracle.unitary(two_j, kx, ky, variant), psi0, 200)
    assert np.abs(series.jz_mean - mean).max() < 1e-10
    assert np.abs(series.jz_std - std).max() < 1e-10


@pytest.mark.parametrize("two_j", [12, 13])
def test_series_assembles_no_block(monkeypatch, two_j):
    # every core is kicked on its stored fold, real at delta = 0 and complex
    # above it: the series never assembles a sector block or the dense unitary
    def refused(self):
        raise AssertionError("the series must not assemble a block")

    monkeypatch.setattr(FloquetOperator, "sector_blocks", refused)
    monkeypatch.setattr(FloquetOperator, "u", property(refused))
    psi0 = dense_oracle.probe(two_j, 0.9, 0.4)
    for delta in (0.0, 0.7):
        op = floquet_operator(KickParams(1.7, 2.9, delta=delta), two_j)
        assert stroboscopic_series(op, psi0, 20).n.size == 21


@pytest.mark.parametrize("two_j", [40, 41])
@pytest.mark.parametrize("excess, kick", [(1e-6, 1), (3e-9, 4), (1e-8 / 20.5, 21)])
def test_norm_drift_guard_names_first_drifting_kick(two_j, excess, kick):
    # every block of the fold scales by 1 + excess, so the norm after n kicks is
    # (1 + excess)^n; the fold is real at delta = 0 and complex at 0.7
    psi0 = dense_oracle.probe(two_j, 0.9, 0.4)
    for delta in (0.0, 0.7):
        op = floquet_operator(KickParams(1.7, 2.9, delta=delta), two_j)
        folds = [tuple(block * (1.0 + excess) for block in fold) for fold in op.folds]
        grown = dataclasses.replace(op, folds=folds)
        with pytest.raises(NumericalError, match=rf"at kick {kick}$"):
            stroboscopic_series(grown, psi0, 37)
        if kick > 1:
            stroboscopic_series(grown, psi0, kick - 1)      # no drift before that kick


def test_bounds_on_moments():
    two_j = 30
    j = two_j / 2
    op = floquet_operator(KickParams(3.0, 5.0), two_j)
    series = stroboscopic_series(op, dense_oracle.probe(two_j, 1.0, 0.5), 100)
    assert np.abs(series.jz_mean).max() <= j + 1e-9
    assert series.jz_std.min() >= 0.0
    assert series.jz_std.max() <= j + 1e-9


def test_eigenbasis_cross_oracle():
    two_j = 40
    op = floquet_operator(KickParams(1.7, 2.9), two_j)
    psi0 = product_state(two_j, coherent_state(two_j, np.pi / 3, 0.0), np.array([1.0, 0.0]))
    direct = stroboscopic_series(op, psi0, 100)
    spectrum = quasi_spectrum(op)
    basis = np.stack([spectrum.state(s, k) for s in range(2) for k in range(two_j + 1)], axis=1)
    mean, std = dense_oracle.eigenphase_series(spectrum.epsilons.ravel(), basis, psi0, 100)
    assert np.abs(direct.jz_mean - mean).max() < 1e-8
    assert np.abs(direct.jz_std - std).max() < 1e-8


def test_initial_state_validation():
    op = floquet_operator(KickParams(1.0, 1.0), 6)
    with pytest.raises(ValueError):
        stroboscopic_series(op, np.ones(14, dtype=complex), 10)
    psi0 = dense_oracle.probe(6, 0.3, 0.3)
    with pytest.raises(ValueError):
        stroboscopic_series(op, psi0, 0)


def test_initial_state_must_be_a_finite_normalized_vector():
    op = floquet_operator(KickParams(1.0, 1.0), 6)
    psi0 = dense_oracle.probe(6, 0.3, 0.3)
    nan = psi0.copy()
    nan[3] = np.nan
    cases = [(nan, "finite"), (psi0[:, None], r"shape \(14,\)"),
             (psi0[:-2] / np.linalg.norm(psi0[:-2]), r"shape \(14,\)"),
             (2.0 * psi0, "normalized")]
    for psi, message in cases:
        with pytest.raises(ValueError, match=message):
            stroboscopic_series(op, psi, 10)
    assert stroboscopic_series(op, psi0, 10).jz_mean.shape == (11,)


def test_scan_equator_ladder():
    # z0 = 0 puts the allowed kick strengths at integer multiples of pi
    columns = dynamical_scan(20, 5.0, 0.0, [1, 2, 3], n_max=10)
    assert [round(c.kappa_x / np.pi, 12) for c in columns] == [1.0, 2.0, 3.0]
    assert all(c.series.jz_mean.size == 11 for c in columns)


def test_scan_z0_half_ladder():
    columns = dynamical_scan(20, 5.0, 0.5, [1], n_max=10)
    assert columns[0].kappa_x == pytest.approx(2 * np.pi / np.sqrt(3.0), abs=1e-12)
    assert columns[0].series.jz_mean[0] == pytest.approx(5.0, abs=1e-9)


def test_scan_late_window_is_last_fifth():
    columns = dynamical_scan(16, 4.0, 0.5, [1], n_max=10)
    series = columns[0].series
    j = 8.0
    assert columns[0].late_mean == pytest.approx(series.jz_mean[-2:].mean() / j)
    assert columns[0].late_std == pytest.approx(series.jz_std[-2:].mean() / j)
