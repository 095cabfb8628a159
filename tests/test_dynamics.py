import dataclasses

import numpy as np
import pytest
import scipy.linalg

from kickedtop import dynamics
from kickedtop.dynamics import dynamical_scan, eigenbasis_series, stroboscopic_series
from kickedtop.errors import NumericalError
from kickedtop.floquet import FloquetOperator, KickParams, floquet_operator, kick_unitary
from kickedtop.spectral import quasi_spectrum
from kickedtop.spin import coherent_state, m_values, probe_state, product_state


def _dense_moments(op, psi, n_max, u=None):
    """<Jz> and its spread after each kick, iterating the dense op.u
    (or u)."""
    jz = np.repeat(m_values(op.two_j), 2)       # flat index 2(j + m) + s
    u = op.u if u is None else u
    means, stds = [], []
    for n in range(n_max + 1):
        if n > 0:
            psi = u @ psi
        w = np.abs(psi) ** 2
        means.append(jz @ w)
        stds.append(np.sqrt(max(jz ** 2 @ w - means[-1] ** 2, 0.0)))
    return np.array(means), np.array(stds)


def test_zero_kick_series_constant():
    op = floquet_operator(KickParams(0.0, 0.0), 10)
    psi0 = probe_state(10, 0.7, 0.2)
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
        mean, std = _dense_moments(op, psi, 500)
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
    psi0 = probe_state(two_j, 0.9, 0.4)
    series = stroboscopic_series(op, psi0, n_max)
    mean, std = _dense_moments(op, psi0, n_max)
    assert series.n.tolist() == list(range(n_max + 1))
    assert np.abs(series.jz_mean - mean).max() < 1e-12
    assert np.abs(series.jz_std - std).max() < 1e-12


@pytest.mark.parametrize("two_j", [1, 2, 6, 7, 64, 65, 200, 201])
@pytest.mark.parametrize("variant", ["plain", "sym1", "sym2"])
def test_fold_path_matches_batched_path(two_j, variant):
    op = floquet_operator(KickParams(1.7, 2.9, variant=variant), two_j)
    psi0 = probe_state(two_j, 0.9, 0.4)
    folded = [stroboscopic_series(op, psi0, n_max) for n_max in (1, 7, 8, 9, 37)]
    # without its fold the operator takes the complex path
    unfolded = dataclasses.replace(op, folds=None)
    for series in folded:
        batched = stroboscopic_series(unfolded, psi0, len(series.n) - 1)
        assert np.abs(series.jz_mean - batched.jz_mean).max() < 1e-12 * two_j / 2.0
        assert np.abs(series.jz_std - batched.jz_std).max() < 1e-12 * two_j / 2.0


@pytest.mark.parametrize("two_j", [40, 41])
@pytest.mark.parametrize("variant", ["plain", "sym1", "sym2"])
def test_fold_path_matches_dense_kicks_over_many_kicks(two_j, variant):
    kx, ky = 1.7, 2.9
    op = floquet_operator(KickParams(kx, ky, variant=variant), two_j)
    x, y = kick_unitary("x", kx, two_j), kick_unitary("y", ky, two_j)
    if variant == "plain":
        u = y @ x
    elif variant == "sym1":
        half = kick_unitary("y", ky / 2.0, two_j)
        u = half @ x @ half
    else:
        half = kick_unitary("x", kx / 2.0, two_j)
        u = half @ y @ half
    psi0 = probe_state(two_j, 0.9, 0.4)
    series = stroboscopic_series(op, psi0, 200)
    mean, std = _dense_moments(op, psi0, 200, u)
    assert np.abs(series.jz_mean - mean).max() < 1e-10
    assert np.abs(series.jz_std - std).max() < 1e-10


@pytest.mark.parametrize("two_j", [40, 41])
def test_core_that_breaks_the_chiral_fold_takes_the_batched_path(monkeypatch, two_j):
    # an operator built from explicit cores carries no fold; here they are
    # broken by a unitary J-breaking kick, which no fold could represent
    op = floquet_operator(KickParams(1.7, 2.9), two_j)
    noise = np.random.default_rng(5).standard_normal((2,) + op.core.shape[1:])
    noise = noise + noise.swapaxes(1, 2)
    broken = FloquetOperator(core=op.core @ scipy.linalg.expm(1e-7j * noise), frame=op.frame,
                             params=op.params, two_j=two_j)
    psi0 = probe_state(two_j, 0.9, 0.4)
    mean, std = _dense_moments(broken, psi0, 20)
    calls = []
    distinct = FloquetOperator.distinct_blocks

    def recorded(self):
        calls.append(len(self.cores))
        return distinct(self)

    monkeypatch.setattr(FloquetOperator, "distinct_blocks", recorded)
    series = stroboscopic_series(broken, psi0, 20)
    assert calls == [1 + two_j % 2]
    assert np.abs(series.jz_mean - mean).max() < 1e-12
    stroboscopic_series(op, psi0, 20)                   # the intact core folds
    assert calls == [1 + two_j % 2]


@pytest.mark.parametrize("two_j", [12, 13])
def test_series_assembles_one_block_per_distinct_core(monkeypatch, two_j):
    shapes = []
    distinct = FloquetOperator.distinct_blocks

    def recorded(self):
        blocks = distinct(self)
        shapes.append(blocks.shape)
        return blocks

    def refused(self):
        raise AssertionError("the series must not assemble both mirrored blocks")

    monkeypatch.setattr(FloquetOperator, "distinct_blocks", recorded)
    monkeypatch.setattr(FloquetOperator, "sector_blocks", refused)
    # even 2j: sector -1 is the conjugate mirror, with and without delta;
    # delta = 0 kicks the real fold of each core and assembles no block
    psi0 = probe_state(two_j, 0.9, 0.4)
    for delta in (0.0, 0.7):
        stroboscopic_series(floquet_operator(KickParams(1.7, 2.9, delta=delta), two_j), psi0, 20)
    d = two_j + 1
    assert shapes == [(1 if two_j % 2 == 0 else 2, d, d)]


@pytest.mark.parametrize("two_j", [40, 41])
@pytest.mark.parametrize("excess, kick", [(1e-6, 1), (3e-9, 4), (1e-8 / 20.5, 21)])
def test_norm_drift_guard_names_first_drifting_kick(two_j, excess, kick):
    # every block scales by 1 + excess, so the norm after n kicks is (1 + excess)^n;
    # delta = 0 runs the scaled fold through the fold path, the scaled core
    # without it and delta = 0.7 through the blocks
    psi0 = probe_state(two_j, 0.9, 0.4)
    for delta, folded in ((0.0, True), (0.0, False), (0.7, False)):
        op = floquet_operator(KickParams(1.7, 2.9, delta=delta), two_j)
        folds = [tuple(block * (1.0 + excess) for block in fold)
                 for fold in op.folds] if folded else None
        grown = dataclasses.replace(op, core=op.core * (1.0 + excess), folds=folds)
        with pytest.raises(NumericalError, match=rf"at kick {kick}$"):
            stroboscopic_series(grown, psi0, 37)
        if kick > 1:
            stroboscopic_series(grown, psi0, kick - 1)      # no drift before that kick


def test_bounds_on_moments():
    two_j = 30
    j = two_j / 2
    op = floquet_operator(KickParams(3.0, 5.0), two_j)
    series = stroboscopic_series(op, probe_state(two_j, 1.0, 0.5), 100)
    assert np.abs(series.jz_mean).max() <= j + 1e-9
    assert series.jz_std.min() >= 0.0
    assert series.jz_std.max() <= j + 1e-9


def test_eigenbasis_cross_oracle():
    two_j = 40
    op = floquet_operator(KickParams(1.7, 2.9), two_j)
    psi0 = product_state(two_j, coherent_state(two_j, np.pi / 3, 0.0), np.array([1.0, 0.0]))
    direct = stroboscopic_series(op, psi0, 100)
    phased = eigenbasis_series(quasi_spectrum(op), psi0, 100)
    assert np.abs(direct.jz_mean - phased.jz_mean).max() < 1e-8
    assert np.abs(direct.jz_std - phased.jz_std).max() < 1e-8


def test_initial_state_validation():
    op = floquet_operator(KickParams(1.0, 1.0), 6)
    with pytest.raises(ValueError):
        stroboscopic_series(op, np.ones(14, dtype=complex), 10)
    psi0 = probe_state(6, 0.3, 0.3)
    with pytest.raises(ValueError):
        stroboscopic_series(op, psi0, 0)


@pytest.mark.parametrize("series", ["stroboscopic", "eigenbasis"])
def test_initial_state_must_be_a_finite_normalized_vector(series):
    op = floquet_operator(KickParams(1.0, 1.0), 6)
    if series == "stroboscopic":
        def run(psi):
            return stroboscopic_series(op, psi, 10)
    else:
        spectrum = quasi_spectrum(op)

        def run(psi):
            return eigenbasis_series(spectrum, psi, 10)
    psi0 = probe_state(6, 0.3, 0.3)
    nan = psi0.copy()
    nan[3] = np.nan
    cases = [(nan, "finite"), (psi0[:, None], r"shape \(14,\)"),
             (psi0[:-2] / np.linalg.norm(psi0[:-2]), r"shape \(14,\)"),
             (2.0 * psi0, "normalized")]
    for psi, message in cases:
        with pytest.raises(ValueError, match=message):
            run(psi)
    assert run(psi0).jz_mean.shape == (11,)


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
