import numpy as np
import pytest

from kickedtop.dynamics import dynamical_scan, eigenbasis_series, stroboscopic_series
from kickedtop.floquet import KickParams, floquet_operator
from kickedtop.spectral import quasi_spectrum
from kickedtop.spin import coherent_state, probe_state, product_state


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
