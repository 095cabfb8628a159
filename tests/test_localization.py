import dataclasses

import numpy as np
import pytest

from kickedtop import spectral
from kickedtop.floquet import VARIANTS, KickParams, floquet_operator
from kickedtop.localization import (angular_distance, coe_baseline, husimi_peak, ipr,
                                    probe_columns, renyi_entropy, sphere_averaged_s2,
                                    sphere_grid)
from kickedtop.meanfield import bound_state_predictions
from kickedtop.spectral import detect_bound_states, quasi_spectrum
from kickedtop.spin import probe_state


def test_grid_weights_normalized():
    grid = sphere_grid(16, 20)
    assert grid.weights.sum() == pytest.approx(1.0, abs=1e-13)
    assert grid.weights.shape == (16, 20)
    # Gauss-Legendre nodes integrate z^2 over the sphere to 1/3
    z_moment = (grid.weights.sum(axis=1) * grid.z_nodes ** 2).sum()
    assert z_moment == pytest.approx(1.0 / 3.0, abs=1e-12)
    with pytest.raises(ValueError):
        sphere_grid(0, 4)


def test_ipr_eigenstate_limit():
    basis = np.eye(8, dtype=complex)
    probe = basis[:, 3].copy()
    assert ipr(basis, probe) == pytest.approx(1.0)
    assert renyi_entropy(1.0, 8) == 0.0


def test_ipr_uniform_probe():
    dim = 16
    basis = np.eye(dim, dtype=complex)
    probe = np.ones(dim, dtype=complex) / np.sqrt(dim)
    assert ipr(basis, probe) == pytest.approx(1.0 / dim)
    assert renyi_entropy(1.0 / dim, dim) == pytest.approx(1.0)


def test_ipr_random_orthogonal_basis_matches_ensemble_value():
    # real random orthonormal basis vs real random probes: IPR ~ 3/(D+2)
    dim = 402
    rng = np.random.default_rng(77)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    values = []
    for _ in range(50):
        probe = rng.standard_normal(dim)
        probe /= np.linalg.norm(probe)
        values.append(ipr(basis.astype(complex), probe.astype(complex)))
    mean = np.mean(values)
    target = 3.0 / (dim + 2)
    assert abs(mean - target) / target < 0.2


def test_ipr_validates():
    basis = np.eye(6, dtype=complex)
    with pytest.raises(ValueError):
        ipr(basis, np.ones(5, dtype=complex))
    with pytest.raises(ValueError):
        ipr(basis * 0.9, np.ones(6, dtype=complex) / np.sqrt(6))


def test_renyi_reference_value():
    assert renyi_entropy(3.0 / 1004.0, 1002) == pytest.approx(0.8412941496805217, abs=1e-12)
    assert coe_baseline(1002) == pytest.approx(0.8412941496805217, abs=1e-12)
    with pytest.raises(ValueError):
        renyi_entropy(0.0, 10)
    with pytest.raises(ValueError):
        renyi_entropy(1.5, 10)


def test_sphere_average_rejects_degenerate_operator():
    grid = sphere_grid(4, 4)
    for kx, ky in ((0.0, 1.0), (1.0, 0.0), (0.0, 0.0)):
        spectrum = quasi_spectrum(floquet_operator(KickParams(kx, ky), 10))
        with pytest.raises(ValueError):
            sphere_averaged_s2(spectrum)
        with pytest.raises(ValueError):
            sphere_averaged_s2(spectrum, probe_columns(10, grid))


def test_sphere_average_bounds_and_reuse():
    op = floquet_operator(KickParams(1.5, 2.5, variant="sym1"), 20)
    spectrum = quasi_spectrum(op)
    result = sphere_averaged_s2(spectrum)
    assert np.all(result.s2_nodes >= 0.0)
    assert np.all(result.s2_nodes <= 1.0)
    assert 0.0 <= result.s2_mean <= 1.0
    assert result.baseline == pytest.approx(coe_baseline(42))
    probes = probe_columns(20, sphere_grid())
    again = sphere_averaged_s2(spectrum, probes)
    assert again.s2_mean == pytest.approx(result.s2_mean, abs=1e-12)


@pytest.mark.parametrize("two_j", [20, 21])
def test_probe_mirror_maps_each_column_to_its_mirrored_node(two_j):
    # G J conj(c(theta, phi)) is a unit phase times c(pi - theta, phi + pi)
    for n_phi in (2, 4, 6, 32):
        probes = probe_columns(two_j, sphere_grid(n_phi + 1, n_phi))
        assert np.array_equal(np.sort(probes.mirror), np.arange(probes.columns.shape[1]))
        mirrored = np.conj(probes.columns[::-1])
        mirrored[1::2] *= -1.0
        target = probes.columns[:, probes.mirror]
        phase = (np.einsum("ij,ij->j", target.conj(), mirrored)
                 / np.einsum("ij,ij->j", target.conj(), target))
        assert np.abs(np.abs(phase) - 1.0).max() < 1e-14
        assert np.abs(mirrored - target * phase).max() < 1e-14
    for n_phi in (1, 3, 5, 31):
        assert probe_columns(two_j, sphere_grid(4, n_phi)).mirror is None


@pytest.mark.parametrize("two_j", [1, 2, 20, 21])
def test_sector_probe_rows_match_coupled_space_probes(two_j):
    # one (2j+1)-row probe array serves both sectors: S2 at every node equals
    # the IPR entropy of the full coupled-space probe in the embedded eigenbasis;
    # the 4 x 6 and 3 x 32 grids have a mirror, which at even 2j overlaps
    # sector +1 only; 32 azimuths exceed 2j+1 rows at every two_j here, so
    # the azimuthal DFT aliases, and delta 0.7 gives complex eigenvectors
    cases = [KickParams(1.5, 2.5, variant=variant) for variant in VARIANTS]
    cases.append(KickParams(1.5, 2.5, delta=0.7))
    for params in cases:
        spectrum = quasi_spectrum(floquet_operator(params, two_j))
        assert spectrum.mirrored == (two_j % 2 == 0)
        assert spectrum.vectors.imag.any() == (params.variant == "plain")
        basis = np.stack([spectrum.state(s, k) for s in range(2) for k in range(two_j + 1)],
                         axis=1)
        for grid in (sphere_grid(4, 5), sphere_grid(4, 6), sphere_grid(1, 1),
                     sphere_grid(3, 32)):
            probes = probe_columns(two_j, grid)
            assert probes.columns.shape == (two_j + 1, grid.weights.size)
            result = sphere_averaged_s2(spectrum, probes)
            for i, z in enumerate(grid.z_nodes):
                for k, phi in enumerate(grid.phi_nodes):
                    probe = probe_state(two_j, np.arccos(z), phi)
                    expected = renyi_entropy(ipr(basis, probe), 2 * (two_j + 1))
                    assert result.s2_nodes[i, k] == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        # 2(2j+1) rows, as many as the coupled space
        sphere_averaged_s2(spectrum, probe_columns(2 * two_j + 1, grid))


def _kicks(kxky, variant):
    kx = np.sqrt(kxky / 1.7)
    return KickParams(kx, 1.7 * kx, variant=variant)


@pytest.mark.parametrize("two_j", [40, 41])
def test_phased_and_schur_eigenvectors_give_the_same_s2(monkeypatch, two_j):
    # sym1 eigenvectors are real and take the real product; a unit phase on
    # every column, or the complex Schur fallback, takes the complex one
    op = floquet_operator(_kicks(300.0, "sym1"), two_j)
    probes = probe_columns(two_j, sphere_grid(8, 8))
    spectrum = quasi_spectrum(op)
    assert not spectrum.vectors.imag.any()
    expected = sphere_averaged_s2(spectrum, probes).s2_nodes
    angles = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, spectrum.vectors.shape[::2])
    phased = dataclasses.replace(spectrum, vectors=spectrum.vectors * np.exp(1j * angles)[:, None])
    monkeypatch.setattr(spectral, "_solve_fold", lambda *fold: None)
    monkeypatch.setattr(spectral, "sector_eigenpairs", spectral._schur_eigenpairs)
    schur = quasi_spectrum(op)
    assert schur.mirrored == spectrum.mirrored and schur.vectors.imag.any()
    for other in (phased, schur):
        assert np.abs(sphere_averaged_s2(other, probes).s2_nodes - expected).max() < 1e-13


@pytest.mark.parametrize("variant", ["sym1", "plain"])
@pytest.mark.parametrize("kxky", [10.0, 2600.0])
def test_one_overlap_product_matches_one_per_sector(variant, kxky):
    # kxky 10 holds exactly degenerate levels, whose eigenbasis is not unique
    spectrum = quasi_spectrum(floquet_operator(_kicks(kxky, variant), 200))
    assert spectrum.mirrored
    probes = probe_columns(200, sphere_grid())
    one = sphere_averaged_s2(spectrum, probes)
    both = sphere_averaged_s2(dataclasses.replace(spectrum, mirrored=False), probes)
    assert np.abs(one.s2_nodes - both.s2_nodes).max() < 1e-13
    assert one.s2_mean == pytest.approx(both.s2_mean, abs=1e-13)


def test_quadrature_convergence():
    two_j = 200
    product = 6 * np.pi * (two_j / 2)
    kx = np.sqrt(product / 1.7)
    spectrum = quasi_spectrum(floquet_operator(KickParams(kx, 1.7 * kx, variant="sym1"), two_j))
    coarse = sphere_averaged_s2(spectrum, probe_columns(two_j, sphere_grid(32, 32))).s2_mean
    fine = sphere_averaged_s2(spectrum, probe_columns(two_j, sphere_grid(48, 48))).s2_mean
    assert abs(coarse - fine) < 0.005


def test_husimi_peak_pole_state():
    two_j = 16
    state = np.zeros(2 * (two_j + 1), dtype=complex)
    state[-2] = 1.0     # (m = j, up)
    z, phi, value = husimi_peak(state, two_j, sphere_grid(24, 24))
    assert z > 0.97
    assert value > 0.9


def test_husimi_peak_on_one_z_node():
    # one Gauss-Legendre node (z = 0): the refinement spans all of [-1, 1]
    two_j = 16
    state = np.zeros(2 * (two_j + 1), dtype=complex)
    state[-2] = 1.0     # (m = j, up)
    for n_phi in (1, 8):
        z, phi, value = husimi_peak(state, two_j, sphere_grid(1, n_phi))
        assert z == 1.0
        assert value == pytest.approx(1.0, abs=1e-12)


def test_husimi_peak_probe_self_overlap():
    two_j = 40
    state = probe_state(two_j, np.pi / 3, 0.0)
    grid = sphere_grid(32, 32)
    z, phi, value = husimi_peak(state, two_j, grid)
    assert z == pytest.approx(0.5, abs=0.05)
    assert abs(phi) < 0.15
    assert value == pytest.approx(1.0, abs=0.05)


def test_husimi_peaks_of_bound_states_match_predictions():
    two_j = 100
    kx = ky = 1.0
    spectrum = quasi_spectrum(floquet_operator(KickParams(kx, ky, variant="sym1"), two_j))
    records = detect_bound_states(spectrum, tol=0.05)
    assert len(records) >= 2
    predictions = bound_state_predictions(kx, ky)
    grid = sphere_grid(24, 24)
    for record in records:
        z, phi, _ = husimi_peak(spectrum.state(record.sector, record.index), two_j, grid)
        best = min(angular_distance(z, phi, p.z, p.phi if p.phi is not None else 0.0)
                   for p in predictions)
        assert best <= 3.0 / np.sqrt(two_j / 2)


def test_angular_distance():
    assert angular_distance(1.0, 0.0, -1.0, 0.0) == pytest.approx(np.pi)
    assert angular_distance(0.0, 0.0, 0.0, np.pi / 2) == pytest.approx(np.pi / 2)
    assert angular_distance(0.7, 1.0, 0.7, 1.0) == pytest.approx(0.0, abs=1e-7)
