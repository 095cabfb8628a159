import math

import numpy as np
import pytest

from kickedtop.meanfield import (allowed_kappa_x, bound_state_predictions,
                                 mf_quasienergy, predicted_count,
                                 topological_count_estimate)


def brute_force_count(kappa_x, kappa_y):
    """Independent enumeration over signed integer pairs.

    Each signed (n_x, n_y) with a positive radicand fixes one azimuth and
    two z signs; a zero radicand fixes the equator point once; the origin
    pair contributes the two poles.
    """
    count = 0
    for nx in range(-math.ceil(kappa_x / math.pi), math.ceil(kappa_x / math.pi) + 1):
        for ny in range(-math.ceil(kappa_y / math.pi), math.ceil(kappa_y / math.pi) + 1):
            radicand = 1.0 - math.pi ** 2 * ((nx / kappa_x) ** 2 + (ny / kappa_y) ** 2)
            if nx == 0 and ny == 0:
                count += 2
            elif radicand > 1e-12:
                count += 2
            elif radicand > -1e-12:
                count += 1
    return count


def test_quasienergy_pole_is_zero():
    assert mf_quasienergy(0.0, 1.23, 5.0, 9.0) == pytest.approx(0.0, abs=1e-12)


def test_quasienergy_known_point():
    value = mf_quasienergy(np.pi / 2, np.pi / 4, np.pi / 2, np.pi / 2)
    assert value == pytest.approx(1.3723462483509046, abs=1e-12)


def test_quasienergy_boundary_value():
    assert mf_quasienergy(np.pi / 2, 0.0, np.pi, 0.0) == pytest.approx(np.pi, abs=1e-12)


def test_quasienergy_symmetries():
    rng = np.random.default_rng(3)
    for _ in range(50):
        theta = rng.uniform(0.0, np.pi)
        phi = rng.uniform(-np.pi, np.pi)
        kx, ky = rng.uniform(0.5, 20.0, size=2)
        base = mf_quasienergy(theta, phi, kx, ky)
        assert mf_quasienergy(np.pi - theta, phi, kx, ky) == pytest.approx(base, abs=1e-12)
        assert mf_quasienergy(theta, phi + np.pi, kx, ky) == pytest.approx(base, abs=1e-12)
        assert 0.0 <= base <= np.pi


def test_quasienergy_vectorized():
    thetas = np.linspace(0.0, np.pi, 7)
    values = mf_quasienergy(thetas, 0.3, 2.0, 3.0)
    assert values.shape == thetas.shape


def test_pole_predictions():
    records = [r for r in bound_state_predictions(1.0, 1.0)]
    assert len(records) == 2
    assert sorted(r.z for r in records) == [-1.0, 1.0]
    assert all(r.phi is None for r in records)
    assert all(r.target == 0.0 for r in records)


def test_axis_pair_special_values():
    # (n_x, n_y) = (1, 0) at kappa = 2 pi: z = +-sqrt(3)/2, phi in {0, pi}
    records = [r for r in bound_state_predictions(2 * np.pi, 2 * np.pi)
               if (r.n_x, r.n_y) == (1, 0)]
    assert len(records) == 4
    zs = sorted(round(r.z, 6) for r in records)
    assert zs == sorted([round(v, 6) for v in
                         (-np.sqrt(3) / 2, -np.sqrt(3) / 2, np.sqrt(3) / 2, np.sqrt(3) / 2)])
    phis = sorted(round(r.phi, 12) for r in records)
    assert phis == sorted([0.0, 0.0, round(np.pi, 12), round(np.pi, 12)])
    assert all(r.n_solutions == 2 for r in records)
    assert all(r.target == pytest.approx(np.pi) for r in records)


def test_interior_pair_has_eight_states():
    records = [r for r in bound_state_predictions(10.0, 10.0)
               if (r.n_x, r.n_y) == (1, 1)]
    assert len(records) == 8
    assert all(r.n_solutions == 1 for r in records)
    assert all(r.target == 0.0 for r in records)


@pytest.mark.parametrize("kappa_x,kappa_y", [(10.0, 10.0), (7.3, 12.9), (30.0, 30.0)])
def test_count_matches_brute_force(kappa_x, kappa_y):
    assert predicted_count(kappa_x, kappa_y) == brute_force_count(kappa_x, kappa_y)


def test_predictions_sit_on_target_energies():
    for record in bound_state_predictions(9.0, 13.0):
        phi = 0.0 if record.phi is None else record.phi
        value = mf_quasienergy(math.acos(record.z), phi, 9.0, 13.0)
        assert min(abs(value), abs(np.pi - value)) < 1e-9
        assert value == pytest.approx(record.target, abs=1e-9)


def test_closed_form_estimate():
    assert topological_count_estimate(10.0, 10.0) == pytest.approx(63.66, abs=0.01)
    # counting the borders: products pi(2j+1)/2 and pi(2j+1) give half and all states
    two_j = 100
    assert topological_count_estimate(1.0, np.pi * (two_j + 1) / 2) == pytest.approx(two_j + 1)
    assert topological_count_estimate(1.0, np.pi * (two_j + 1)) == pytest.approx(2 * (two_j + 1))


def test_closed_form_tracks_enumeration():
    for kappa, tol in ((10.0, 0.15), (30.0, 0.05)):
        enum = predicted_count(kappa, kappa)
        estimate = topological_count_estimate(kappa, kappa)
        assert abs(estimate - enum) / enum <= tol


def test_allowed_kappa_x_values():
    assert allowed_kappa_x(0.5, 5.0, 1) == pytest.approx(3.6275987284684357, abs=1e-12)
    assert allowed_kappa_x(0.0, 5.0, 1) == pytest.approx(np.pi, abs=1e-12)
    assert allowed_kappa_x(0.0, 5.0, 3) == pytest.approx(3 * np.pi, abs=1e-12)
    # radicand goes negative once pi n_y exceeds kappa_y
    assert allowed_kappa_x(0.5, 1.0, 1, n_y=5) is None


@pytest.mark.parametrize("kappa_y", [1.0, 5.0, 8 * math.pi])
def test_allowed_kappa_x_at_equator(kappa_y):
    # z0 = 0: the back-substitution must not take a square root of rounding noise
    for n_x in range(1, 41):
        assert allowed_kappa_x(0.0, kappa_y, n_x) == pytest.approx(math.pi * n_x)


def test_allowed_kappa_x_back_substitution():
    kappa_y = 8.0
    for n_x in (1, 2, 5):
        for n_y in (0, 1, 2):
            kappa_x = allowed_kappa_x(0.5, kappa_y, n_x, n_y)
            if kappa_x is None:
                continue
            z = math.sqrt(1.0 - math.pi ** 2 * ((n_x / kappa_x) ** 2 + (n_y / kappa_y) ** 2))
            assert z == pytest.approx(0.5, abs=1e-12)


def test_scaled_border_column():
    # third border in kick-strength units at j = 500, kappa_y = 16.4 pi
    assert round(2 * np.pi * 500 / (16.4 * np.pi)) == 61


def test_validation():
    with pytest.raises(ValueError):
        bound_state_predictions(0.0, 1.0)
    with pytest.raises(ValueError):
        allowed_kappa_x(1.0, 5.0, 1)
    with pytest.raises(ValueError):
        allowed_kappa_x(0.5, -1.0, 1)
    with pytest.raises(ValueError):
        allowed_kappa_x(0.5, 5.0, 0)
