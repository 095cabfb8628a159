"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistics runs avoid the kappa_x = kappa_y diagonal: the quarter-turn
rotation composed with the y-axis half turn commutes with the one-period
unitary exactly there, superposing two independent sequences inside each
parity sector and depressing the spacing ratio even in the chaotic stage.
"""

import math

import numpy as np
from scipy.stats import unitary_group

from kickedtop.cli import main as cli_main
from kickedtop.dynamics import dynamical_scan
from kickedtop.floquet import KickParams, floquet_operator, kick_unitary
from kickedtop.localization import (angular_distance, coe_baseline, husimi_peak,
                                    probe_columns, sphere_averaged_s2, sphere_grid)
from kickedtop.meanfield import (bound_state_predictions, predicted_count,
                                 topological_count_estimate)
from kickedtop.spectral import (R_COE, R_CUE, detect_bound_states, mean_spacing_ratio,
                                parity_resolved_r, quasi_spectrum, sector_eigenphases)
from kickedtop.symmetry import verify_symmetries

# fixed off-diagonal aspect ratios kappa_y / kappa_x for statistics sweeps
RATIOS = (1.37, 2.02, 1.51, 1.78, 2.29, 1.44, 1.93, 1.62, 2.11, 1.70)


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"criterion {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def r_mean_at(two_j: int, product: float, ratio: float, delta: float = 0.0) -> float:
    kappa_x = math.sqrt(product / ratio)
    params = KickParams(kappa_x, ratio * kappa_x, delta=delta)
    return parity_resolved_r(sector_eigenphases(floquet_operator(params, two_j)))["r_mean"]


def test_criterion_1_symmetry_suite():
    rng = np.random.default_rng(20240809)
    worst_residual = 0.0
    worst_offblock = 0.0
    signs_ok = True
    for two_j in (10, 11):
        for _ in range(5):
            kx, ky = rng.uniform(0.3, 3.5, size=2)
            for variant in ("sym1", "sym2"):
                rep = verify_symmetries(
                    floquet_operator(KickParams(kx, ky, variant=variant), two_j))
                worst_residual = max(worst_residual, max(rep.residuals.values()))
                worst_offblock = max(worst_offblock, rep.parity_offblock)
                signs_ok &= rep.squared_signs["time_reversal_2"] == (1 if two_j % 2 else -1)
    ok = worst_residual <= 1e-10 and worst_offblock <= 1e-12 and signs_ok
    assert report(1, ok, f"max residual {worst_residual:.2e}, "
                         f"max parity off-block {worst_offblock:.2e}, "
                         f"T2^2 signs correct: {signs_ok}")


def test_criterion_2_surrogate_r_values():
    rng = np.random.default_rng(12345)
    spacings = rng.exponential(size=30001)
    poisson_levels = np.cumsum(spacings)
    r_poisson = mean_spacing_ratio(poisson_levels)

    dim, n_mat = 150, 150
    ratios = []
    for _ in range(n_mat):
        w = unitary_group.rvs(dim, random_state=rng)
        phases = np.sort(np.angle(np.linalg.eigvals(w.T @ w)))
        ratios.append(mean_spacing_ratio(phases) * (dim - 2))
    r_coe = float(np.sum(ratios) / (n_mat * (dim - 2)))
    n_samples = n_mat * (dim - 2)

    ok = abs(r_poisson - 0.386) <= 0.01 and abs(r_coe - 0.536) <= 0.01
    assert report(2, ok, f"Poisson r = {r_poisson:.4f} (target 0.386 +- 0.01), "
                         f"COE r = {r_coe:.4f} over {n_samples} samples "
                         f"(target 0.536 +- 0.01)")


def test_criterion_3_chaotic_coe_saturation():
    two_j = 400
    j = two_j / 2.0
    products = np.linspace(3 * math.pi * j, 6 * math.pi * j, 10)
    values = [r_mean_at(two_j, product, ratio)
              for product, ratio in zip(products, RATIOS)]
    r_mean = float(np.mean(values))
    ok = abs(r_mean - 0.536) <= 0.02
    assert report(3, ok, f"parity-resolved r over 10 points in [3pi j, 6pi j] "
                         f"= {r_mean:.4f} (target 0.536 +- 0.02)")


def test_criterion_4_cue_under_broken_chiral_symmetry():
    # delta sigma_z breaks the chiral relation (and T2 and particle-hole), but
    # it keeps both kick generators real symmetric.  U = Y X is therefore
    # similar, through Y^(1/2), to the complex-symmetric U~ = Y^(1/2) X Y^(1/2),
    # so complex conjugation K still maps U~ to U~^-1 with K^2 = +1.  K commutes
    # with the real diagonal parity and acts inside each sector; by Dyson's
    # threefold way each sector is COE for every delta, and CUE would need
    # every antiunitary symmetry broken.  The criterion checks that chirality
    # is broken, that K survives, that the sweep sits at COE and clearly below
    # CUE, and, as a control, that the same statistic on Haar unitaries of the
    # sector dimension does reach CUE.
    two_j = 400
    j = two_j / 2.0
    delta = 1.6
    products = np.linspace(13 * math.pi * j, 20 * math.pi * j, 10)

    kappa_x = math.sqrt(products[0] / RATIOS[0])
    kappa_y = RATIOS[0] * kappa_x
    chiral = verify_symmetries(floquet_operator(
        KickParams(kappa_x, kappa_y, delta=delta), two_j)).residuals["chiral"]
    half_y = kick_unitary("y", kappa_y / 2.0, two_j, delta / 2.0)
    u_sym = half_y @ kick_unitary("x", kappa_x, two_j, delta) @ half_y
    transpose_defect = float(np.abs(u_sym - u_sym.T).max())

    values = [r_mean_at(two_j, product, ratio, delta=delta)
              for product, ratio in zip(products, RATIOS)]
    r_mean = float(np.mean(values))

    rng = np.random.default_rng(2411)
    r_haar = float(np.mean([
        mean_spacing_ratio(np.angle(np.linalg.eigvals(
            unitary_group.rvs(two_j + 1, random_state=rng))))
        for _ in range(10)]))

    ok = (chiral > 1e-6 and transpose_defect <= 1e-10
          and abs(r_mean - R_COE) <= 0.02 and r_mean <= R_CUE - 0.04
          and abs(r_haar - R_CUE) <= 0.02)
    assert report(4, ok, f"delta = {delta} breaks chirality (residual {chiral:.2e} > 1e-6) "
                         f"but keeps K: |U~ - U~^T| = {transpose_defect:.2e} (<= 1e-10); "
                         f"parity-resolved r over [13pi j, 20pi j] = {r_mean:.4f} "
                         f"(COE target {R_COE:.3f} +- 0.02, <= CUE - 0.04); "
                         f"CUE control on 10 Haar unitaries of dimension {two_j + 1} "
                         f"= {r_haar:.4f} (target {R_CUE:.3f} +- 0.02)")


def test_criterion_5_entropy_asymptote():
    two_j = 500
    j = two_j / 2.0
    dim = 2 * (two_j + 1)
    product = 6 * math.pi * j
    kappa_x = math.sqrt(product / 1.7)
    op = floquet_operator(KickParams(kappa_x, 1.7 * kappa_x, variant="sym1"), two_j)
    s2 = sphere_averaged_s2(quasi_spectrum(op), probe_columns(two_j, sphere_grid(32, 32))).s2_mean
    target = coe_baseline(dim)
    ok = abs(s2 - target) <= 0.02
    assert report(5, ok, f"deep-chaotic sphere-averaged S2 at j = {j:g} "
                         f"= {s2:.4f} (target ln((D+2)/3)/ln(D) = {target:.4f} +- 0.02)")


def test_criterion_6_four_stage_shape():
    two_j = 200
    b1 = math.pi * (two_j + 1) / 4.0
    b2, b3 = 2.0 * b1, 4.0 * b1
    ratio = 1.7
    probes = probe_columns(two_j, sphere_grid(32, 32))

    def s2_at(product):
        kappa_x = math.sqrt(product / ratio)
        op = floquet_operator(KickParams(kappa_x, ratio * kappa_x, variant="sym1"), two_j)
        return sphere_averaged_s2(quasi_spectrum(op), probes).s2_mean

    s1_early, s1_end = s2_at(0.5 * b1), s2_at(0.85 * b1)
    s2_a, s2_b = s2_at(1.15 * b1), s2_at(0.9 * b2)
    s3_a, s3_b = s2_at(1.1 * b2), s2_at(0.95 * b3)
    s4_a, s4_b = s2_at(1.3 * b3), s2_at(1.6 * b3)

    r_dip = r_mean_at(two_j, 0.5 * b1, ratio)
    stage4_r = float(np.mean([r_mean_at(two_j, mult * b3, rat)
                              for mult in (1.3, 1.6, 2.0, 2.5)
                              for rat in (1.37, 2.13)]))

    rises_1 = s1_end > s1_early
    plateau_2 = abs(s2_b - s2_a) < 0.02
    rises_3 = s3_b > s3_a
    saturates_4 = abs(s4_b - s4_a) < 0.02
    monotone = np.all(np.diff([s1_early, s2_a, s3_a, s4_a, s4_b]) >= -1e-12)
    dip_ok = r_dip < 0.386
    r_end_ok = abs(stage4_r - 0.536) <= 0.03

    ok = rises_1 and plateau_2 and rises_3 and saturates_4 and monotone and dip_ok and r_end_ok
    assert report(6, ok,
                  f"S2 stage samples {s1_early:.3f}->{s1_end:.3f} | "
                  f"{s2_a:.3f}~{s2_b:.3f} | {s3_a:.3f}->{s3_b:.3f} | "
                  f"{s4_a:.3f}~{s4_b:.3f}; stage-1 r = {r_dip:.3f} < 0.386; "
                  f"stage-4 r = {stage4_r:.4f} (0.536 +- 0.03)")


def test_criterion_7_bound_state_cross_check():
    two_j = 100
    j = two_j / 2.0
    kappa = 1.0
    spectrum = quasi_spectrum(
        floquet_operator(KickParams(kappa, kappa, variant="sym1"), two_j))
    records = detect_bound_states(spectrum, tol=0.05)
    predictions = bound_state_predictions(kappa, kappa)
    grid = sphere_grid(32, 32)
    chiral_ok = True
    husimi_ok = True
    for record in records:
        chiral_ok &= abs(record.chiral) >= 0.9
        z, phi, _ = husimi_peak(spectrum.state(record.sector, record.index), two_j, grid)
        distance = min(angular_distance(z, phi, p.z, p.phi if p.phi is not None else 0.0)
                       for p in predictions)
        husimi_ok &= distance <= 3.0 / math.sqrt(j)
    ok = len(records) >= 2 and chiral_ok and husimi_ok
    assert report(7, ok, f"{len(records)} bound states at kappa = 1, j = 50; "
                         f"all |<Gamma>| >= 0.9: {chiral_ok}; Husimi peaks within "
                         f"3/sqrt(j) of a prediction: {husimi_ok}")


def test_criterion_8_counting_law():
    est_10 = topological_count_estimate(10.0, 10.0)
    enum_10 = predicted_count(10.0, 10.0)
    err_10 = abs(est_10 - enum_10) / enum_10
    est_30 = topological_count_estimate(30.0, 30.0)
    enum_30 = predicted_count(30.0, 30.0)
    err_30 = abs(est_30 - enum_30) / enum_30

    two_j = 100
    kappa = 5.0    # kappa product 25, well inside the topological stage
    spectrum = quasi_spectrum(
        floquet_operator(KickParams(kappa, kappa, variant="sym1"), two_j))
    detected = len(detect_bound_states(spectrum, tol=0.05))
    enum_5 = predicted_count(kappa, kappa)
    factor_ok = enum_5 / 2.0 <= detected <= 2.0 * enum_5

    ok = err_10 <= 0.15 and err_30 <= 0.05 and factor_ok
    assert report(8, ok, f"closed form vs enumeration: {err_10:.1%} at kappa 10 "
                         f"(<= 15%), {err_30:.1%} at kappa 30 (<= 5%); detected "
                         f"{detected} vs predicted {enum_5} at j = 50 (factor 2)")


def test_criterion_9_dynamics_border():
    two_j = 400
    j = two_j / 2.0
    kappa_y = 8.0 * math.pi
    border = 2.0 * math.pi * j / kappa_y            # 50.0
    ladder = 2.0 * math.pi / math.sqrt(3.0)         # allowed spacing at z0 = 1/2
    nx_regular = round(0.5 * border / ladder)       # 7  -> 0.508 x border
    nx_chaotic = round(1.3 * border / ladder)       # 18 -> 1.306 x border
    columns = dynamical_scan(two_j, kappa_y, 0.5, [nx_regular, nx_chaotic], n_max=500)
    regular, chaotic = columns
    sigma_target = 1.0 / math.sqrt(3.0)
    regular_ok = regular.late_mean >= 0.35
    chaotic_ok = abs(chaotic.late_mean) <= 0.1
    sigma_ok = abs(chaotic.late_std - sigma_target) <= 0.15 * sigma_target
    ok = regular_ok and chaotic_ok and sigma_ok
    assert report(9, ok, f"late <Jz>/j = {regular.late_mean:.3f} at kappa_x = "
                         f"{regular.kappa_x:.1f} (0.5x border, >= 0.35) and "
                         f"{chaotic.late_mean:.3f} at {chaotic.kappa_x:.1f} "
                         f"(1.3x border, <= 0.1); sigma/j = {chaotic.late_std:.3f} "
                         f"vs 1/sqrt(3) +- 15%")


def test_criterion_10_determinism(tmp_path):
    out = tmp_path / "grid.csv"
    argv = ["rgrid", "--two-j", "60", "--kx", "1:6", "--ky", "1:6",
            "--steps", "3", "--out", str(out)]
    assert cli_main(argv) == 0
    first = out.read_bytes()
    assert cli_main(argv) == 0
    rerun_identical = out.read_bytes() == first

    out2 = tmp_path / "grid2.csv"
    assert cli_main(argv[:-1] + [str(out2), "--workers", "2"]) == 0
    rows1 = [line.split(",") for line in first.decode().splitlines()[3:]]
    rows2 = [line.split(",") for line in out2.read_text().splitlines()[3:]]
    workers_identical = all(
        a[0] == b[0] and a[1] == b[1] and a[5] == b[5]
        and all(abs(float(x) - float(y)) <= 1e-12 for x, y in zip(a[2:5], b[2:5]))
        for a, b in zip(rows1, rows2))

    table = {(row[0], row[1]): float(row[2]) for row in rows1}
    swap_defect = max(abs(table[(ky, kx)] - value) for (kx, ky), value in table.items())

    ok = rerun_identical and workers_identical and swap_defect <= 1e-6
    assert report(10, ok, f"rerun byte-identical: {rerun_identical}; worker-count "
                          f"invariant: {workers_identical}; kx<->ky r_mean defect "
                          f"{swap_defect:.2e} (<= 1e-6)")
