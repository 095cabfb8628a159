"""Correctness gate: reference rows for seed 0 and the oracle for any seed.

A point is one sweep point (one CSV row) or one dynamics column (n_max + 1
rows).  Every check names the point it rejects; the caller counts failed
points into fail_frac.
"""

import json
import math
from pathlib import Path

import oracle

REFERENCE = Path(__file__).resolve().parent / "reference" / "seed0.json"

# Tolerances for r and S2 grow as the closest levels of a parity sector
# close in: an eigenphase error e moves a spacing ratio, and an eigenvector
# inside a near-degenerate pair, by about e / spacing, so both are defined
# only to that precision at the tunnel-split pairs of the topological stage.
# The tolerance is floor + e / min_spacing, capped at ORACLE_CAP.
#
# Against the seed-0 reference: floor 1e-12, as ROADMAP states for r, and
# e from the drift between 1 and 2 BLAS threads over the whole seed-0 grid:
# drift times min_spacing never exceeded 4.5e-17 (the drift itself reached
# 1e-8 in r and 8e-5 in S2 at exactly degenerate points).  <Jz>/j takes a
# flat tolerance, 60 times its largest measured drift of 1.7e-13.
R_TOL = 1e-12
REF_EIG_ERR = 1e-15
JZ_TOL = 1e-11
# Against the oracle: e covers expm against the package's eigendecomposition.
# The largest gaps seen at degenerate points were 1.8e-3 in r, 8e-4 in S2.
ORACLE_EIG_ERR = 1e-13
ORACLE_CAP = 1e-2
ORACLE_JZ_TOL = 1e-10


def data_rows(text: str) -> list:
    """The CSV data rows of a command's output, header and comments dropped."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return lines[1:]


def group_points(rows: list, rows_per_point: int) -> list:
    return [rows[i:i + rows_per_point] for i in range(0, len(rows), rows_per_point)]


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def _close(a, b, tol: float) -> bool:
    return abs(float(a) - float(b)) <= tol


def compare_reference(workload, index: int, point: list, reference: dict) -> str | None:
    """None when the point matches the recorded seed-0 rows, else the reason."""
    expected = reference[workload.name].get(str(index))
    if expected is None:
        return f"point {index}: no reference row"
    if len(point) != len(expected["rows"]):
        return f"point {index}: {len(point)} rows, reference has {len(expected['rows'])}"
    if workload.value_kind == "jz":
        tol = JZ_TOL
    else:
        tol = conditioned_tol(expected["min_spacing"], R_TOL, REF_EIG_ERR)
    for row, ref in zip(point, expected["rows"]):
        got, want = row.split(","), ref.split(",")
        if workload.value_kind == "jz":
            # n, kx exact; <Jz>/j and its spread within the thread-count drift
            ok = got[:2] == want[:2] and all(_close(g, w, tol) for g, w in zip(got[2:], want[2:]))
        else:
            # kxky, stage and n_bound (or the baseline) exact; value within tol
            ok = got[0] == want[0] and got[2:] == want[2:] and _close(got[1], want[1], tol)
        if not ok:
            return f"point {index}: got {row!r}, reference {ref!r} (tol {tol:.1e})"
    return None


def conditioned_tol(min_spacing: float, floor: float, eig_err: float) -> float:
    """Tolerance of r or S2 at a point whose closest sector levels are min_spacing apart."""
    if min_spacing <= 0.0:
        return ORACLE_CAP
    return min(ORACLE_CAP, floor + eig_err / min_spacing)


def oracle_point(workload, index: int, seed: int) -> dict:
    """The oracle's values at one grid point of the workload."""
    args = dict(zip(workload.command[1::2], workload.command[2::2]))
    two_j = int(args["--two-j"])
    if workload.value_kind == "jz":
        kappa_y = math.pi * float(args["--ky"][3:])
        return oracle.dynamics_column(two_j, kappa_y, workload.z0_for(seed),
                                      workload.nx[index], workload.n_max)
    product = workload.grid(seed)[index]
    ratio = float(args["--ratio"])
    if workload.value_kind == "r":
        want = oracle.rcurve_point(two_j, product, ratio, float(args.get("--delta", 0.0)))
    else:
        want = oracle.entropy_point(two_j, product, ratio, int(args["--grid"]))
    return {**want, "product": product}


def compare_oracle(workload, index: int, point: list, want: dict) -> str | None:
    """None when the point agrees with the oracle's values `want`, else the reason."""
    if workload.value_kind == "jz":
        for n, row in enumerate(point):
            got = row.split(",")
            if (int(got[0]) != n or abs(float(got[1]) - want["kx"]) > 1e-12 * want["kx"]
                    or abs(float(got[2]) - want["jz_mean_over_j"][n]) > ORACLE_JZ_TOL
                    or abs(float(got[3]) - want["jz_std_over_j"][n]) > ORACLE_JZ_TOL):
                return (f"column {index}, kick {n}: got {row!r}, oracle {want['kx']!r} "
                        f"{want['jz_mean_over_j'][n]!r} {want['jz_std_over_j'][n]!r}")
        return None
    got = point[0].split(",")
    if workload.value_kind == "r":
        expected_tail = [want["stage"], str(want["n_bound"])]
    else:
        expected_tail = [want["stage"]]
        if not _close(got[3], want["baseline"], 1e-12):
            return f"point {index}: baseline {got[3]}, oracle {want['baseline']!r}"
        got = got[:3]
    tol = conditioned_tol(want["min_spacing"], 1e-12, ORACLE_EIG_ERR)
    # interior points of a chunk may sit an ulp off the grid point
    if (abs(float(got[0]) - want["product"]) > 1e-14 * want["product"]
            or got[2:] != expected_tail
            or not _close(got[1], want["value"], tol)):
        return (f"point {index}: got {point[0]!r}, oracle value {want['value']!r} "
                f"(tol {tol:.1e}) {expected_tail}")
    return None
