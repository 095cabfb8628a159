"""Predicted bound-state locations from the mean-field quasi-energy surface.

Replacing the top operators by their coherent-state expectation values
makes the one-period quasi-energy a closed-form function of the Bloch
sphere point,

    eps(theta, phi) = arccos( cos(Kx) cos(Ky) ),
    Kx = kappa_x sin(theta) cos(phi),  Ky = kappa_y sin(theta) sin(phi).

Bound states sit where eps = 0 or pi, i.e. where Kx and Ky are both
integer multiples of pi; solving gives a lattice of (z, phi) points
indexed by integer pairs (n_x, n_y).  The azimuths are
atan2(+-n_y/kappa_y, +-n_x/kappa_x), and points that coincide are merged
by exact equality, so no angle tolerance enters the count.
allowed_kappa_x inverts the z equation for the dynamical probe and
checks its result in squared form, which stays exact at z0 = 0.  The
surface itself is evaluated only in the tests, which hold every
predicted point to eps = 0 or pi.  The module imports nothing from the
package.
"""

import math
from dataclasses import dataclass

ARCCOS_SLACK = 1e-12


@dataclass(frozen=True)
class BoundStatePrediction:
    """One predicted bound-state location on the Bloch sphere.

    phi is None for the polar solutions n_x = n_y = 0, where the
    azimuth is undefined.  n_solutions counts how many of the four
    sign combinations of the azimuth formula collapse onto this point.
    """

    n_x: int
    n_y: int
    sign_z: int
    z: float
    phi: float | None
    target: float               # quasi-energy 0.0 or pi
    n_solutions: int = 1


def _phi_solutions(nx: int, ny: int, kappa_x: float, kappa_y: float) -> list[tuple[float, int]]:
    """Distinct azimuths atan2(+-ny/ky, +-nx/kx), with -pi folded onto pi,
    and how many of the four sign combinations give each."""
    counts: dict[float, int] = {}
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            phi = math.atan2(sy * ny / kappa_y, sx * nx / kappa_x)
            phi = math.pi if phi == -math.pi else phi
            counts[phi] = counts.get(phi, 0) + 1   # exact keys: -0.0 merges with 0.0
    return list(counts.items())


def bound_state_predictions(kappa_x: float, kappa_y: float) -> list[BoundStatePrediction]:
    """Enumerate every real solution of the bound-state conditions.

    Pairs (n_x, n_y) run over non-negative integers with
    pi^2 (n_x/kappa_x)^2 + pi^2 (n_y/kappa_y)^2 <= 1 (the sign
    combinations of the azimuth formula cover the other quadrants).
    Each record is one distinct (z, phi) point; the record count is the
    predicted number of bound states.
    """
    if kappa_x <= 0 or kappa_y <= 0:
        raise ValueError("kick strengths must be positive")
    records = []
    for nx in range(int(kappa_x / math.pi) + 1):
        for ny in range(int(kappa_y / math.pi) + 1):
            radicand = 1.0 - math.pi ** 2 * ((nx / kappa_x) ** 2 + (ny / kappa_y) ** 2)
            if radicand < -ARCCOS_SLACK:
                continue
            z = math.sqrt(max(radicand, 0.0))
            signs = (1, -1) if z > 1e-12 else (1,)
            # quasi-energy at the point: cos(nx pi) cos(ny pi) = +-1
            target = 0.0 if (nx + ny) % 2 == 0 else math.pi
            if nx == 0 and ny == 0:
                for sign in signs:
                    records.append(BoundStatePrediction(
                        n_x=0, n_y=0, sign_z=sign, z=float(sign),
                        phi=None, target=target, n_solutions=1))
                continue
            phis = _phi_solutions(nx, ny, kappa_x, kappa_y)
            for sign in signs:
                for phi, count in phis:
                    records.append(BoundStatePrediction(
                        n_x=nx, n_y=ny, sign_z=sign, z=sign * z,
                        phi=phi, target=target, n_solutions=count))
    return records


def topological_count_estimate(kappa_x: float, kappa_y: float) -> float:
    """Closed-form estimate 2 kappa_x kappa_y / pi, accurate for large kicks."""
    return 2.0 * kappa_x * kappa_y / math.pi


def allowed_kappa_x(z0: float, kappa_y: float, n_x: int, n_y: int = 0) -> float | None:
    """Invert the z equation for the kick strength placing a bound state at z0.

    Returns pi n_x / sqrt(1 - z0^2 - (pi n_y / kappa_y)^2) when the
    radicand is positive, None otherwise; with n_y = 0 the radicand is
    1 - z0^2 > 0.  The returned value is checked by back-substitution,
    in squared form so that z0 = 0 is not amplified by a square root,
    before being handed out.
    """
    if not abs(z0) < 1.0:
        raise ValueError("|z0| must be < 1")
    if kappa_y <= 0:
        raise ValueError("kappa_y must be positive")
    if n_x < 1:
        raise ValueError("n_x must be a positive integer")
    y = math.pi * n_y / kappa_y
    radicand = 1.0 - z0 ** 2 - y * y       # y * y overflows to inf, y ** 2 would raise
    if radicand <= 0.0:
        return None
    kappa_x = math.pi * n_x / math.sqrt(radicand)
    x = math.pi * n_x / kappa_x
    back = 1.0 - x * x - y * y
    if abs(back - z0 ** 2) > 1e-12:
        raise AssertionError(f"back-substitution drifted: z^2 = {back} vs {z0 ** 2}")
    return kappa_x
