"""Newtonian, holomorphic, and regularized potentials.

The fundamental solution of the Laplacian in R^n (n >= 3),

    phi(x) = r^{2-n} / (omega_n (2 - n)),

continues holomorphically to phi(z) = gamma^{2-n} / (omega_n (2 - n)).
For odd n the continuation inherits the branch disk of gamma; for even n
the only singularity is the rim, where gamma = 0.  phi(x + iy) is
harmonic in x away from those sets.  The regularized potential

    phi_eps(z) = theta(p - eps) phi(z)

vanishes strictly inside the oblate spheroid p < eps and matches phi
outside; the spheroid itself carries the jump.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import AmbiguousBranchError, SingularPointError
from .geometry import ComplexPoint, PointClass, classify_point, complex_distance
from .numerics import sphere_area

__all__ = [
    "newtonian",
    "holomorphic_potential",
    "regularized_potential",
    "regularized_jump",
]


def newtonian(x: Sequence[float] | np.ndarray, n: int) -> float:
    """Fundamental solution r^{2-n} / (omega_n (2-n)); -1/(4 pi r) for n = 3."""
    if n < 3:
        raise ValueError("newtonian potential implemented for n >= 3")
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise SingularPointError("newtonian potential is singular at x = 0")
    return r ** (2 - n) / (sphere_area(n) * (2 - n))


def holomorphic_potential(z: ComplexPoint, n: int, side: int | None = None) -> complex:
    """gamma^{2-n} / (omega_n (2-n)) on the branch Re gamma >= 0.

    Disk-interior queries for odd n are genuinely two sided; pass
    ``side`` (+1 front / -1 back) to resolve them, else AmbiguousBranch.
    """
    if n < 3:
        raise ValueError("holomorphic potential implemented for n >= 3")
    cls = classify_point(z.x, z.y)
    if cls is PointClass.ON_RIM:
        raise SingularPointError("gamma = 0 on the rim")
    if cls in (PointClass.ON_DISK_FRONT, PointClass.ON_DISK_BACK) and n % 2 == 1:
        if side is None:
            raise AmbiguousBranchError(
                "point lies on the branch disk; pass side=+1 (front) or -1 (back)"
            )
    gamma = complex_distance(z, side=side if side is not None else 1).gamma
    if gamma == 0:
        raise SingularPointError("gamma = 0")
    return gamma ** (2 - n) / (sphere_area(n) * (2 - n))


def regularized_potential(z: ComplexPoint, n: int, eps: float,
                          side: int | None = None) -> complex:
    """theta(p - eps) phi(z): zero inside the spheroid p < eps, phi outside.

    Exactly on p = eps the outside limit is returned; both one-sided
    values are available from :func:`regularized_jump`.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    p = complex_distance(z).p
    if p < eps * (1.0 - 1e-13) :
        return 0.0 + 0.0j
    return holomorphic_potential(z, n, side=side)


def regularized_jump(z: ComplexPoint, n: int, eps: float,
                     side: int | None = None) -> tuple[complex, complex]:
    """One-sided values (inside, outside) of phi_eps across p = eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return 0.0 + 0.0j, holomorphic_potential(z, n, side=side)
