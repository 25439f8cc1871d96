"""Complex distance gamma(z) and the adapted oblate spheroidal coordinates.

For z = x + iy in C^n the complex length is

    gamma(z) = sqrt(z . z) = sqrt(r^2 - a^2 + 2i x.y) = p + iq,

with |x| = r, |y| = a and the branch fixed by p = Re gamma >= 0.  For a
fixed nonzero axis y this makes gamma single-valued away from the branch
disk E0(y) = {x : r <= a, x.y = 0}; its rim B(y) (r = a, x.y = 0) carries
gamma = 0.  Iso-p surfaces are oblate spheroids, iso-q surfaces one-sheet
hyperboloids, and (p, q, sigma) with sigma on the unit (n-2)-sphere in
the hyperplane orthogonal to y is the oblate spheroidal coordinate
system:

    zeta = p q / a,   rho = sqrt((a^2 + p^2)(a^2 - q^2)) / a,
    x = rho sigma + zeta y_hat,
    dx = (omega_{n-1} / a) rho^{n-3} (p^2 + q^2) dp dq dsigma,

with dsigma the unit-mass measure on S^{n-2}.  Across the open disk q
has a jump (q = +/- sqrt(a^2 - rho^2) on the front/back side); the
``side`` arguments below select the sheet, defaulting to the front.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AmbiguousBranchError, AxisDegenerateError, SingularPointError, YZeroError
from .numerics import orthonormal_complement_frame, sphere_area

__all__ = [
    "ComplexPoint",
    "ComplexDistance",
    "OblateCoords",
    "CylCoords",
    "PointClass",
    "complex_distance",
    "classify_point",
    "to_oblate",
    "from_oblate",
    "oblate_rho_zeta",
    "to_cylindrical",
    "jacobian_volume",
    "grad_pq",
    "default_tolerance",
]

FRONT = 1
BACK = -1


@dataclass(frozen=True)
class ComplexPoint:
    """A point z = x + iy of C^n as two real n-vectors."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("x and y must be real vectors of equal length")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def r(self) -> float:
        return float(np.linalg.norm(self.x))

    @property
    def a(self) -> float:
        return float(np.linalg.norm(self.y))

    def __neg__(self) -> "ComplexPoint":
        return ComplexPoint(-self.x, -self.y)

    def conjugate(self) -> "ComplexPoint":
        return ComplexPoint(self.x, -self.y)


@dataclass(frozen=True)
class ComplexDistance:
    """gamma = p + iq with the branch p >= 0 and |q| <= |y|."""

    p: float
    q: float

    @property
    def gamma(self) -> complex:
        return complex(self.p, self.q)


class PointClass(enum.Enum):
    REGULAR = "Regular"
    ON_DISK_FRONT = "OnDiskFront"
    ON_DISK_BACK = "OnDiskBack"
    ON_RIM = "OnRim"
    AXIS_DEGENERATE = "AxisDegenerate"
    Y_ZERO = "YZero"


@dataclass(frozen=True)
class OblateCoords:
    """(p, q, sigma): sigma holds coordinates in the deterministic frame of y-perp."""

    p: float
    q: float
    sigma: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.sigma is not None:
            object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))


@dataclass(frozen=True)
class CylCoords:
    """(rho, zeta, sigma) cylindrical coordinates adapted to the axis y."""

    rho: float
    zeta: float
    sigma: np.ndarray | None = None


def default_tolerance(a: float) -> float:
    """Scale-aware classification tolerance."""
    return 1e-12 * max(1.0, a)


def complex_distance(z: ComplexPoint, side: int = FRONT) -> ComplexDistance:
    """Principal branch of gamma(z) = sqrt(z.z) with Re gamma >= 0.

    On the branch disk (Re gamma = 0) the imaginary part is double
    valued; ``side`` (+1 front, -1 back) selects the sheet.
    """
    w = complex(z.r**2 - z.a**2, 2.0 * float(z.x @ z.y))
    g = cmath.sqrt(w)  # principal root already has Re >= 0
    p, q = g.real, g.imag
    if p == 0.0 and side < 0:
        q = -abs(q)
    elif p == 0.0:
        q = abs(q)
    return ComplexDistance(p, q)


def _branch_gamma(z: ComplexPoint, n: int, side: int | None = None) -> complex:
    """gamma(z) != 0 on the branch Re gamma >= 0, off the singular set of the
    n-dimensional potential and Cauchy kernel.

    Raises SingularPointError on the rim (gamma = 0), and AmbiguousBranchError
    on the branch disk for odd n unless ``side`` (+1 front, -1 back) picks the
    sheet; for even n gamma^{2-n} is single valued there and ``side`` is moot.
    """
    cls = classify_point(z.x, z.y)
    if cls is PointClass.ON_RIM:
        raise SingularPointError("gamma = 0 on the rim")
    if (n % 2 == 1 and side is None
            and cls in (PointClass.ON_DISK_FRONT, PointClass.ON_DISK_BACK)):
        raise AmbiguousBranchError(
            "point lies on the branch disk; pass side=+1 (front) or -1 (back)")
    gamma = complex_distance(z, side=FRONT if side is None else side).gamma
    if gamma == 0:
        raise SingularPointError("gamma = 0")
    return gamma


def classify_point(
    x: Sequence[float] | np.ndarray,
    y: Sequence[float] | np.ndarray,
    tol: float | None = None,
    side: int = FRONT,
) -> PointClass:
    """Locate (x, y) relative to the singular sets of gamma.

    Checks, in order: degenerate axis vector (YZero), the rim B(y), the
    open branch disk (front/back by ``side``), the symmetry axis
    (sigma undefined), else Regular.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = float(np.linalg.norm(x))
    a = float(np.linalg.norm(y))
    if tol is None:
        tol = default_tolerance(a)
    if a <= tol:
        return PointClass.Y_ZERO
    dot = abs(float(x @ y))
    if abs(r - a) <= tol and dot <= tol * a:
        return PointClass.ON_RIM
    if r < a - tol and dot <= tol * a:
        return PointClass.ON_DISK_BACK if side < 0 else PointClass.ON_DISK_FRONT
    zeta = float(x @ y) / a
    rho_sq = max(r**2 - zeta**2, 0.0)
    if math.sqrt(rho_sq) <= tol:
        return PointClass.AXIS_DEGENERATE
    return PointClass.REGULAR


def to_oblate(
    x: Sequence[float] | np.ndarray,
    y: Sequence[float] | np.ndarray,
    side: int = FRONT,
) -> OblateCoords:
    """Oblate spheroidal coordinates of x relative to the axis y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = float(np.linalg.norm(y))
    if a == 0.0:
        raise YZeroError("oblate coordinates need y != 0")
    dist = complex_distance(ComplexPoint(x, y), side=side)
    yhat = y / a
    zeta = float(x @ yhat)
    trans = x - zeta * yhat
    rho = float(np.linalg.norm(trans))
    if rho <= default_tolerance(a) * max(1.0, float(np.linalg.norm(x))):
        raise AxisDegenerateError("sigma is undefined on the axis (rho = 0)")
    frame = orthonormal_complement_frame(y)
    sigma = frame.T @ (trans / rho)
    return OblateCoords(dist.p, dist.q, sigma)


def from_oblate(
    coords: OblateCoords,
    y: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """Cartesian point for (p, q, sigma) with axis y.

    When the reconstructed transverse radius vanishes the point lies on
    the axis and sigma may be omitted.
    """
    y = np.asarray(y, dtype=float)
    a = float(np.linalg.norm(y))
    if a == 0.0:
        raise YZeroError("oblate coordinates need y != 0")
    p, q = coords.p, coords.q
    if p < 0:
        raise ValueError("p must be >= 0")
    if abs(q) > a * (1.0 + 1e-12):
        raise ValueError(f"|q| <= a required, got q={q}, a={a}")
    yhat = y / a
    rho, zeta = oblate_rho_zeta(p, q, a)
    if rho <= default_tolerance(a):
        return zeta * yhat
    if coords.sigma is None:
        raise AxisDegenerateError("sigma required off the axis (rho > 0)")
    sigma = np.asarray(coords.sigma, dtype=float)
    frame = orthonormal_complement_frame(y)
    return rho * (frame @ sigma) + zeta * yhat


def oblate_rho_zeta(p, q, a: float):
    """Cylindrical (rho, zeta) of the oblate coordinates (p, q) about an axis of length a.

    ``p`` and ``q`` are scalars or broadcast arrays: rho = sqrt((a^2 + p^2)
    (a^2 - q^2)) / a, clipped at 0 where rounding puts |q| past a, and
    zeta = p q / a.
    """
    rho = np.sqrt(np.maximum((a**2 + p**2) * (a**2 - q**2), 0.0)) / a
    return rho, p * q / a


def to_cylindrical(
    x: Sequence[float] | np.ndarray,
    y: Sequence[float] | np.ndarray,
) -> CylCoords:
    """Cylindrical coordinates (rho, zeta, sigma) adapted to the axis y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = float(np.linalg.norm(y))
    if a == 0.0:
        raise YZeroError("cylindrical coordinates need y != 0")
    yhat = y / a
    zeta = float(x @ yhat)
    trans = x - zeta * yhat
    rho = float(np.linalg.norm(trans))
    sigma = None
    if rho > default_tolerance(a):
        frame = orthonormal_complement_frame(y)
        sigma = frame.T @ (trans / rho)
    return CylCoords(rho, zeta, sigma)


def jacobian_volume(p: float, q: float, a: float, n: int) -> float:
    """Volume density (omega_{n-1}/a) rho^{n-3} (p^2 + q^2) of the (p, q, sigma) chart."""
    if a <= 0:
        raise ValueError("a must be positive")
    if p < 0:
        raise ValueError("p must be >= 0")
    if abs(q) > a * (1.0 + 1e-12):
        raise ValueError(f"|q| <= a required, got q={q}, a={a}")
    if n < 2:
        raise ValueError("n must be >= 2")
    rho_sq = (a**2 + p**2) * (a**2 - q**2) / a**2
    rho_pow = rho_sq ** ((n - 3) / 2.0) if n != 3 else 1.0
    return sphere_area(n - 1) / a * rho_pow * (p**2 + q**2)


def grad_pq(
    x: Sequence[float] | np.ndarray,
    y: Sequence[float] | np.ndarray,
    side: int = FRONT,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form gradients of p and q with respect to x at fixed y.

    grad p = (p x + q y) / (p^2 + q^2),  grad q = (p y - q x) / (p^2 + q^2).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dist = complex_distance(ComplexPoint(x, y), side=side)
    p, q = dist.p, dist.q
    denom = p**2 + q**2
    if denom == 0.0:
        raise SingularPointError("grad p, grad q undefined at gamma = 0")
    return (p * x + q * y) / denom, (p * y - q * x) / denom
