"""Complex Clifford algebra, Dirac operators, and Borel-Pompeiu quadrature.

Cl_n is generated by e_1..e_n with e_k e_l + e_l e_k = 2 delta_kl (all
squares +1); the spacetime algebra adds e_0.  Basis blades e_K are
indexed by bitmasks over the ordered generator labels; the geometric
product contracts repeated generators with metric +1 and picks up the
parity of the transpositions needed to interleave the factors.

The vector z = sum z_k e_k satisfies z^2 = z.z = gamma(z)^2, which ties
the algebra to the complex distance.  The Dirac operator D = sum e_k d_k
is an elliptic square root of the Laplacian (D^2 = Lap); its fundamental
solution is the Cauchy kernel

    C(x) = x / (omega_n r^n),   complexified to   C(z) = z / (omega_n gamma^n).

A field f on a bounded domain M with piecewise smooth boundary obeys the
Borel-Pompeiu identity

    Int_{dM} C(x'-x) n(x') f(x') dS - Int_M C(x'-x) D f(x') dx'
        = f(x) inside, 0 outside,

and its extension with kernel C(x'-z) evaluates the complexified field
f~_M(z) at regular points z (those with z - x' outside the singular set
for every boundary x').  Both formulas share one kernel, C(x' - z) for
z = x + iy, whose y = 0 restriction is the real one.  The hyperbolic operator D~ = D - i e_0 d_t
squares to the wave operator; extending f componentwise in time and
setting j~ = D~ f~ yields D~ j~ = 0 with f~, j~ matching f, Df at t = 0
(the time-dependent Maxwell system for n = 3, bivector f).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from . import wave as wv
from .errors import (
    DimensionMismatchError,
    NotRegularError,
    OnBoundaryError,
    SingularPointError,
    UnsupportedDimensionError,
)
from .fields import poly_diff, poly_eval
from .geometry import ComplexPoint, _branch_gamma, oblate_rho_zeta
from .numerics import (
    FDScheme,
    Quadrature,
    derivative,
    gauss_legendre,
    orthonormal_complement_frame,
    sphere_area,
    sphere_rule,
    sphere_sums,
)

__all__ = [
    "CliffordAlgebra",
    "Multivector",
    "MultivectorField",
    "SpacetimeMultivectorField",
    "Domain",
    "Ball",
    "Box",
    "Cl",
    "spacetime_algebra",
    "mv_mul",
    "dirac_apply",
    "dirac_field",
    "cauchy_kernel",
    "cauchy_kernel_field",
    "regular_point",
    "borel_pompeiu",
    "extended_borel_pompeiu",
    "dirac_tilde_apply",
    "maxwell_extend",
    "poly_field",
]


@lru_cache(maxsize=None)
def _sign_table(ngen: int) -> np.ndarray:
    """Geometric-product signs for blades of an algebra with ngen generators.

    sign[A, B] is the parity picked up reordering e_A e_B into e_{A xor B}
    with repeated generators contracted (square +1).
    """
    dim = 1 << ngen
    masks = np.arange(dim, dtype=np.uint64)
    swaps = np.zeros((dim, dim), dtype=np.int64)
    a = masks[:, None] >> np.uint64(1)
    b = masks[None, :]
    while a.any():
        swaps += np.bitwise_count(a & b).astype(np.int64)
        a = a >> np.uint64(1)
    return np.where(swaps % 2 == 0, 1, -1).astype(np.int8)


class CliffordAlgebra:
    """Complex Clifford algebra over an ordered tuple of generator labels."""

    def __init__(self, labels: tuple[int, ...]):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels) or list(self.labels) != sorted(self.labels):
            raise ValueError("generator labels must be strictly increasing")
        self.ngen = len(self.labels)
        self.dim = 1 << self.ngen
        self._pos = {lab: i for i, lab in enumerate(self.labels)}

    @staticmethod
    def get(labels: Sequence[int]) -> "CliffordAlgebra":
        return _algebra(tuple(labels))

    @property
    def signs(self) -> np.ndarray:
        return _sign_table(self.ngen)

    def mask_of(self, subset: Sequence[int]) -> int:
        mask = 0
        for lab in subset:
            mask |= 1 << self._pos[lab]
        return mask

    def labels_of(self, mask: int) -> tuple[int, ...]:
        return tuple(lab for i, lab in enumerate(self.labels) if mask >> i & 1)

    def zero(self) -> "Multivector":
        return Multivector(self, np.zeros(self.dim, dtype=complex))

    def scalar(self, c: complex) -> "Multivector":
        coeffs = np.zeros(self.dim, dtype=complex)
        coeffs[0] = c
        return Multivector(self, coeffs)

    def blade(self, subset: Sequence[int], c: complex = 1.0) -> "Multivector":
        coeffs = np.zeros(self.dim, dtype=complex)
        coeffs[self.mask_of(subset)] = c
        return Multivector(self, coeffs)

    def basis(self, label: int) -> "Multivector":
        return self.blade((label,))

    def vector(self, components: Sequence[complex],
               labels: Sequence[int] | None = None) -> "Multivector":
        labels = self.labels if labels is None else tuple(labels)
        coeffs = np.zeros(self.dim, dtype=complex)
        for lab, c in zip(labels, components):
            coeffs[self.mask_of((lab,))] = c
        return Multivector(self, coeffs)

    def __repr__(self) -> str:
        return f"Cl{self.labels}"


@lru_cache(maxsize=None)
def _algebra(labels: tuple[int, ...]) -> CliffordAlgebra:
    """The one ``CliffordAlgebra`` per label tuple."""
    return CliffordAlgebra(labels)


def Cl(n: int) -> CliffordAlgebra:
    """Cl_n with spatial generators e_1..e_n."""
    return CliffordAlgebra.get(tuple(range(1, n + 1)))


def spacetime_algebra(n: int) -> CliffordAlgebra:
    """Cl_{n+1} with generators e_0 (time slot) and e_1..e_n."""
    return CliffordAlgebra.get(tuple(range(0, n + 1)))


@dataclass(frozen=True)
class Multivector:
    """Element of a complex Clifford algebra as dense blade coefficients."""

    algebra: CliffordAlgebra
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.algebra.dim,):
            raise DimensionMismatchError(
                f"coefficient vector of length {c.shape} for dim {self.algebra.dim}"
            )
        object.__setattr__(self, "coeffs", c)

    def _check(self, other: "Multivector") -> None:
        if other.algebra is not self.algebra and other.algebra.labels != self.algebra.labels:
            raise DimensionMismatchError(
                f"mixed algebras {self.algebra} and {other.algebra}"
            )

    def __add__(self, other):
        if np.isscalar(other):
            return self + self.algebra.scalar(other)
        self._check(other)
        return Multivector(self.algebra, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        if np.isscalar(other):
            return self - self.algebra.scalar(other)
        self._check(other)
        return Multivector(self.algebra, self.coeffs - other.coeffs)

    def __neg__(self):
        return Multivector(self.algebra, -self.coeffs)

    def __mul__(self, other):
        if np.isscalar(other):
            return Multivector(self.algebra, self.coeffs * other)
        self._check(other)
        return mv_mul(self, other)

    def __rmul__(self, other):
        if np.isscalar(other):
            return Multivector(self.algebra, other * self.coeffs)
        return NotImplemented

    @property
    def scalar_part(self) -> complex:
        return complex(self.coeffs[0])

    def coeff(self, subset: Sequence[int]) -> complex:
        return complex(self.coeffs[self.algebra.mask_of(subset)])

    def grade(self, k: int) -> "Multivector":
        out = np.zeros_like(self.coeffs)
        for mask in range(self.algebra.dim):
            if bin(mask).count("1") == k:
                out[mask] = self.coeffs[mask]
        return Multivector(self.algebra, out)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def vector_components(self, labels: Sequence[int] | None = None) -> np.ndarray:
        labels = self.algebra.labels if labels is None else tuple(labels)
        return np.asarray([self.coeffs[self.algebra.mask_of((lab,))] for lab in labels])

    def __repr__(self) -> str:
        terms = []
        for mask in range(self.algebra.dim):
            c = self.coeffs[mask]
            if abs(c) > 1e-14:
                labs = "".join(str(l) for l in self.algebra.labels_of(mask))
                terms.append(f"({c:.6g})" + (f" e{labs}" if labs else ""))
        return " + ".join(terms) if terms else "0"


def mv_mul(u: Multivector, v: Multivector) -> Multivector:
    """Geometric product of two multivectors of the same algebra."""
    u._check(v)
    out = _batch_mul(u.algebra, u.coeffs[None, :], v.coeffs[None, :])[0]
    return Multivector(u.algebra, out)


def _batch_mul(alg: CliffordAlgebra, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row-wise geometric product of coefficient batches (m, dim)."""
    signs = alg.signs
    dim = alg.dim
    out = np.zeros(np.broadcast_shapes(U.shape, V.shape), dtype=complex)
    V = np.broadcast_to(V, out.shape)
    term = np.empty_like(out)
    masks = np.arange(dim)
    for a in range(dim):
        col = U[..., a]
        if not np.any(col):
            continue
        perm = masks ^ a   # out[k ^ a] += col V[k] s[a, k], in one reused buffer
        np.take(V, perm, axis=-1, out=term)
        term *= col[..., None]
        term *= signs[a, perm]
        out += term
    return out


# ----------------------------------------------------------------------
# Polynomial tables: {exponent tuple -> coefficient}
# ----------------------------------------------------------------------

Poly = Mapping[tuple[int, ...], complex]


@dataclass(frozen=True)
class MultivectorField:
    """Multivector-valued field on R^n.

    Carries a pointwise evaluator and, optionally, an exact polynomial
    table per blade mask enabling exact differentiation.  ``labels``
    maps coordinate axes to the vector generators used by the Dirac
    operator (defaults to the algebra's first n labels).
    """

    algebra: CliffordAlgebra
    n: int
    evaluator: Callable[[np.ndarray], np.ndarray] | None = None
    poly: Mapping[int, Poly] | None = None
    labels: tuple[int, ...] | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.evaluator is None and self.poly is None:
            raise ValueError("field needs an evaluator or a polynomial table")
        if self.labels is None:
            object.__setattr__(self, "labels", self.algebra.labels[: self.n])

    def batch(self, pts: np.ndarray) -> np.ndarray:
        """Blade coefficients at an (m, n) point array, shape (m, dim)."""
        pts = np.asarray(pts, dtype=float)
        if self.poly is not None:
            out = np.zeros((pts.shape[0], self.algebra.dim), dtype=complex)
            for mask, table in self.poly.items():
                out[:, mask] = poly_eval(table, pts)
            return out
        return np.asarray(self.evaluator(pts))

    def value(self, x: np.ndarray) -> Multivector:
        x = np.asarray(x, dtype=float)
        return Multivector(self.algebra, self.batch(x[None, :])[0])


def poly_field(algebra: CliffordAlgebra, n: int,
               tables: Mapping[Sequence[int], Poly],
               labels: Sequence[int] | None = None) -> MultivectorField:
    """Polynomial multivector field from {blade labels: exponent table}."""
    by_mask = {algebra.mask_of(tuple(subset)): dict(tab) for subset, tab in tables.items()}
    return MultivectorField(algebra, n, poly=by_mask,
                            labels=None if labels is None else tuple(labels))


def dirac_field(f: MultivectorField, side: str = "left") -> MultivectorField:
    """Exact Dirac derivative of a polynomial field, again a polynomial field."""
    if f.poly is None:
        raise ValueError("dirac_field needs the exact polynomial representation")
    alg = f.algebra
    out: dict[int, dict[tuple[int, ...], complex]] = {}
    for axis, lab in enumerate(f.labels):
        emask = alg.mask_of((lab,))
        for mask, table in f.poly.items():
            dtab = poly_diff(table, axis)
            if not dtab:
                continue
            sign = alg.signs[emask, mask] if side == "left" else alg.signs[mask, emask]
            target = emask ^ mask
            store = out.setdefault(target, {})
            for alpha, c in dtab.items():
                store[alpha] = store.get(alpha, 0.0) + sign * c
    return MultivectorField(alg, f.n, poly=out, labels=f.labels,
                            name=f"D[{f.name}]" if side == "left" else f"[{f.name}]D")


def dirac_apply(f: MultivectorField, x: Sequence[float] | np.ndarray,
                side: str = "left", scheme: FDScheme | None = None) -> Multivector:
    """Left- or right-acting Dirac operator at a point.

    Exact from the polynomial table when the field has one; otherwise
    central differences of the evaluator with ``scheme`` (default
    h = 1e-5, order 4, one Richardson level).
    """
    x = np.asarray(x, dtype=float)
    dirac = _dirac_evaluator(f, side, scheme or FDScheme(h=1e-5, order=4, richardson=True))
    return Multivector(f.algebra, dirac(x[None, :])[0])


def _dirac_evaluator(f: MultivectorField, side: str,
                     scheme: FDScheme) -> Callable[[np.ndarray], np.ndarray]:
    """Batch evaluator of D f (side 'left') or f D ('right'): the exact
    polynomial field's when f has a table, else ``scheme``'s central differences."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if f.poly is not None:
        return dirac_field(f, side).batch
    alg = f.algebra
    gens = _vectors(alg, np.eye(len(f.labels)), f.labels)

    def fd(pts: np.ndarray) -> np.ndarray:
        out = np.zeros((pts.shape[0], alg.dim), dtype=complex)
        for axis, e in enumerate(gens):
            ek = np.zeros(f.n)
            ek[axis] = 1.0
            part = derivative(lambda d: f.batch(pts + d * ek), 0.0, scheme, 1)
            out += _batch_mul(alg, e, part) if side == "left" else _batch_mul(alg, part, e)
        return out

    return fd


# ----------------------------------------------------------------------
# Cauchy kernel
# ----------------------------------------------------------------------

def cauchy_kernel(z: ComplexPoint | Sequence[float] | np.ndarray,
                  side: int | None = None) -> Multivector:
    """Vector-valued kernel C(z) = z / (omega_n gamma^n); C(x) = x / (omega_n r^n).

    Valid for all n >= 2 (for n = 2 with the logarithmic potential); n is
    ``z.n`` or the length of a real ``z``.  Raises on the singular set:
    gamma = 0, or the branch disk for odd n without an approach side.
    """
    if isinstance(z, ComplexPoint):
        x, y, gamma = z.x, -z.y, np.array([_branch_gamma(z, z.n, side)])
    else:
        x = np.asarray(z, dtype=float)
        if float(np.linalg.norm(x)) == 0.0:
            raise SingularPointError("Cauchy kernel is singular at the origin")
        y, gamma = np.zeros_like(x), None
    alg = Cl(x.size)
    return Multivector(alg, _kernel_batch(x[None, :], y, alg, gamma)[0])


def cauchy_kernel_field(x0: Sequence[float] | np.ndarray) -> MultivectorField:
    """Field x -> C(x - x0) on R^n, n = len(x0): left- and right-monogenic away from x0."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    alg = Cl(n)
    zero = np.zeros(n)

    def ev(pts: np.ndarray) -> np.ndarray:
        return _kernel_batch(pts - x0, zero, alg)

    return MultivectorField(alg, n, evaluator=ev, name=f"C(x - {x0.tolist()})")


def _vectors(alg: CliffordAlgebra, comps: np.ndarray,
             labels: Sequence[int] | None = None) -> np.ndarray:
    """Blade coefficients (m, dim) of the vectors sum_k comps[:, k] e_{labels[k]}
    (labels 1..n by default)."""
    labels = range(1, comps.shape[1] + 1) if labels is None else labels
    out = np.zeros((comps.shape[0], alg.dim), dtype=complex)
    for k, lab in enumerate(labels):
        out[:, alg.mask_of((lab,))] = comps[:, k]
    return out


def _kernel_batch(diffs: np.ndarray, y: np.ndarray, alg: CliffordAlgebra,
                  gamma: np.ndarray | None = None) -> np.ndarray:
    """C((x' - x) - i y) for real offsets x' - x; y = 0 gives (x' - x) / (omega_n r^n)."""
    n = diffs.shape[1]
    w = diffs.astype(complex) - 1j * y[None, :]
    if gamma is None:
        gamma = np.sqrt(np.sum(w * w, axis=1))  # principal root: Re >= 0
    scale = 1.0 / (sphere_area(n) * gamma**n)
    return _vectors(alg, w * scale[:, None])


# ----------------------------------------------------------------------
# Domains
# ----------------------------------------------------------------------

#: Gauss-Legendre nodes per radius of a ball's volume rule and of the
#: Borel-Pompeiu interior rays, and per side of the Duffy square of the
#: spheroid's volume rule.
RADIAL_ORDER = 16
DUFFY_ORDER = 16
#: FD stencil of the Dirac derivative of fields without a polynomial table,
#: and that of the continuity residual D~ j~ of the Maxwell current.
DIRAC_FD = FDScheme(h=1e-2, order=4, richardson=False)
CONTINUITY_FD = FDScheme(h=3e-2, order=4, richardson=False)
#: Distance to the boundary below which ``borel_pompeiu`` refuses a point.
BOUNDARY_TOL = 1e-9

#: Most points one array pass of ``extended_borel_pompeiu`` (or ``borel_pompeiu``)
#: hands to the field or its Dirac derivative (at 4,096 the passes ran slower and
#: the transient arrays raised the peak memory).
_EBP_CHUNK = 1024


class Domain:
    """Bounded integration domain with piecewise smooth boundary."""

    n: int

    def boundary_quadrature(self, quadrature: Quadrature = Quadrature()):
        """Boundary nodes, unit outward normals and area weights.

        ``quadrature`` sets the sphere rule of a round boundary.
        """
        raise NotImplementedError

    def volume_quadrature(self, quadrature: Quadrature = Quadrature()):
        """Interior nodes and volume weights."""
        raise NotImplementedError

    def contains(self, x: np.ndarray, margin: float = 0.0) -> bool:
        raise NotImplementedError

    def signed_boundary_distance(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def ray_exit(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Ball(Domain):
    """Ball of given center and radius with analytic normals."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"ball radius must be positive and finite, got {self.radius}")

    @property
    def n(self) -> int:
        return self.center.shape[0]

    def boundary_quadrature(self, quadrature: Quadrature = Quadrature()):
        rule = sphere_rule(self.n - 1, quadrature.sphere_orders(self.n - 1))
        pts = self.center[None, :] + self.radius * rule.nodes
        area = sphere_area(self.n) * self.radius ** (self.n - 1)
        return pts, rule.nodes.copy(), rule.weights * area

    def volume_quadrature(self, quadrature: Quadrature = Quadrature()):
        rule = sphere_rule(self.n - 1, quadrature.sphere_orders(self.n - 1))
        leg = gauss_legendre(RADIAL_ORDER)
        radii = 0.5 * self.radius * (leg.nodes + 1.0)
        wr = 0.5 * self.radius * leg.weights
        pts = (self.center[None, None, :]
               + radii[:, None, None] * rule.nodes[None, :, :]).reshape(-1, self.n)
        wts = (wr * radii ** (self.n - 1))[:, None] * rule.weights[None, :] * sphere_area(self.n)
        return pts, wts.reshape(-1)

    def contains(self, x: np.ndarray, margin: float = 0.0) -> bool:
        return float(np.linalg.norm(np.asarray(x) - self.center)) <= self.radius - margin

    def signed_boundary_distance(self, x: np.ndarray) -> float:
        return self.radius - float(np.linalg.norm(np.asarray(x) - self.center))

    def ray_exit(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        rel = np.asarray(origin, dtype=float) - self.center
        b = dirs @ rel
        c = float(rel @ rel) - self.radius**2
        disc = np.sqrt(np.clip(b**2 - c, 0.0, None))
        return -b + disc


@dataclass(frozen=True)
class Box(Domain):
    """Axis-aligned box [lo, hi] with face-product quadrature."""

    lo: np.ndarray
    hi: np.ndarray
    face_order: int = 16

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if not np.all(self.hi > self.lo):
            raise ValueError("box needs hi > lo componentwise")

    @property
    def n(self) -> int:
        return self.lo.shape[0]

    def _axis_rule(self, axis: int):
        leg = gauss_legendre(self.face_order)
        mid = 0.5 * (self.lo[axis] + self.hi[axis])
        half = 0.5 * (self.hi[axis] - self.lo[axis])
        return mid + half * leg.nodes, half * leg.weights

    def _grid(self, axes: Sequence[int]):
        """Tensor-product Gauss-Legendre nodes (m, len(axes)) and weights over ``axes``."""
        grids = [self._axis_rule(k) for k in axes]
        mesh = np.meshgrid(*[g[0] for g in grids], indexing="ij")
        wmesh = np.meshgrid(*[g[1] for g in grids], indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        wts = np.ones(pts.shape[0])
        for wm in wmesh:
            wts = wts * wm.ravel()
        return pts, wts

    def boundary_quadrature(self, quadrature: Quadrature = Quadrature()):
        pts_all, nrm_all, wts_all = [], [], []
        n = self.n
        for axis in range(n):
            others = [k for k in range(n) if k != axis]
            coords, wface = self._grid(others)
            for sign, val in ((-1.0, self.lo[axis]), (1.0, self.hi[axis])):
                pts = np.zeros((coords.shape[0], n))
                pts[:, others] = coords
                pts[:, axis] = val
                nrm = np.zeros_like(pts)
                nrm[:, axis] = sign
                pts_all.append(pts)
                nrm_all.append(nrm)
                wts_all.append(wface)
        return np.concatenate(pts_all), np.concatenate(nrm_all), np.concatenate(wts_all)

    def volume_quadrature(self, quadrature: Quadrature = Quadrature()):
        return self._grid(range(self.n))

    def contains(self, x: np.ndarray, margin: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo + margin) and np.all(x <= self.hi - margin))

    def signed_boundary_distance(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if self.contains(x):
            return float(min(np.min(x - self.lo), np.min(self.hi - x)))
        gap = np.maximum(np.maximum(self.lo - x, 0.0), np.maximum(x - self.hi, 0.0))
        return -float(np.linalg.norm(gap))

    def ray_exit(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        origin = np.asarray(origin, dtype=float)
        with np.errstate(divide="ignore"):
            t_hi = np.where(dirs > 0, (self.hi[None, :] - origin) / dirs, np.inf)
            t_lo = np.where(dirs < 0, (self.lo[None, :] - origin) / dirs, np.inf)
        return np.min(np.minimum(t_hi, t_lo), axis=1)


# ----------------------------------------------------------------------
# Regularity and the Borel-Pompeiu formulas
# ----------------------------------------------------------------------

def regular_point(z: ComplexPoint, M: Domain, tol: float = 1e-8,
                  quadrature: Quadrature = Quadrature()) -> bool:
    """True iff z - x' stays off the singular set S_n for every boundary x'.

    The membership measure minimized over boundary quadrature nodes is
    p(z - x') for odd n (distance to the branch disk in the p
    coordinate) and |gamma(z - x')| for even n (distance to the null
    cone), n = ``z.n``.  Because the minimum runs over discrete nodes, the
    effective tolerance is floored at the boundary mesh spacing (a point
    cannot be certified regular below the resolution of the rule), making
    the test conservative near the boundary.
    """
    n = z.n
    pts, _, wts = M.boundary_quadrature(quadrature)
    spacing = float(np.max(wts)) ** (1.0 / (n - 1))
    eff_tol = max(tol, spacing)
    # z - x' has real part x - x' and imaginary part y
    w = (z.x[None, :] - pts).astype(complex) + 1j * z.y[None, :]
    gam = np.sqrt(np.sum(w * w, axis=1))
    measure = gam.real if n % 2 == 1 else np.abs(gam)
    return bool(np.min(measure) > eff_tol)


def _triple_weighted_sum(alg: CliffordAlgebra, wts: np.ndarray, A: np.ndarray,
                         B: np.ndarray, C: np.ndarray | None = None) -> np.ndarray:
    prod = _batch_mul(alg, A, B)
    if C is not None:
        prod = _batch_mul(alg, prod, C)
    return (wts[:, None] * prod).sum(axis=0)


def _chunked_sum(count: int, chunk: int, term: Callable[[slice], np.ndarray]) -> np.ndarray:
    """Sum of ``term(sl)`` over consecutive slices of range(count), ``chunk`` long at most."""
    return sum(term(slice(lo, lo + chunk)) for lo in range(0, count, chunk))


def _boundary_term(f: MultivectorField, M: Domain, x: np.ndarray, y: np.ndarray,
                   quadrature: Quadrature) -> np.ndarray:
    """Int_{dM} C(x' - z) n(x') f(x') dS for z = x + iy, on M's boundary rule."""
    alg = f.algebra
    pts, normals, wts = M.boundary_quadrature(quadrature)

    def chunk(sl: slice) -> np.ndarray:
        ck = _kernel_batch(pts[sl] - x[None, :], y, alg)
        return _triple_weighted_sum(alg, wts[sl], ck, _vectors(alg, normals[sl]),
                                    f.batch(pts[sl]))

    return _chunked_sum(wts.size, _EBP_CHUNK, chunk)


def _exterior_sum(f: MultivectorField, dirac: Callable, M: Domain, x: np.ndarray,
                  y: np.ndarray, quadrature: Quadrature) -> np.ndarray:
    """Boundary minus volume term of kernel C(x' - z), z = x + iy, on M's own rules:
    with z's singular set outside M, every integrand is smooth on M-bar."""
    alg = f.algebra
    vpts, vwts = M.volume_quadrature(quadrature)

    def volume(sl: slice) -> np.ndarray:
        ck = _kernel_batch(vpts[sl] - x[None, :], y, alg)
        return _triple_weighted_sum(alg, vwts[sl], ck, dirac(vpts[sl]))

    return _boundary_term(f, M, x, y, quadrature) - _chunked_sum(vwts.size, _EBP_CHUNK, volume)


def borel_pompeiu(f: MultivectorField, M: Domain, x: Sequence[float] | np.ndarray,
                  quadrature: Quadrature = Quadrature()) -> Multivector:
    """Boundary-minus-volume representation of f at a real point x.

    Reproduces f(x) for x inside M and 0 outside.  The interior volume
    integral uses spherical coordinates about x, whose r^{n-1} measure
    cancels the r^{1-n} kernel growth exactly.
    """
    x = np.asarray(x, dtype=float)
    n = M.n
    alg = f.algebra
    sd = M.signed_boundary_distance(x)
    if abs(sd) <= BOUNDARY_TOL:
        raise OnBoundaryError("x lies on the boundary (trace limits out of scope)")
    dirac = _dirac_evaluator(f, "left", DIRAC_FD)
    y = np.zeros(n)
    if sd < 0:
        return Multivector(alg, _exterior_sum(f, dirac, M, x, y, quadrature))

    term_b = _boundary_term(f, M, x, y, quadrature)
    dirs_rule = sphere_rule(n - 1, quadrature.sphere_orders(n - 1))
    dirs = dirs_rule.nodes
    t_exit = M.ray_exit(x, dirs)
    leg = gauss_legendre(RADIAL_ORDER)
    # radial nodes per direction on [0, t_exit]; kernel * r^{n-1} * omega_n = dir
    radii = 0.5 * t_exit[:, None] * (leg.nodes[None, :] + 1.0)
    wrad = 0.5 * t_exit[:, None] * leg.weights[None, :]
    vpts = (x[None, None, :] + radii[:, :, None] * dirs[:, None, :]).reshape(-1, n)
    vdirs = np.repeat(dirs, leg.nodes.size, axis=0)
    vwts = (dirs_rule.weights[:, None] * wrad).reshape(-1)
    term_v = _chunked_sum(vwts.size, _EBP_CHUNK, lambda sl: _triple_weighted_sum(
        alg, vwts[sl], _vectors(alg, vdirs[sl]), dirac(vpts[sl])))
    return Multivector(alg, term_b - term_v)


def _ring(axis: np.ndarray, count: int) -> np.ndarray:
    """The (count, n) unit vectors cos(phi) f1 + sin(phi) f2, phi = 2 pi k / count, with
    f1, f2 the first two columns of the ``orthonormal_complement_frame`` of ``axis``."""
    frame = orthonormal_complement_frame(axis)
    phis = 2.0 * np.pi * np.arange(count) / count
    return (np.cos(phis)[:, None] * frame[:, 0][None, :]
            + np.sin(phis)[:, None] * frame[:, 1][None, :])


def _disk_position(M: Domain, x: np.ndarray, y: np.ndarray) -> str:
    """Locate the branch disk x + E0(y) relative to M: 'inside'/'outside'."""
    a = float(np.linalg.norm(y))
    ring = _ring(y, 16)
    samples = [x]
    for rad in (0.5 * a, a):
        samples.extend(x + rad * ring)
    margin = 1e-12
    ins = [M.contains(s, margin) for s in samples]
    if all(ins):
        return "inside"
    if not any(M.contains(s, -margin) for s in samples):
        return "outside"
    raise NotRegularError("the branch disk straddles the boundary of M")


def extended_borel_pompeiu(f: MultivectorField, M: Domain, z: ComplexPoint,
                           quadrature: Quadrature = Quadrature()) -> Multivector:
    """Extension f~_M(z) by boundary-minus-volume quadrature with kernel C(x'-z).

    Real z reduces to the usual Borel-Pompeiu formula, and a source disk
    outside M to its exterior sum with the complex kernel.  For complex z
    (n = 3) with the disk inside M, the identity f~_M(z) = f~_{E_P}(z)
    over an inscribed spheroid E_P is used: its boundary integral is
    smooth, and its volume integral is evaluated in the oblate coordinates
    adapted to (x, -y), where gamma = p + iq exactly and a Duffy
    substitution removes the 1/|gamma| corner.  The spheroid's rules in
    (q, phi) are the S^2 orders of ``quadrature``: polar q-nodes and twice
    as many azimuths.

    The Dirac field Df is derived once per call: exactly from the
    polynomial table when there is one, else by finite differences on
    each chunk of points.  Every layer (boundary, volume and, inside, the
    branch cut) is evaluated in chunks of at most ``_EBP_CHUNK`` points:
    whole (p, q) rings of phi points (``numerics.sphere_sums``) inside,
    runs of the domain's quadrature points outside.
    """
    n = M.n
    if np.linalg.norm(z.y) == 0.0:
        return borel_pompeiu(f, M, z.x, quadrature)
    if n != 3:
        raise UnsupportedDimensionError("complex-argument formula implemented for n = 3")
    if not regular_point(z, M, quadrature=quadrature):
        raise NotRegularError("z is not regular with respect to the boundary of M")
    alg = f.algebra
    x, y = z.x, z.y
    dirac = _dirac_evaluator(f, "left", DIRAC_FD)
    if _disk_position(M, x, y) == "outside":
        return Multivector(alg, _exterior_sum(f, dirac, M, x, y, quadrature))

    # disk inside M: shrink the domain to an inscribed oblate spheroid E_P
    a = float(np.linalg.norm(y))
    s_max = M.signed_boundary_distance(x)
    semi = 0.8 * s_max
    if semi**2 <= (1.05 * a) ** 2:
        raise NotRegularError(
            "insufficient clearance between the branch disk and the boundary"
        )
    big_p = math.sqrt(semi**2 - a**2)
    yloc = -y
    yhat = yloc / a
    q_order, nphi = quadrature.sphere_orders(2)
    sig = _ring(yloc, nphi)
    wphi = np.full(nphi, 1.0 / nphi)

    def rings(p: np.ndarray, q: np.ndarray, w: np.ndarray, term) -> np.ndarray:
        """Sum of w times the phi-ring mean of term over the (p, q) nodes.

        The ring of (p, q) is the circle rho sig(phi) about zeta yhat.
        ``term(p, q, u)`` gets per-point p, q and offsets u = x' - x of a
        chunk of whole rings and returns (points, dim) contributions.
        """
        rho, zeta = oblate_rho_zeta(p, q, a)

        def values(u: np.ndarray, dirs: np.ndarray, nodes: slice) -> np.ndarray:
            b, s = u.shape[:2]
            vals = term(np.repeat(p[nodes], s), np.repeat(q[nodes], s), u.reshape(-1, n))
            return vals.reshape(b, s, -1)

        return w @ sphere_sums(values, zeta[:, None] * yhat, rho, sig, wphi, _EBP_CHUNK)

    def kernel(p: np.ndarray, q: np.ndarray, u: np.ndarray) -> np.ndarray:
        return _kernel_batch(u, y, alg, p + 1j * q)   # C((x' - x) - i y)

    def boundary(p: np.ndarray, q: np.ndarray, u: np.ndarray) -> np.ndarray:
        normal = (p[:, None] * u - q[:, None] * y[None, :]) / np.sqrt(
            (a**2 + p**2) * (p**2 + q**2))[:, None]
        return _batch_mul(alg, _batch_mul(alg, kernel(p, q, u), _vectors(alg, normal)),
                          f.batch(x + u))

    def volume(p: np.ndarray, q: np.ndarray, u: np.ndarray) -> np.ndarray:
        return _batch_mul(alg, kernel(p, q, u), dirac(x + u))

    # boundary of E_P: parametrized by (q, phi), area element
    # (sqrt(a^2+P^2)/a) sqrt(P^2+q^2) dq dphi_normalized * 2 pi
    leg = gauss_legendre(q_order)
    q_nodes = a * leg.nodes
    q_wts = a * leg.weights
    area_fact = (2.0 * np.pi * math.sqrt(a**2 + big_p**2) / a
                 * np.sqrt(big_p**2 + q_nodes**2))
    term_b = rings(np.full_like(q_nodes, big_p), q_nodes, q_wts * area_fact, boundary)

    # volume of E_P in oblate coordinates, Duffy-transformed about (p, q) = 0:
    # two triangles per sign of q, (p, q) = (P u, +-a u v) and (P u v, +-a u)
    duffy = gauss_legendre(DUFFY_ORDER)
    t_nodes = 0.5 * (duffy.nodes + 1.0)
    t_wts = 0.5 * duffy.weights
    uu, vv = np.meshgrid(t_nodes, t_nodes, indexing="ij")
    ps, qs = [], []
    for sq in (1.0, -1.0):
        ps += [big_p * uu, big_p * uu * vv]
        qs += [sq * a * uu * vv, sq * a * uu]
    ps = np.concatenate([v.ravel() for v in ps])
    qs = np.concatenate([v.ravel() for v in qs])
    ws = np.tile((np.outer(t_wts, t_wts) * big_p * a * uu).ravel(), 4)
    # volume measure (omega_2 / a)(p^2 + q^2) dp dq dsigma (n = 3)
    vol_fact = sphere_area(2) / a * (ps**2 + qs**2)
    term_v = rings(ps, qs, ws * vol_fact, volume)

    # Branch-cut layer of the kernel: the potential jumps across the disk
    # ([phi] = i / (2 pi sqrt(a^2 - rho'^2)) for n = 3), so the distributional
    # derivative C = D phi carries a single layer there and the volume pairing
    # gains i Int_0^a mean_phi[ yloc (Df) ](rho' = sqrt(a^2 - q0^2)) dq0,
    # the ring p = 0, q = q0 of the oblate coordinates.
    yhat_mv = _vectors(alg, yhat[None, :])

    def branch_cut(p: np.ndarray, q: np.ndarray, u: np.ndarray) -> np.ndarray:
        return 1j * _batch_mul(alg, yhat_mv, dirac(x + u))

    q0 = 0.5 * a * (leg.nodes + 1.0)
    wq0 = 0.5 * a * leg.weights
    term_d = rings(np.zeros_like(q0), q0, wq0, branch_cut)

    return Multivector(alg, term_b - term_v - term_d)


# ----------------------------------------------------------------------
# Hyperbolic Dirac / Maxwell extension
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SpacetimeMultivectorField:
    """Cl_{n+1}-valued field on Euclidean spacetime (columns x_1..x_n, s)."""

    algebra: CliffordAlgebra
    n: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    s_derivative: Callable[[np.ndarray], np.ndarray] | None = None
    smoothness: float = math.inf
    name: str = ""

    def batch(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(pts, dtype=float)))

    def value(self, x: np.ndarray, s: float) -> Multivector:
        pt = np.append(np.asarray(x, dtype=float), s)
        return Multivector(self.algebra, self.batch(pt[None, :])[0])


def _dirac_tilde(algebra: CliffordAlgebra, grad: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Sum_k e_k grad[k] - i e0 dt for coefficient rows grad (n, dim) and dt (dim,)."""
    n = len(grad)
    gens = _vectors(algebra, np.eye(n + 1), [*range(1, n + 1), 0])
    return _batch_mul(algebra, gens, np.vstack([grad, -1j * dt])).sum(axis=0)


def dirac_tilde_apply(g: Callable[[np.ndarray, float], np.ndarray],
                      algebra: CliffordAlgebra, x: np.ndarray, t: float,
                      scheme: FDScheme) -> np.ndarray:
    """Hyperbolic Dirac D~ = D - i e0 d_t applied by FD to coefficient-valued g(x, t).

    The spatial axes are those of ``x`` (e_1..e_n for n = ``x.size``).
    """
    n = x.size
    grad = []
    for axis in range(n):
        ek = np.zeros(n)
        ek[axis] = 1.0
        grad.append(derivative(lambda d: g(x + d * ek, t), 0.0, scheme, 1))
    dt_part = derivative(lambda d: g(x, t + d), 0.0, scheme, 1)
    return _dirac_tilde(algebra, grad, dt_part)


def maxwell_extend(f: SpacetimeMultivectorField, x: Sequence[float] | np.ndarray,
                   s: float, t: float, quadrature: Quadrature = Quadrature()
                   ) -> tuple[Multivector, Multivector, float]:
    """Extension f~, current j~ = D~ f~, and the continuity residual |scalar D~ j~|.

    n = 3 (the physical Maxwell case: f a bivector field, j a
    four-vector).  At t = 0 the pair (f~, j~) reduces to (f, Df + e0 f_s).
    f~ and j~ = Sum_k e_k d_k f~ - i e0 d_t f~ come from one
    ``wave.extend_jet`` at (x, t): the x- and t-derivatives of the
    Kirchhoff solution are taken under the sphere means about x, not by
    solving again at shifted points.  The residual stays a measurement:
    ``dirac_tilde_apply`` with ``CONTINUITY_FD`` over the jets of its 16
    stencil points.
    """
    x = np.asarray(x, dtype=float)
    if f.n != 3:
        raise UnsupportedDimensionError("Maxwell extension is fixed at n = 3")
    alg = f.algebra
    # every blade coefficient is extended at once: the wave solver's means
    # and moments act row-wise on the (m, dim) coefficient batch
    coeffs = wv.SpacetimeField(f.batch, f.s_derivative, f.smoothness, f.name)

    def jet(xx: np.ndarray, tt: float):
        u, grad, u_t = wv.extend_jet(coeffs, xx, s, tt, quadrature)
        return u, _dirac_tilde(alg, grad, u_t)

    f_val, j_val = jet(x, t)
    dj = dirac_tilde_apply(lambda xx, tt: jet(xx, tt)[1], alg, x, t, CONTINUITY_FD)
    residual = abs(dj[0])
    return Multivector(alg, f_val), Multivector(alg, j_val), float(residual)
