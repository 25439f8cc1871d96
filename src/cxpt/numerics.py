"""Deterministic quadrature and numerical-differentiation kernels.

Conventions used throughout the library:

* Interval rules are Gauss-Legendre and Gauss-Kronrod; the stored
  reference rule lives on [-1, 1] (weights sum to the interval length 2)
  and is mapped affinely.  ``integrate_interval`` uses one nested rule:
  the Kronrod rule K_{2N+1} on the N Gauss nodes and N + 1 more, whose
  value is K and whose error estimate is |K - G_N|, from one call of the
  integrand.
* Sphere rules carry the *normalized* measure: weights sum to 1 on every
  S^m.  The area factor omega_n = 2 pi^{n/2} / Gamma(n/2) is applied
  explicitly by callers where a formula demands it, never implicitly.
* S^1 means use the trapezoid rule (spectrally accurate for periodic
  integrands); S^m for m >= 2 is built recursively, Gauss-Jacobi polar
  nodes for the weight (1-xi^2)^{(m-2)/2} (Gauss-Legendre on S^2) times
  the rule on S^{m-1}.
* Gauss rules are built here, with numpy alone: one Golub-Welsch step
  (``_gauss``: eigenvalues of the Jacobi matrix, Christoffel weights)
  serves the polar levels, fed by ``_jacobi_recurrence``, and the
  Gauss-Kronrod rules, fed by Laurie's ``_kronrod_recurrence``.  The
  interval Gauss-Legendre rules are numpy's ``leggauss``.
* Summation order within a rule is fixed (ascending node index), so a
  given invocation is bitwise reproducible.
* Integrands and field evaluators are vectorized: ``integrate_interval``
  hands the integrand the array of a rule's nodes in one call.  Errors
  they raise reach the caller unchanged.
* ``sphere_sums`` is the one sphere-mean kernel: rule-weighted sums over
  the spheres ``center + radius * dirs`` for a whole array of radii (and
  centers) at once, handing the field at most ``MAX_POINTS`` points per
  call.  Values may carry a trailing axis, so (m, dim) evaluators give
  (dim,) means, and an (m, q) weight matrix gives q weighted sums (a mean
  and first moments, say) of one evaluation.  ``mean_on_sphere``, the
  source actions' axial means and the wave solver all reach the field
  through it.
* ``fd_stencil`` exposes the distinct nodes and folded weights of the
  stencil ``derivative`` applies, so a caller can evaluate all the nodes
  of several stencils in one batch.
* Importing this module pads glibc's heap (``_pad_heap``), so the
  transients of the sphere-sum chunks reuse memory instead of faulting
  it in afresh; other C libraries are left alone.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    InvalidRadiusError,
    NonFiniteIntegrandError,
    StencilOutOfDomainError,
)

__all__ = [
    "Quadrature",
    "QuadratureRule",
    "KronrodRule",
    "FDScheme",
    "IntervalIntegral",
    "gauss_legendre",
    "gauss_kronrod",
    "circle_rule",
    "sphere_rule",
    "integrate_interval",
    "mean_on_sphere",
    "sphere_sums",
    "point_values",
    "derivative",
    "fd_stencil",
    "partial_derivative",
    "fd_gradient",
    "fd_laplacian",
    "orthonormal_complement_frame",
    "sphere_area",
    "MAX_POINTS",
]

#: Most points handed to one evaluator or gradient call by ``sphere_sums``;
#: bounds the memory of a batch of sphere means (S^4 rules have 20,000 nodes).
MAX_POINTS = 4096


def _pad_heap() -> None:
    """Serve allocations below 4 MiB from the heap and keep 4 MiB free at its top (glibc).

    Every ``sphere_sums`` chunk allocates and frees transients of a few
    hundred KB.  By default glibc maps those afresh (above its 128 KiB
    mmap threshold) or trims them off the heap top, so each chunk faults
    its memory in again: 1,000 pairs of 320 KB arrays cost about 125,000
    minor page faults, and about 100 with this pad.  M_TOP_PAD alone is
    not enough: setting it freezes glibc's self-raising mmap threshold at
    128 KiB.  Other C libraries, whose ``mallopt`` (if any) reads other
    parameter numbers, are left alone.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, OSError, ValueError):  # no confstr, or not glibc
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-2, 4 << 20)  # M_TOP_PAD


_pad_heap()


def sphere_area(n: int) -> float:
    """Area omega_n of the unit sphere S^{n-1} in R^n."""
    if n < 1:
        raise ValueError(f"sphere_area needs n >= 1, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class Quadrature:
    """Quadrature orders of every layer: the four order keys of the config file.

    ``interval_order`` and ``panel_order`` are the Gauss order N of the
    2N+1-node Gauss-Kronrod q-integrals of the singular actions and of the
    regularized action's panels.  ``circle_order`` is the node count of the
    trapezoid rule on S^1, and ``sphere_order`` the polar order of the
    product rules on S^2, S^3 and S^4 (see ``sphere_orders``).
    """

    interval_order: int = 32
    panel_order: int = 16
    circle_order: int = 64
    sphere_order: int = 24

    def sphere_orders(self, dim: int) -> tuple[int, ...]:
        """Per-level node counts of the product rule on S^dim, outermost level first.

        S^1 has ``circle_order`` nodes and S^2 ``sphere_order`` polar nodes
        times twice that many azimuths.  S^3 and S^4 take 7/12 and 5/12 of
        ``sphere_order`` (rounded down) polar nodes per level and a base
        circle of twice that: (14, 14, 28) and (10, 10, 10, 20) at the
        default 24.
        """
        s = self.sphere_order
        if dim == 1:
            return (self.circle_order,)
        if dim == 2:
            return (s, 2 * s)
        if dim in (3, 4):
            polar = (7 if dim == 3 else 5) * s // 12
            return (polar,) * (dim - 1) + (2 * polar,)
        raise ValueError(f"no sphere orders for S^{dim}; pass orders")


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a fixed quadrature rule.

    ``kind`` is one of ``"gauss-legendre"`` or ``"gauss-kronrod"``
    (interval [-1, 1], weights sum to 2), ``"circle-trapezoid"`` (S^1,
    weights sum to 1) or ``"sphere-product"`` (S^m, weights sum to 1).
    ``nodes`` has shape (m,) for intervals and (m, d) with unit rows for
    spheres.
    """

    kind: str
    order: int
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class KronrodRule(QuadratureRule):
    """Gauss-Kronrod rule K_{2N+1} on [-1, 1] with its embedded Gauss rule G_N.

    ``nodes`` ascend, ``weights`` are K's and ``gauss_weights`` are G's on
    the same nodes: zero at the N + 1 Kronrod nodes (even indices), the
    Gauss-Legendre weights at the N Gauss nodes (odd indices).  ``order``
    is the Gauss order N.
    """

    gauss_weights: np.ndarray


class IntervalIntegral(NamedTuple):
    value: complex
    error: float


@dataclass(frozen=True)
class FDScheme:
    """Central finite-difference configuration.

    ``h`` is the base step, ``order`` the stencil accuracy (2 or 4) and
    ``richardson`` enables one extrapolation level (h and h/2).
    """

    h: float = 1e-4
    order: int = 4
    richardson: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"FD step h must be positive and finite, got {self.h}")
        if self.order not in (2, 4):
            raise ValueError("FD accuracy order must be 2 or 4")


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule of the given node count on [-1, 1]."""
    if order < 1:
        raise ValueError("Gauss-Legendre order must be >= 1")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule("gauss-legendre", order, nodes, weights)


def _christoffel(x: np.ndarray, a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    """Weights 1 / Sum_{k < size} p_k(x)^2 of the orthonormal polynomials of (a, b)."""
    prev, p = np.zeros_like(x), np.full_like(x, 1.0 / math.sqrt(b[0]))
    total = p**2
    for k in range(size - 1):
        prev, p = p, ((x - a[k]) * p - math.sqrt(b[k]) * prev) / math.sqrt(b[k + 1])
        total += p**2
    return 1.0 / total


def _jacobi_recurrence(alpha: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (a_k, b_k), k < size, of the monic orthogonal polynomials of (1 - x^2)^alpha.

    p_{k+1} = (x - a_k) p_k - b_k p_{k-1} on [-1, 1]: a_k = 0,
    b_k = k (k + 2 alpha) / ((2k + 2 alpha)^2 - 1) and b_0 the total mass
    sqrt(pi) Gamma(alpha + 1) / Gamma(alpha + 3/2), exactly 2 for Legendre
    (alpha = 0).  alpha = (m - 2) / 2 gives the polar weight of S^m
    (Gegenbauer).
    """
    k = np.arange(1, size, dtype=float)
    b = np.empty(size)
    b[0] = 2.0 if alpha == 0 else (
        math.sqrt(math.pi) * math.gamma(alpha + 1.0) / math.gamma(alpha + 1.5))
    b[1:] = k * (k + 2.0 * alpha) / ((2.0 * k + 2.0 * alpha) ** 2 - 1.0)
    return np.zeros(size), b


def _gauss(a: np.ndarray, b: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule of ``size`` nodes of the recurrence (a, b) (Golub and Welsch).

    The nodes are the eigenvalues of the symmetric Jacobi matrix of the
    first ``size`` coefficients, ascending and made symmetric (the
    recurrences here have a_k = 0), and the weights are the
    ``_christoffel`` numbers; they sum to b_0.
    """
    off = np.sqrt(b[1:size])
    nodes = np.linalg.eigvalsh(np.diag(a[:size]) + np.diag(off, 1) + np.diag(off, -1))
    nodes = 0.5 * (nodes - nodes[::-1])
    return nodes, _christoffel(nodes, a, b, size)


def _kronrod_recurrence(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (a_k, b_k), k <= 2N, of the Jacobi-Kronrod matrix of G_N.

    Laurie's algorithm (Math. Comp. 66, 1997, 1133-1145): the matrix
    shares its first ceil(3N/2) + 1 coefficients with the monic Legendre
    recurrence (``_jacobi_recurrence(0, .)``), and the rest follow from
    the mixed moments s, t of a two-term recurrence.
    """
    n = order
    a, b = np.zeros(2 * n + 1), np.zeros(2 * n + 1)
    shared = math.ceil(3 * n / 2) + 1
    b[:shared] = _jacobi_recurrence(0.0, shared)[1]
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        l = m - k
        s[k + 1] = np.cumsum((a[k + n + 1] - a[l]) * t[k + 1] + b[k + n + 1] * s[k]
                             - b[l] * s[k + 1])
        s, t = t, s
    j = np.arange(n // 2, -1, -1)
    s[j + 1] = s[j]
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        l = m - k
        j = n - 1 - l
        s[j + 1] = np.cumsum(-(a[k + n + 1] - a[l]) * t[j + 1] - b[k + n + 1] * s[j + 1]
                             + b[l] * s[j + 2])
        j, k = j[-1], (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    return a, b


@lru_cache(maxsize=None)
def gauss_kronrod(order: int) -> KronrodRule:
    """Gauss-Kronrod rule of 2N+1 nodes on [-1, 1] around the Gauss rule of N = ``order``.

    K is exact to degree 3N+1 (3N+2 for odd N).  The nodes are the
    eigenvalues of Laurie's Jacobi-Kronrod matrix, made symmetric; each
    weight is 1 / Sum p_k(x)^2 over the matrix's orthonormal polynomials,
    the first N of them for G.
    """
    if order < 1:
        raise ValueError("Gauss-Kronrod order must be >= 1")
    a, b = _kronrod_recurrence(order)
    nodes, weights = _gauss(a, b, 2 * order + 1)
    gauss_weights = np.zeros_like(nodes)
    gauss_weights[1::2] = _christoffel(nodes[1::2], a, b, order)
    for arr in (nodes, weights, gauss_weights):
        arr.setflags(write=False)
    return KronrodRule("gauss-kronrod", order, nodes, weights, gauss_weights)


@lru_cache(maxsize=None)
def circle_rule(order: int) -> QuadratureRule:
    """Uniform (trapezoid) rule on S^1 with normalized weights."""
    if order < 3:
        raise ValueError("circle rule needs at least 3 nodes")
    theta = 2.0 * np.pi * np.arange(order) / order
    nodes = np.column_stack([np.cos(theta), np.sin(theta)])
    weights = np.full(order, 1.0 / order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule("circle-trapezoid", order, nodes, weights)


@lru_cache(maxsize=None)
def sphere_rule(dim: int, orders: tuple[int, ...] | None = None) -> QuadratureRule:
    """Product rule on the unit sphere S^dim with normalized measure.

    ``orders`` gives the per-level node counts, outermost polar level
    first (the last entry is the base circle).  They default to
    ``Quadrature().sphere_orders(dim)``.
    """
    if dim < 1:
        raise ValueError("sphere_rule needs dim >= 1")
    if orders is None:
        orders = Quadrature().sphere_orders(dim)
    if len(orders) != dim:
        raise ValueError(f"S^{dim} needs {dim} order entries, got {orders}")
    if dim == 1:
        return circle_rule(orders[0])
    polar = orders[0]
    if polar < 1 or polar != int(polar):
        raise ValueError(f"polar order must be a positive integer, got {polar}")
    polar = int(polar)
    # Polar measure on S^dim is (1 - xi^2)^{(dim-2)/2} dxi: Gauss-Jacobi nodes.
    xi, wxi = _gauss(*_jacobi_recurrence((dim - 2) / 2.0, polar), polar)
    wxi = wxi / wxi.sum()
    sub = sphere_rule(dim - 1, tuple(orders[1:]))
    sin_pol = np.sqrt(np.clip(1.0 - xi**2, 0.0, None))
    nodes = np.concatenate(
        [
            np.column_stack([s * sub.nodes, np.full(sub.nodes.shape[0], x)])
            for x, s in zip(xi, sin_pol)
        ]
    )
    weights = np.concatenate([w * sub.weights for w in wxi])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule("sphere-product", int(np.prod(orders)), nodes, weights)


def _as_batch_eval(f) -> Callable[[np.ndarray], np.ndarray]:
    """Adapt a TestField-like object or callable to batch point evaluation."""
    fn = f.evaluate if hasattr(f, "evaluate") else f
    return fn


def integrate_interval(
    g: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    order: int = 16,
) -> IntervalIntegral:
    """Gauss-Kronrod integral of ``g`` over [lo, hi] with an error estimate.

    ``g`` receives the array of the 2N+1 nodes of ``gauss_kronrod(order)``
    in one call and must accept it; it returns one value per node or a
    scalar, which is broadcast.  The value is the Kronrod sum K, and the
    error estimate |K - G| against the Gauss rule on every other node.
    """
    if not lo < hi:
        raise ValueError(f"integrate_interval needs lo < hi, got [{lo}, {hi}]")
    rule = gauss_kronrod(order)
    half = 0.5 * (hi - lo)
    x = half * rule.nodes + 0.5 * (hi + lo)
    vals = np.broadcast_to(g(x), x.shape)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteIntegrandError(f"integrand returned a non-finite value on [{lo}, {hi}]")
    value = complex(half * np.dot(rule.weights, vals))
    return IntervalIntegral(value, abs(value - complex(half * np.dot(rule.gauss_weights, vals))))


def sphere_sums(values, centers, radii, dirs: np.ndarray, weights: np.ndarray,
                max_points: int = MAX_POINTS) -> np.ndarray:
    """Rule-weighted sums over ``dirs`` of ``values`` at centers_i + radii_i dirs_j.

    ``radii`` is a 1-D array of k radii and ``centers`` one (n,) center
    or a (k, n) array, one per radius.  The rule is cut into equal slices
    of at most ``max_points`` directions, and the radii into blocks whose
    points fill at most ``max_points`` (never more than ``MAX_POINTS``,
    the default).  ``values(pts, dirs, block)`` gets the (b, s, n) points
    of one block with the slice's directions and the block's slice of the
    k radii, and returns (b, s) or (b, s, dim) values.  The result is a
    complex (k,) or (k, dim) array.

    ``weights`` may also be an (m, q) matrix, one column per weighting of
    the same evaluations (the columns w and w * dirs[:, l] give a mean and
    the first moments); the result is then (k, q) or (k, q, dim).
    """
    radii = np.asarray(radii, dtype=float)
    k = radii.size
    centers = np.asarray(centers, dtype=float)
    cap = min(max_points, MAX_POINTS)
    if weights.ndim == 2:
        # one contiguous row per column, each summed as its own product, so a
        # column sums exactly as a 1-D call with it does
        weights = np.ascontiguousarray(weights.T)
    m = weights.shape[-1]
    per_slice = math.ceil(m / math.ceil(m / cap))
    out = None
    for lo in range(0, m, per_slice):
        part_dirs = dirs[lo:lo + per_slice]
        part_weights = weights[..., lo:lo + per_slice]
        block = cap // part_weights.shape[-1]
        for i in range(0, k, block):
            nodes = slice(i, i + block)
            at = centers if centers.ndim == 1 else centers[nodes, None, :]
            pts = at + radii[nodes, None, None] * part_dirs
            vals = np.asarray(values(pts, part_dirs, nodes))
            if part_weights.ndim == 1:
                # (b, s) @ (s,) -> (b,);  (s,) @ (b, s, dim) -> (b, dim)
                sums = vals @ part_weights if vals.ndim == 2 else part_weights @ vals
            else:
                sums = np.stack([vals @ w if vals.ndim == 2 else w @ vals
                                 for w in part_weights], axis=1)
            if out is None:
                out = np.zeros((k,) + sums.shape[1:], dtype=complex)
            out[nodes] += sums
    return out


def point_values(f):
    """``sphere_sums`` values of a field: f at the flattened points, reshaped back.

    ``f`` is a TestField-like object or a callable taking (m, n) points
    and returning (m,) or (m, dim) values.
    """
    fn = _as_batch_eval(f)

    def values(pts: np.ndarray, dirs: np.ndarray, nodes: slice) -> np.ndarray:
        vals = np.asarray(fn(pts.reshape(-1, pts.shape[-1])))
        return vals.reshape(pts.shape[:2] + vals.shape[1:])

    return values


def mean_on_sphere(
    f,
    center: Sequence[float] | np.ndarray,
    radius: float,
    sphere_dim: int | None = None,
    axis: Sequence[float] | np.ndarray | None = None,
) -> complex:
    """Mean of ``f`` over a sphere, with respect to the unit-mass measure.

    ``sphere_dim`` defaults to the full sphere S^{n-1} about ``center``.
    For ``sphere_dim == n-2`` an ``axis`` vector must be supplied; the
    sphere then lies in the hyperplane through ``center`` orthogonal to
    it.  A zero radius returns ``f(center)``.  ``f`` (a TestField-like
    object or a callable) receives (m, n) arrays of the rule's points
    through ``sphere_sums`` and must accept them.
    """
    center = np.asarray(center, dtype=float)
    n = center.shape[0]
    if sphere_dim is None:
        sphere_dim = n - 1
    if radius < 0:
        raise InvalidRadiusError(f"sphere radius must be >= 0, got {radius}")
    if not 1 <= sphere_dim <= n - 1:
        raise ValueError(f"sphere_dim must be in [1, {n - 1}], got {sphere_dim}")
    rule = sphere_rule(sphere_dim)
    if sphere_dim == n - 1:
        dirs = rule.nodes
    elif sphere_dim == n - 2:
        if axis is None:
            raise ValueError("sphere_dim = n-2 requires an axis vector")
        dirs = rule.nodes @ orthonormal_complement_frame(np.asarray(axis, dtype=float)).T
    else:
        raise ValueError("only full (n-1) and axis-orthogonal (n-2) spheres are supported")
    return complex(sphere_sums(point_values(f), center, [radius], dirs, rule.weights)[0])


# Central stencils: (derivative order, accuracy) -> (offsets, coefficients).
_STENCILS: dict[tuple[int, int], tuple[tuple[int, ...], tuple[float, ...]]] = {
    (1, 2): ((-1, 1), (-0.5, 0.5)),
    (1, 4): ((-2, -1, 1, 2), (1 / 12, -2 / 3, 2 / 3, -1 / 12)),
    (2, 2): ((-1, 0, 1), (1.0, -2.0, 1.0)),
    (2, 4): ((-2, -1, 0, 1, 2), (-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12)),
    (3, 2): ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    (3, 4): ((-3, -2, -1, 1, 2, 3), (1 / 8, -1.0, 13 / 8, -13 / 8, 1.0, -1 / 8)),
    (4, 2): ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
    (4, 4): ((-3, -2, -1, 0, 1, 2, 3), (-1 / 6, 2.0, -13 / 2, 28 / 3, -13 / 2, 2.0, -1 / 6)),
}


def fd_stencil(at: float, scheme: FDScheme | None = None,
               order_of_derivative: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Distinct nodes and weights of ``derivative``'s stencil about ``at``.

    ``weights @ g(nodes)`` equals ``derivative(g, at, scheme,
    order_of_derivative)`` up to rounding: the Richardson combination is
    folded into the weights, and a node shared by both levels (at +- h)
    appears once.
    """
    if scheme is None:
        scheme = FDScheme()
    if not 1 <= order_of_derivative <= 4:
        raise ValueError("order_of_derivative must be in 1..4")
    steps, weights = _folded_stencil(scheme, order_of_derivative)
    return at + steps, weights


@lru_cache(maxsize=None)
def _folded_stencil(scheme: FDScheme, order_of_derivative: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct offsets k h and folded weights of a stencil (at + k h as in ``derivative``)."""
    offsets, coeffs = _STENCILS[(order_of_derivative, scheme.order)]
    if scheme.richardson:
        gain = 2.0**scheme.order
        levels = [(scheme.h, -1.0 / (gain - 1.0)), (scheme.h / 2.0, gain / (gain - 1.0))]
    else:
        levels = [(scheme.h, 1.0)]
    folded: dict[float, float] = {}
    for h, share in levels:
        for k, c in zip(offsets, coeffs):
            folded[k * h] = folded.get(k * h, 0.0) + share * c / h**order_of_derivative
    steps = np.fromiter(folded, dtype=float)
    weights = np.fromiter(folded.values(), dtype=float)
    steps.setflags(write=False)
    weights.setflags(write=False)
    return steps, weights


def derivative(
    g: Callable[[float], complex],
    at: float,
    scheme: FDScheme | None = None,
    order_of_derivative: int = 1,
    domain: tuple[float, float] | None = None,
):
    """Central finite-difference derivative of a scalar-argument function.

    Supports derivative orders 1-4 at accuracy 2 or 4, with one optional
    Richardson level (``scheme.richardson``).  ``g`` may return complex
    scalars or numpy arrays; it is called once per node of ``fd_stencil``.
    ``domain`` bounds, when given, are enforced for every stencil point.
    """
    nodes, weights = fd_stencil(at, scheme, order_of_derivative)
    if domain is not None:
        lo, hi = domain
        if nodes.min() < lo or nodes.max() > hi:
            raise StencilOutOfDomainError(
                f"stencil around {at} (reach {np.abs(nodes - at).max()}) leaves [{lo}, {hi}]"
            )
    return sum(w * g(float(x)) for x, w in zip(nodes, weights))


def partial_derivative(
    func,
    point: Sequence[float] | np.ndarray,
    axis: int,
    scheme: FDScheme | None = None,
    order_of_derivative: int = 1,
):
    """Partial derivative along a coordinate axis of a field on R^n.

    ``func`` is either a TestField-like object (has ``evaluate``) or a
    plain callable accepting a single (n,) point.
    """
    point = np.asarray(point, dtype=float)
    fn = _as_batch_eval(func)

    def g(t: float):
        p = point.copy()
        p[axis] = t
        return fn(p)

    return derivative(g, float(point[axis]), scheme, order_of_derivative)


def fd_gradient(func, point, scheme: FDScheme | None = None) -> np.ndarray:
    """Finite-difference gradient of a scalar field at one point."""
    point = np.asarray(point, dtype=float)
    return np.asarray(
        [partial_derivative(func, point, k, scheme, 1) for k in range(point.size)]
    )


def fd_laplacian(func, point, scheme: FDScheme | None = None):
    """Finite-difference Laplacian (sum of second partials) at one point."""
    point = np.asarray(point, dtype=float)
    total = None
    for k in range(point.size):
        term = partial_derivative(func, point, k, scheme, 2)
        total = term if total is None else total + term
    return total


def orthonormal_complement_frame(axis: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to ``axis``.

    Gram-Schmidt over the standard basis, pivoting on the largest
    |component| of the unit axis first (ties broken by index).  Returns
    an (n, n-1) matrix whose columns span axis-perp.
    """
    axis = np.asarray(axis, dtype=float)
    nrm = np.linalg.norm(axis)
    if nrm == 0.0:
        raise ValueError("axis vector must be nonzero")
    n = axis.size
    yhat = axis / nrm
    order = np.argsort(-np.abs(yhat), kind="stable")
    cols: list[np.ndarray] = []
    for idx in order:
        v = np.zeros(n)
        v[idx] = 1.0
        v -= (v @ yhat) * yhat
        for b in cols:
            v -= (v @ b) * b
        norm_v = np.linalg.norm(v)
        if norm_v > 1e-12:
            cols.append(v / norm_v)
        if len(cols) == n - 1:
            break
    return np.column_stack(cols)
