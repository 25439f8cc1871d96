"""Deterministic quadrature and numerical-differentiation kernels.

Conventions used throughout the library:

* Interval rules are Gauss-Legendre and Gauss-Kronrod; the stored
  reference rule lives on [-1, 1] (weights sum to the interval length 2)
  and is mapped affinely.  ``integrate_interval`` uses one nested rule:
  the Kronrod rule K_{2N+1} on the N Gauss nodes and N + 1 more, whose
  value is K and whose error estimate is |K - G_N|, from one call of the
  integrand for a whole set of panels, each summed as alone.  Every
  interval rule of the library has Gauss order ``INTERVAL_ORDER``, as
  every sphere rule no walk chooses has sphere order ``SPHERE_ORDER``;
  neither is settable.
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
  hands the integrand the array of a rule's nodes on every panel of a
  set in one call.  Errors they raise reach the caller unchanged.
* ``sphere_sums`` is the one sphere-mean kernel: rule-weighted sums over
  the spheres ``center + radius * dirs`` for a whole array of radii (and
  centers) at once, handing the field at most ``MAX_POINTS`` points per
  call.  Values may carry a trailing axis, so (m, dim) evaluators give
  (dim,) means, and an (m, q) weight matrix gives q weighted sums (a mean
  and first moments, say) of one evaluation; values returned as a tuple
  (several fields at the same points, or values and their moduli, as the
  wave solver's passes take them) give a tuple of sums, each with every
  weight column or with its own weighting, which may fold a trailing
  axis (a gradient's sums with w * dirs).  A list of rules takes each
  sphere on all of them in the same calls.  Each sphere is summed as
  alone, whatever shares its call.  ``mean_on_sphere``, the
  source actions' axial means and the wave solver all reach the field
  through it.
* ``walk_ladder`` is the one sphere-rule choice, probe or not: told how
  many spheres its caller samples, it keeps the rule of ``SPHERE_ORDER``
  unprobed when they fit in one ``MAX_POINTS`` call.  Otherwise it walks
  the fixed ladder ``SPHERE_LADDER`` upwards with the caller's probe and
  keeps the first rung that agrees with the next one up (on S^1, the next
  two) to ``U_ROUNDING`` of the field scale.  Where none up to
  ``SPHERE_ORDER`` is kept it climbs on, up to sphere order 48, and keeps
  the top rung when none is.  The source actions, the wave solver's
  batches and ``clifford.extended_borel_pompeiu`` (which always probes)
  choose their rules through it; every other sphere rule is the fixed
  rule of ``SPHERE_ORDER``.
* ``fd_stencil`` exposes the distinct nodes and folded weights of the
  stencil ``derivative`` applies, so a caller can evaluate all the nodes
  of several stencils in one batch.  Every caller names its scheme;
  ``SLOPE_FD`` is the one first derivative of a field without an exact
  one, wherever the library takes it.
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

from .errors import InvalidRadiusError, NonFiniteIntegrandError

__all__ = [
    "QuadratureRule",
    "KronrodRule",
    "FDScheme",
    "SLOPE_FD",
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
    "sphere_levels",
    "walk_ladder",
    "INTERVAL_ORDER",
    "MAX_POINTS",
    "SPHERE_LADDER",
    "SPHERE_ORDER",
    "U_ROUNDING",
]

#: Most points handed to one evaluator or gradient call by ``sphere_sums``;
#: bounds the memory of a batch of sphere means (S^4 rules have 20,000 nodes).
#: The wave solver's passes hand each call whole spheres, up to it divided by
#: the number of components of the field's values.
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


#: Gauss order N of every interval rule: the 2N+1-node Gauss-Kronrod
#: q-integrals and theta-panels of the source actions, and the N-node
#: Gauss-Legendre radii, rays, Duffy square and box faces of ``clifford``.
INTERVAL_ORDER = 16
#: Orders of the rungs of the sphere-rule ladder, lowest first (``sphere_levels``
#: gives a rung's rule on S^dim), and the order of every sphere rule that no
#: walk chooses, the rung a walk stops at for a field that vanishes on every
#: probe.  Its rungs up to ``SPHERE_ORDER`` are sphere orders 6 to 24 in steps of
#: 3; the rest climb for fields that no pair of them resolves.
SPHERE_LADDER = (6, 9, 12, 15, 18, 21, 24, 30, 36, 42, 48)
SPHERE_ORDER = 24
#: Rounding level of a sphere-mean sample (about 450 ulps) in units of the field
#: scale, to which two rungs must agree.
U_ROUNDING = 1e-13


def sphere_levels(dim: int, order: int = SPHERE_ORDER) -> tuple[int, ...]:
    """Per-level node counts of the product rule of ``order`` s on S^dim, outermost first.

    S^1 has 8s/3 nodes and S^2 s polar nodes times twice that many
    azimuths.  S^3 and S^4 take 7/12 and 5/12 of s polar nodes per level
    and a base circle of twice that, all rounded down: (64,), (24, 48),
    (14, 14, 28) and (10, 10, 10, 20) at ``SPHERE_ORDER``.
    """
    if dim == 1:
        return (8 * order // 3,)
    if dim == 2:
        return (order, 2 * order)
    if dim in (3, 4):
        polar = (7 if dim == 3 else 5) * order // 12
        return (polar,) * (dim - 1) + (2 * polar,)
    raise ValueError(f"no sphere orders for S^{dim}; pass orders")


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a fixed quadrature rule.

    ``kind`` is one of ``"gauss-legendre"`` or ``"gauss-kronrod"``
    (interval [-1, 1], weights sum to 2), ``"circle-trapezoid"`` (S^1,
    weights sum to 1), ``"sphere-product"`` (S^m, weights sum to 1) or
    ``"sphere-folded"`` (the upper half of an S^2 rule, weights sum to 1).
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


#: The one first-derivative stencil of a field that has no exact derivative:
#: the source actions' slopes, the s-derivative of an extension's Cauchy data
#: and the Dirac derivative of a field without a polynomial table (4 nodes).
SLOPE_FD = FDScheme(h=1e-3, order=4, richardson=False)


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
    ``sphere_levels(dim)``, the rule of ``SPHERE_ORDER``.
    """
    if dim < 1:
        raise ValueError("sphere_rule needs dim >= 1")
    if orders is None:
        orders = sphere_levels(dim)
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


@lru_cache(maxsize=None)
def _folded_rule(orders: tuple[int, ...]) -> QuadratureRule:
    """``sphere_rule(2, orders)`` folded about its polar axis, for fields even in it.

    A field that depends on the polar coordinate xi of S^2 only through |xi|
    (lifted data, constant in the lifted coordinate) takes one value at the
    nodes of the levels xi and -xi, which share their other coordinates.
    The fold keeps the levels xi > 0 at doubled weight, and the level
    xi = 0 of an odd polar count once: half the nodes, and the same sums up
    to rounding.  Hadamard descent samples its lifted spheres on it: the
    n = 2 wave solver, which drops xi and evaluates the data on the unit
    disk, and ``source.descent_check``.
    """
    rule = sphere_rule(2, orders)
    xi = rule.nodes[:, 2]
    upper = xi >= 0.0
    nodes = rule.nodes[upper]
    weights = np.where(xi[upper] > 0.0, 2.0, 1.0) * rule.weights[upper]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule("sphere-folded", rule.order, nodes, weights)


def walk_ladder(dim: int, probe, noise=1.0, spheres: int | None = None):
    """The first rung of the sphere-rule ladder on S^dim whose probe agrees with the next rungs'.

    ``spheres`` is the number of spheres the caller will sample on the rule
    kept.  When that many spheres of the rule of ``SPHERE_ORDER`` fit in
    one ``MAX_POINTS`` call, a probe would cost more than it saves: the
    walk keeps that rule unprobed and returns it with a payload of None
    and 0.  Without ``spheres`` it always walks.

    The rungs are the rules of ``SPHERE_LADDER`` on S^dim (``sphere_levels``),
    lowest first.  ``probe(orders)`` returns (sums, size, payload): probe
    sums on the rule of those orders, one row per sphere and one column per
    quantity, a size of the field there (a mean of |f|, say), and whatever
    the caller wants back from the rung it keeps, such as the sums
    themselves for reuse.  The field scale is the largest size and |sum|
    probed so far.  Walking upwards, a higher rung agrees with rung i when
    every column of |sums - sums_i| is within ``U_ROUNDING`` times
    ``noise`` (per column, or one number) times the scale; the walk keeps
    rung i once rung i + 1 agrees with it, and probes a rung only when it
    reaches it.  On S^1 rung i also needs rung i + 2 to agree: its
    equispaced rungs alias shared Fourier modes (16 and 24 nodes both take
    the mode 48 for a constant), so one agreeing pair may both be wrong.
    A field whose scale is still 0 at the rung of ``SPHERE_ORDER`` keeps
    that rung, probed no higher.

    Returns the orders of the rung kept, its probe's payload and 0, or,
    when no rung is kept, the top rung, its payload and the largest
    disagreement, in units of the scale, of the last rung checked with the
    rungs above it (the top pair's, off S^1).
    """
    if spheres is not None and spheres * math.prod(sphere_levels(dim)) <= MAX_POINTS:
        return sphere_levels(dim), None, 0.0
    checks = 2 if dim == 1 else 1   # higher rungs that must agree with a rung kept
    tolerance = U_ROUNDING * np.asarray(noise)
    scale, rungs = 0.0, []
    for order in SPHERE_LADDER:
        orders = sphere_levels(dim, order)
        sums, size, payload = probe(orders)
        scale = max(scale, size, float(np.abs(sums).max()))
        rungs = (rungs + [(orders, sums, payload)])[-1 - checks:]
        if len(rungs) > checks:
            kept, low, kept_payload = rungs[0]
            gap = np.max([np.abs(high - low).max(axis=0) for _, high, _ in rungs[1:]], axis=0)
            if scale > 0.0 and np.all(gap <= tolerance * scale):
                return kept, kept_payload, 0.0
        if scale == 0.0 and order == SPHERE_ORDER:
            return orders, payload, 0.0
    return orders, payload, float(gap.max()) / scale


def _check_finite(**values) -> None:
    """Raise ``ValueError`` naming the first argument with an entry that is not finite."""
    if np.isfinite(np.concatenate([np.ravel(value) for value in values.values()])).all():
        return
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {np.asarray(value).tolist()}")


def _as_batch_eval(f) -> Callable[[np.ndarray], np.ndarray]:
    """Adapt a TestField-like object or callable to batch point evaluation."""
    fn = f.evaluate if hasattr(f, "evaluate") else f
    return fn


def integrate_interval(
    g: Callable[[np.ndarray], np.ndarray],
    lo: float | np.ndarray,
    hi: float | np.ndarray,
    order: int = INTERVAL_ORDER,
) -> IntervalIntegral | list[IntervalIntegral]:
    """Gauss-Kronrod integrals of ``g`` over [lo, hi] with error estimates.

    ``lo`` and ``hi`` are numbers, one panel, or equal-length 1-D arrays of
    panel ends.  ``g`` receives, in one call, the 1-D array of the 2N+1
    nodes of ``gauss_kronrod(order)`` on every panel, panel after panel,
    and must accept it; it returns one value per node or a scalar, which
    is broadcast.  A panel's value is the Kronrod sum K, and its error
    estimate |K - G| against the Gauss rule on every other node.  Each
    panel is summed with its own products, so it is, bit for bit, what a
    call with that panel alone gives.  Returns one ``IntervalIntegral``
    for numbers and a list of them, one per panel, for arrays.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if lo.shape != hi.shape or lo.ndim > 1:
        raise ValueError("integrate_interval needs lo and hi as numbers or equal-length "
                         f"1-D arrays, got shapes {lo.shape} and {hi.shape}")
    batch = lo.ndim == 1
    lo, hi = np.atleast_1d(lo, hi)
    bad = np.flatnonzero(~(lo < hi))
    if bad.size:
        raise ValueError(f"integrate_interval needs lo < hi, got [{lo[bad[0]]}, {hi[bad[0]]}]")
    rule = gauss_kronrod(order)
    half = 0.5 * (hi - lo)
    x = half[:, None] * rule.nodes + (0.5 * (hi + lo))[:, None]
    vals = np.broadcast_to(g(x.ravel()), x.size).reshape(x.shape)
    bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))
    if bad.size:
        raise NonFiniteIntegrandError(
            f"integrand returned a non-finite value on [{lo[bad[0]]}, {hi[bad[0]]}]")
    parts = []
    for h, row in zip(half, vals):
        # one product per panel and rule: a shared matrix product would move bits
        value = complex(h * np.dot(rule.weights, row))
        gauss = complex(h * np.dot(rule.gauss_weights, row))
        parts.append(IntervalIntegral(value, abs(value - gauss)))
    return parts if batch else parts[0]


def _sphere_product(vals: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One product a sphere: (b, 1, s) @ (s,) -> (b, 1) for (b, s) values, and
    (s,) @ (b, s, dim) -> (b, dim) for (b, s, dim) values."""
    return (vals[:, None] @ w)[:, 0] if vals.ndim == 2 else w @ vals


def _folded_product(vals: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One product a sphere of (b, s, d) values and (s, d) weights, summed over s and d:
    (b, 1, s d) @ (s d,) -> (b,), on the (re, im) pairs of complex values, so that
    the real weights are not cast to complex."""
    flat = vals.reshape(vals.shape[0], -1)
    if not np.iscomplexobj(flat):
        return _sphere_product(flat, w.reshape(-1))
    pairs = w.reshape(-1) @ flat.view(flat.real.dtype).reshape(flat.shape + (2,))
    return pairs[:, 0] + 1j * pairs[:, 1]


def _rows(weights):
    """A weighting with a matrix's columns as contiguous rows, each summed as its own
    product, so that a column sums exactly as a 1-D call with it does."""
    if isinstance(weights, tuple) or weights.ndim == 1:
        return weights
    return np.ascontiguousarray(weights.T)


def _cut(weights, lo: int, hi: int):
    """Directions lo to hi of a weighting: a vector, rows of columns or a tuple of
    vectors and folds."""
    if isinstance(weights, tuple):
        return tuple(w[lo:hi] for w in weights)
    return weights[..., lo:hi]


def sphere_sums(values, centers, radii, dirs, weights, max_points: int = MAX_POINTS):
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
    ``values`` may also return a tuple of such arrays (several fields at
    the same points, or values and their moduli); the result is then the
    tuple of their sums, each array taking every weight column, or, when
    ``weights`` is a tuple too, its own entry of it: a vector, or an
    (m, d) fold for (b, s, d) values, whose sums also run over d (a
    gradient's (b,) sums with w * dirs, say).

    ``dirs`` and ``weights`` may also be lists, one entry per rule, and
    the result is the list of the rules' results.  When a sphere on every
    rule fits in ``max_points`` points, each block holds its spheres on
    all the rules, in the same calls; otherwise each rule takes its own.

    Each array is summed one sphere at a time, with one product per
    sphere, weight column and rule, so a sphere's sums are, bit for bit,
    those of a call with that sphere alone on that rule alone and the same
    ``max_points``: they do not depend on which spheres or rules share
    its calls.
    """
    radii = np.asarray(radii, dtype=float)
    k = radii.size
    centers = np.asarray(centers, dtype=float)
    cap = min(max_points, MAX_POINTS)
    rules = isinstance(dirs, list)
    if rules and (len(dirs) == 1 or sum(len(d) for d in dirs) > cap):
        # a lone rule, or rules that one call cannot hold a sphere of: each its own calls
        return [sphere_sums(values, centers, radii, d, w, max_points)
                for d, w in zip(dirs, weights)]
    out: list[list[np.ndarray]] = [[] for _ in dirs] if rules else [[]]
    if rules:   # one slice holds every rule, each in its own run of its directions
        joined, runs, lo = np.concatenate(dirs), [], 0
        for found, d, w in zip(out, dirs, weights):
            runs.append((found, slice(lo, lo + len(d)), _rows(w)))
            lo += len(d)
    else:       # a lone rule, which may be cut into slices
        joined, weights = dirs, _rows(weights)
    m = joined.shape[0]
    per_slice = math.ceil(m / math.ceil(m / cap))
    for lo in range(0, m, per_slice):
        part_dirs = joined[lo:lo + per_slice]
        pieces = runs if rules else [(out[0], None, _cut(weights, lo, lo + per_slice))]
        block = cap // part_dirs.shape[0]
        for i in range(0, k, block):
            nodes = slice(i, i + block)
            at = centers if centers.ndim == 1 else centers[nodes, None, :]
            # a block's values are let go before the next block's are made
            lone = _add_sums(values(at + radii[nodes, None, None] * part_dirs, part_dirs, nodes),
                             pieces, nodes, k)
    if rules:
        return [sums[0] if lone else tuple(sums) for sums in out]
    return out[0][0] if lone else tuple(out[0])


def _add_sums(got, pieces: list, nodes: slice, k: int) -> bool:
    """Add one block's sums to each rule's list of sums in ``pieces``, from its run of
    the block (all of it when None) with its weights there; returns whether
    ``values`` gave one array rather than a tuple."""
    lone = not isinstance(got, tuple)
    for j, vals in enumerate((got,) if lone else got):
        vals = np.asarray(vals)
        for found, run, w in pieces:
            part = vals if run is None else vals[:, run]
            if isinstance(w, tuple):    # this array's own weighting: a vector or a fold
                w = w[j]
                sums = _sphere_product(part, w) if w.ndim == 1 else _folded_product(part, w)
            elif w.ndim == 1:
                sums = _sphere_product(part, w)
            else:
                sums = np.stack([_sphere_product(part, c) for c in w], axis=1)
            if j == len(found):
                found.append(np.zeros((k,) + sums.shape[1:], dtype=complex))
            found[j][nodes] += sums
    return lone


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
    through ``sphere_sums`` and must accept them.  ``center`` and ``radius``
    must be finite.
    """
    center = np.asarray(center, dtype=float)
    _check_finite(center=center, radius=radius)
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


def fd_stencil(at: float, scheme: FDScheme,
               order_of_derivative: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Distinct nodes and weights of ``derivative``'s stencil about ``at``.

    ``weights @ g(nodes)`` equals ``derivative(g, at, scheme,
    order_of_derivative)`` up to rounding: the Richardson combination is
    folded into the weights, and a node shared by both levels (at +- h)
    appears once.
    """
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


def derivative(g: Callable[[float], complex], at: float, scheme: FDScheme,
               order_of_derivative: int = 1):
    """Central finite-difference derivative of a scalar-argument function.

    Supports derivative orders 1-4 at accuracy 2 or 4, with one optional
    Richardson level (``scheme.richardson``).  ``g`` may return complex
    scalars or numpy arrays; it is called once per node of ``fd_stencil``.
    """
    nodes, weights = fd_stencil(at, scheme, order_of_derivative)
    return sum(w * g(float(x)) for x, w in zip(nodes, weights))


def partial_derivative(
    func,
    point: Sequence[float] | np.ndarray,
    axis: int,
    scheme: FDScheme,
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


def fd_gradient(func, point, scheme: FDScheme) -> np.ndarray:
    """Finite-difference gradient of a scalar field at one point."""
    point = np.asarray(point, dtype=float)
    return np.asarray(
        [partial_derivative(func, point, k, scheme, 1) for k in range(point.size)]
    )


def fd_laplacian(func, point, scheme: FDScheme):
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
