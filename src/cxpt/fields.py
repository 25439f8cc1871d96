"""Built-in test fields and the declarative field-spec catalog.

A ``TestField`` bundles a batch evaluator R^n -> C with a declared
smoothness order, an optional exact gradient and an optional support
radius.  All built-ins are C-infinity and carry exact gradients where
cheap, so finite-difference kernels can be validated against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "TestField",
    "FieldSpec",
    "constant",
    "coordinate",
    "polynomial",
    "poly_eval",
    "poly_diff",
    "gaussian",
    "plane_wave",
    "cosine_wave",
    "bump",
    "parse_field_spec",
]

Evaluator = Callable[[np.ndarray], np.ndarray]


def _single(values) -> complex | np.ndarray:
    """Row 0 of a batch result: a complex scalar, or the row of an array-valued field."""
    row = np.asarray(values)[0]
    return complex(row) if row.ndim == 0 else row


@dataclass(frozen=True)
class TestField:
    """Scalar-valued field on R^n with declared smoothness.

    ``evaluator`` maps an (m, n) point array to an (m,) complex array
    (a single (n,) point is also accepted by ``evaluate``).  The wave
    solver also accepts array-valued evaluators returning (m, dim) rows.
    """

    __test__ = False  # not a pytest collection target

    evaluator: Evaluator
    smoothness: float = math.inf
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    support_radius: float | None = None
    name: str = ""

    def evaluate(self, points: np.ndarray):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            return _single(self.evaluator(pts[None, :]))
        return np.asarray(self.evaluator(pts))

    __call__ = evaluate

    def gradient_at(self, points: np.ndarray) -> np.ndarray:
        if self.gradient is None:
            raise ValueError(f"field {self.name!r} carries no exact gradient")
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            return np.asarray(self.gradient(pts[None, :]))[0]
        return np.asarray(self.gradient(pts))

    def shifted(self, x0: Sequence[float]) -> "TestField":
        """Field x -> f(x + x0)."""
        x0 = np.asarray(x0, dtype=float)
        grad = None
        if self.gradient is not None:
            grad = lambda pts: self.gradient(pts + x0)  # noqa: E731
        return replace(
            self,
            evaluator=lambda pts: self.evaluator(pts + x0),
            gradient=grad,
            support_radius=None,
            name=f"{self.name}@shift",
        )

    def scaled(self, c: complex) -> "TestField":
        grad = None
        if self.gradient is not None:
            grad = lambda pts: c * self.gradient(pts)  # noqa: E731
        return replace(
            self,
            evaluator=lambda pts: c * np.asarray(self.evaluator(pts)),
            gradient=grad,
            name=f"{c}*{self.name}",
        )

    def __add__(self, other: "TestField") -> "TestField":
        grad = None
        if self.gradient is not None and other.gradient is not None:
            grad = lambda pts: self.gradient(pts) + other.gradient(pts)  # noqa: E731
        sup = None
        if self.support_radius is not None and other.support_radius is not None:
            sup = max(self.support_radius, other.support_radius)
        return TestField(
            evaluator=lambda pts: np.asarray(self.evaluator(pts))
            + np.asarray(other.evaluator(pts)),
            smoothness=min(self.smoothness, other.smoothness),
            gradient=grad,
            support_radius=sup,
            name=f"{self.name}+{other.name}",
        )


def _lift(f: TestField, window: float = math.inf) -> TestField:
    """f(x) on the slab |s| <= ``window`` of R^{n+1} (points (x, s)) and 0 outside,
    with gradient [grad f(x), 0] there (0 outside) when f has one."""

    def windowed(pts: np.ndarray, vals: np.ndarray) -> np.ndarray:
        outside = np.abs(pts[:, -1]) > window
        if not outside.any():   # no copy when the slab holds every point
            return vals
        return np.where(outside.reshape(outside.shape + (1,) * (vals.ndim - 1)), 0.0, vals)

    def grad(pts: np.ndarray) -> np.ndarray:
        g = windowed(pts, f.gradient_at(pts[:, :-1]))
        return np.concatenate([g, np.zeros((g.shape[0], 1), dtype=g.dtype)], axis=1)

    return TestField(evaluator=lambda pts: windowed(pts, f.evaluate(pts[:, :-1])),
                     smoothness=f.smoothness, gradient=None if f.gradient is None else grad,
                     name=f"lift[{f.name}]")


def constant(c: complex = 1.0) -> TestField:
    return TestField(
        evaluator=lambda pts: np.full(pts.shape[0], complex(c)),
        gradient=lambda pts: np.zeros_like(pts, dtype=complex),
        name=f"constant({c})",
    )


def coordinate(index: int) -> TestField:
    def grad(pts: np.ndarray) -> np.ndarray:
        g = np.zeros_like(pts, dtype=complex)
        g[:, index] = 1.0
        return g

    return TestField(
        evaluator=lambda pts: pts[:, index].astype(complex),
        gradient=grad,
        name=f"x[{index}]",
    )


def poly_eval(table: Mapping[tuple[int, ...], complex], pts: np.ndarray) -> np.ndarray:
    """sum_alpha c_alpha x^alpha at an (m, n) point array, from an exponent table."""
    out = np.zeros(pts.shape[0], dtype=complex)
    for alpha, c in table.items():
        term = np.full(pts.shape[0], complex(c))
        for k, e in enumerate(alpha):
            if e:
                term = term * pts[:, k] ** e
        out += term
    return out


def poly_diff(table: Mapping[tuple[int, ...], complex],
              axis: int) -> dict[tuple[int, ...], complex]:
    """Exponent table of the partial derivative along ``axis``."""
    out: dict[tuple[int, ...], complex] = {}
    for alpha, c in table.items():
        e = alpha[axis]
        if not e:
            continue
        beta = tuple(a - 1 if k == axis else a for k, a in enumerate(alpha))
        out[beta] = out.get(beta, 0.0) + c * e
    return out


def polynomial(n: int, coeffs: Mapping[tuple[int, ...], complex]) -> TestField:
    """Multivariate polynomial sum_alpha c_alpha x^alpha on R^n."""
    table = {tuple(k): complex(v) for k, v in coeffs.items()}
    for alpha in table:
        if len(alpha) != n:
            raise ValueError(f"exponent tuple {alpha} does not match n={n}")

    def ev(pts: np.ndarray) -> np.ndarray:
        return poly_eval(table, pts)

    partials = [poly_diff(table, axis) for axis in range(n)]

    def grad(pts: np.ndarray) -> np.ndarray:
        return np.stack([poly_eval(partial, pts) for partial in partials], axis=1)

    return TestField(evaluator=ev, gradient=grad, name=f"poly({len(table)} terms)")


def gaussian(width: float = 1.0, center: Sequence[float] | None = None,
             amplitude: complex = 1.0) -> TestField:
    """amplitude * exp(-|x - center|^2 / width^2)."""
    c0 = None if center is None else np.asarray(center, dtype=float)

    def ev(pts: np.ndarray) -> np.ndarray:
        d = pts if c0 is None else pts - c0
        return amplitude * np.exp(-np.sum(d**2, axis=-1) / width**2).astype(complex)

    def grad(pts: np.ndarray) -> np.ndarray:
        d = pts if c0 is None else pts - c0
        return (-2.0 / width**2) * d * ev(pts)[:, None]

    return TestField(evaluator=ev, gradient=grad, name=f"gaussian(w={width})")


def plane_wave(k: Sequence[float]) -> TestField:
    """exp(i k.x)."""
    kv = np.asarray(k, dtype=float)

    def ev(pts: np.ndarray) -> np.ndarray:
        return np.exp(1j * (pts @ kv))

    return TestField(
        evaluator=ev,
        gradient=lambda pts: 1j * kv[None, :] * ev(pts)[:, None],
        name=f"plane_wave(k={kv.tolist()})",
    )


def cosine_wave(k: Sequence[float]) -> TestField:
    """cos(k.x) (real standing wave)."""
    kv = np.asarray(k, dtype=float)
    return TestField(
        evaluator=lambda pts: np.cos(pts @ kv).astype(complex),
        gradient=lambda pts: -kv[None, :] * np.sin(pts @ kv)[:, None].astype(complex),
        name=f"cosine_wave(k={kv.tolist()})",
    )


def bump(radius: float = 1.0, center: Sequence[float] | None = None,
         amplitude: complex = 1.0) -> TestField:
    """Smooth bump exp(1 - 1/(1 - |x-c|^2/R^2)) supported in |x-c| <= R."""
    c0 = None if center is None else np.asarray(center, dtype=float)

    def ev(pts: np.ndarray) -> np.ndarray:
        d = pts if c0 is None else pts - c0
        t = np.sum(d**2, axis=-1) / radius**2
        out = np.zeros(pts.shape[0], dtype=complex)
        inside = t < 1.0
        out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - t[inside]))
        return out

    sup = radius
    if c0 is not None:
        sup = radius + float(np.linalg.norm(c0))
    return TestField(evaluator=ev, support_radius=sup, name=f"bump(R={radius})")


@dataclass(frozen=True)
class FieldSpec:
    """Declarative description of a built-in field family.

    Families: ``constant``, ``coordinate(index)``, ``polynomial`` (term
    table), ``gaussian(width)``, ``plane_wave(k)``.
    """

    family: str
    params: tuple = field(default_factory=tuple)

    def to_field(self, n: int) -> TestField:
        if self.family == "constant":
            return constant(self.params[0] if self.params else 1.0)
        if self.family == "coordinate":
            idx = int(self.params[0])
            if not 0 <= idx < n:
                raise ValueError(f"coordinate index {idx} out of range for n={n}")
            return coordinate(idx)
        if self.family == "gaussian":
            return gaussian(float(self.params[0]) if self.params else 1.0)
        if self.family == "plane_wave":
            kv = np.asarray(self.params, dtype=float)
            if kv.size != n:
                raise ValueError(f"plane_wave needs a {n}-vector, got {kv.size}")
            return plane_wave(kv)
        if self.family == "polynomial":
            return polynomial(n, dict(self.params))
        raise ValueError(f"unknown or non-scalar field family {self.family!r}")


def parse_field_spec(text: str) -> FieldSpec:
    """Parse CLI field syntax ``family`` or ``family:p1,p2,...``.

    Examples: ``constant:1``, ``coordinate:2``, ``gaussian:0.5``,
    ``plane_wave:1,0,0``, ``polynomial:0,0,0=1;1,0,0=0.5``.
    """
    name, _, rest = text.partition(":")
    name = name.strip()
    if name == "polynomial":
        # term syntax: "e1 e2 ... en=c" joined by ';', e.g. "0,0,0=1;1,0,0=0.5"
        terms = []
        for chunk in rest.split(";"):
            if not chunk.strip():
                continue
            expo, _, cval = chunk.partition("=")
            alpha = tuple(int(t) for t in expo.split(","))
            terms.append((alpha, complex(cval)))
        return FieldSpec("polynomial", tuple(terms))
    params = tuple(float(t) for t in rest.split(",") if t.strip()) if rest else ()
    return FieldSpec(name, params)
