"""Built-in test fields and the declarative field-spec catalog.

A ``TestField`` bundles a batch evaluator R^n -> C with a declared
smoothness order and an optional exact gradient.  All built-ins are
C-infinity and carry exact gradients where cheap, so finite-difference
kernels can be validated against them.

Polynomials have one evaluator, ``poly_eval``'s: the monomials of the
union of a set of exponent tables are built once per call, one product
per degree, and every table is a column of one coefficient matrix, so a
polynomial's value and partials, or a multivector field's blades
(``clifford.poly_field``), come from one matrix product.  ``polynomial``
and ``clifford.MultivectorField`` build that matrix (``_PolyMatrix``)
with the field.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import Callable, Mapping, NamedTuple, Sequence

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
        return TestField(
            evaluator=lambda pts: np.asarray(self.evaluator(pts))
            + np.asarray(other.evaluator(pts)),
            smoothness=min(self.smoothness, other.smoothness),
            gradient=grad,
            name=f"{self.name}+{other.name}",
        )


def _lift(f: TestField, window: float) -> TestField:
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


class _PolyMatrix(NamedTuple):
    """Polynomials on R^n evaluated together, one column each.

    ``degrees`` builds their monomials, lowest degree first from the constant
    1 at row 0: each (lo, hi, parents, axes) entry gives rows lo:hi as the
    rows ``parents`` times the coordinates ``axes``.  ``real`` and ``imag``
    are the (monomials, polynomials) coefficient matrix, split so that the
    real monomials take real products (``imag`` is None for real ones).
    """

    degrees: list[tuple[int, int, np.ndarray, np.ndarray]]
    real: np.ndarray
    imag: np.ndarray | None


def _lowered(alpha: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(k, alpha - e_k) for the first nonzero exponent k of alpha."""
    k = next(k for k, e in enumerate(alpha) if e)
    return k, alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]


def _poly_matrix(tables: Sequence[Mapping[tuple[int, ...], complex]], n: int) -> _PolyMatrix:
    """The ``_PolyMatrix`` of exponent tables on R^n, one column per table.

    Its monomials are the union of the tables' exponents, closed under
    ``_lowered``, so that each is its parent's times one coordinate.
    """
    closed, todo = {(0,) * n}, list(set().union(*tables))
    while todo:
        alpha = todo.pop()
        if alpha not in closed:
            closed.add(alpha)
            todo.append(_lowered(alpha)[1])
    exponents = sorted(closed, key=lambda alpha: (sum(alpha), alpha))
    row = {alpha: i for i, alpha in enumerate(exponents)}
    degrees, lo = [], 1
    for _, same_degree in groupby(exponents[1:], key=sum):
        axes, parents = zip(*map(_lowered, same_degree))
        degrees.append((lo, lo + len(axes), np.array([row[p] for p in parents], dtype=np.intp),
                        np.array(axes, dtype=np.intp)))
        lo += len(axes)
    coeffs = np.zeros((len(exponents), len(tables)), dtype=complex)
    for j, table in enumerate(tables):
        for alpha, c in table.items():
            coeffs[row[alpha], j] = c
    return _PolyMatrix(degrees, coeffs.real.copy(),
                       coeffs.imag.copy() if coeffs.imag.any() else None)


def _poly_values(matrix: _PolyMatrix, pts: np.ndarray) -> np.ndarray:
    """(m, q) values of a ``_PolyMatrix`` at an (m, n) point array.

    The monomials are built once, one product per degree, and all
    polynomials are one product of them with the real and one with the
    imaginary coefficients.
    """
    monomials = np.empty((matrix.real.shape[0], pts.shape[0]))
    monomials[0] = 1.0
    coordinates = pts.T
    for lo, hi, parents, axes in matrix.degrees:
        np.multiply(monomials[parents], coordinates[axes], out=monomials[lo:hi])
    out = np.empty((pts.shape[0], matrix.real.shape[1]), dtype=complex)
    out.real = monomials.T @ matrix.real
    out.imag = 0.0 if matrix.imag is None else monomials.T @ matrix.imag
    return out


def poly_eval(table: Mapping[tuple[int, ...], complex], pts: np.ndarray) -> np.ndarray:
    """sum_alpha c_alpha x^alpha at an (m, n) point array, from an exponent table.

    The one polynomial evaluator: the table's ``_PolyMatrix`` evaluated by
    ``_poly_values``.  ``polynomial`` fields and the polynomial multivector
    fields of ``clifford`` store the matrix of their tables when they are
    built, so each call takes every value and partial, or every blade, from
    one set of monomials.  Its rounding is within about 1e-15 of
    sum_alpha |c_alpha x^alpha|.
    """
    pts = np.asarray(pts, dtype=float)
    return _poly_values(_poly_matrix([table], pts.shape[1]), pts)[:, 0]


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

    values = _poly_matrix([table], n)
    partials = _poly_matrix([poly_diff(table, axis) for axis in range(n)], n)

    def ev(pts: np.ndarray) -> np.ndarray:
        return _poly_values(values, pts)[:, 0]

    def grad(pts: np.ndarray) -> np.ndarray:
        return _poly_values(partials, pts)

    return TestField(evaluator=ev, gradient=grad, name=f"poly({len(table)} terms)")


def gaussian(width: float = 1.0, center: Sequence[float] | None = None,
             amplitude: complex = 1.0) -> TestField:
    """amplitude * exp(-|x - center|^2 / width^2); width^2 must be positive and finite."""
    if not 0 < width * width < math.inf:
        raise ValueError(f"gaussian width^2 must be positive and finite, got width {width}")
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

    return TestField(evaluator=ev, name=f"bump(R={radius})")


@dataclass(frozen=True)
class FieldSpec:
    """Declarative description of a built-in field family.

    Families: ``constant``, ``coordinate(index)``, ``polynomial`` (term
    table), ``gaussian(width)``, ``plane_wave(k)``.
    """

    family: str
    params: tuple = field(default_factory=tuple)

    def to_field(self, n: int) -> TestField:
        """The field on R^n.

        Raises ``ValueError``, naming the spec, unless the parameter count
        fits the family and every parameter is a finite number: an integral
        coordinate index in range, a positive gaussian width whose square is
        finite and nonzero, and non-negative integer polynomial exponents.
        """
        try:
            return self._field(n)
        except ValueError as exc:
            raise ValueError(f"field spec {self.family}{list(self.params)}: {exc}") from None

    def _field(self, n: int) -> TestField:
        if self.family == "polynomial":
            for alpha, c in self.params:
                if not all(e >= 0 and e == int(e) for e in alpha):
                    raise ValueError(f"exponents {alpha} must be non-negative integers")
                if not cmath.isfinite(c):
                    raise ValueError(f"coefficient {c} must be finite")
            return polynomial(n, dict(self.params))
        counts = {"constant": (0, 1), "coordinate": (1, 1), "gaussian": (0, 1),
                  "plane_wave": (n, n)}
        if self.family not in counts:
            raise ValueError(f"unknown or non-scalar field family {self.family!r}")
        least, most = counts[self.family]
        if not least <= len(self.params) <= most:
            count = most if least == most else f"at most {most}"
            raise ValueError(f"{self.family} takes {count} parameter(s) on R^{n}")
        if not all(math.isfinite(p) for p in self.params):
            raise ValueError("parameters must be finite")
        if self.family == "constant":
            return constant(self.params[0] if self.params else 1.0)
        if self.family == "coordinate":
            idx = self.params[0]
            if idx != int(idx) or not 0 <= idx < n:
                raise ValueError(f"coordinate index must be an integer in [0, {n}), got {idx}")
            return coordinate(int(idx))
        if self.family == "gaussian":
            width = self.params[0] if self.params else 1.0
            if not width > 0:
                raise ValueError(f"gaussian width must be positive, got {width}")
            return gaussian(width)
        return plane_wave(np.asarray(self.params, dtype=float))


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
