"""Closed-form test fields and the checks that judge cxpt's outputs.

Every field here is built by the benchmark itself, from numpy closed
forms, so the oracle can evaluate it at complex points without going
through cxpt.  The checks compare against identities the method must
satisfy; none of them compares with a stored copy of earlier output.

Tolerances come from the repository's own acceptance criteria and tests
where those state one (criterion 4: moments 1e-6; criterion 7: descent
1e-6; criterion 8: odd/even vs explicit 1e-8; criterion 9: n=3 plane
waves 1e-6, residual 1e-3; criterion 11: Maxwell continuity 1e-4; the
n=2 and n=5 wave tests: 1e-9 and 1e-6), and otherwise from the errors
measured on the unmodified library with a margin noted beside each.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# -- tolerances ---------------------------------------------------------
# f(-iy) for singular_action, relative; measured worst over 12 seeds:
# n=3,4 1.1e-12, n=5 2.6e-7, n=6 1.5e-10.
TOL_SINGULAR = {3: 1e-10, 4: 1e-10, 5: 3e-6, 6: 2e-9}
TOL_REGULARIZED = 3e-6          # f(-iy) at |y| = 1, eps >= 1e-3; measured <= 3.5e-7
TOL_CROSS_FORMULA = 1e-8        # criterion 8
TOL_DESCENT = 1e-6              # criterion 7
TOL_MOMENTS = 1e-6              # criterion 4
TOL_WAVE = {2: 1e-9, 3: 1e-6, 5: 1e-6}   # tests/test_wave.py, criterion 9
TOL_EXTEND = 1e-8               # relative; measured <= 2e-14
TOL_RESIDUAL = 1e-3             # criterion 9
TOL_EBP = 1e-5                  # relative; measured <= 6.2e-7 for |y| in [0.08, 0.12]
TOL_CONTINUITY = 1e-4           # criterion 11
TOL_MAXWELL_FIELD = 1e-8        # relative; measured <= 4e-14
TOL_GAMMA = 1e-12               # criterion 1, relative to max(1, r^2 + a^2)
TOL_POTENTIAL = 1e-12           # relative; measured at rounding level


# -- fields -------------------------------------------------------------
def isotropic(rng: np.random.Generator, n: int) -> np.ndarray:
    """w = u + i v with u, v orthonormal, so w . w = 0 and (w . x)^d is harmonic."""
    q, _ = np.linalg.qr(rng.normal(size=(n, 2)))
    return q[:, 0] + 1j * q[:, 1]


def unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


class Closed:
    """A scalar field on R^n given in closed form, valid at complex points.

    ``value(z)`` takes an (m, n) real or complex array; ``grad(x)`` gives
    the exact (m, n) gradient.  ``harmonic`` says whether f(-iy) is the
    exact action of every extended source with axis y.
    """

    def __init__(self, name, value, grad, harmonic):
        self.name = name
        self.value = value
        self.grad = grad
        self.harmonic = harmonic

    def at(self, z) -> complex:
        return complex(self.value(np.asarray(z)[None, :])[0])


def harmonic_poly(rng: np.random.Generator, n: int) -> Closed:
    """sum_d c_d (w.x)^d + sum_d c'_d (w'.x)^d + b.x, d <= 3, w, w' isotropic."""
    ws = [isotropic(rng, n), isotropic(rng, n)]
    cs = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in ws]
    b = rng.normal(size=n)
    # one real product gives Re/Im of w.x, Re/Im of w'.x and b.x
    cols = np.column_stack([ws[0].real, ws[0].imag, ws[1].real, ws[1].imag, b])

    def projections(z):
        if np.iscomplexobj(z):
            return [z @ ws[0], z @ ws[1]], z @ b
        p = z @ cols
        return [p[:, 0] + 1j * p[:, 1], p[:, 2] + 1j * p[:, 3]], p[:, 4]

    def value(z):
        (s0, s1), lin = projections(z)
        out = lin + 0j
        for s, c in ((s0, cs[0]), (s1, cs[1])):
            out = out + c[0] + s * (c[1] + s * (c[2] + s * c[3]))
        return out

    def grad(x):
        (s0, s1), _ = projections(x)
        out = np.broadcast_to(b + 0j, x.shape).copy()
        for s, w, c in ((s0, ws[0], cs[0]), (s1, ws[1], cs[1])):
            out += (c[1] + s * (2 * c[2] + 3 * s * c[3]))[:, None] * w[None, :]
        return out

    return Closed("harmonic_poly", value, grad, True)


def harmonic_exp(rng: np.random.Generator, n: int) -> Closed:
    """exp(i k.x) with k = kappa (u + i v) isotropic: harmonic, not a polynomial."""
    k = rng.uniform(0.5, 1.0) * isotropic(rng, n)
    cols = np.column_stack([k.real, k.imag])

    def value(z):
        if np.iscomplexobj(z):
            return np.exp(1j * (z @ k))
        p = z @ cols
        return np.exp(-p[:, 1] + 1j * p[:, 0])

    def grad(x):
        return 1j * k[None, :] * value(x)[:, None]

    return Closed("harmonic_exp", value, grad, True)


def gaussian(rng: np.random.Generator, n: int) -> Closed:
    """A exp(-|x - c|^2 / w^2), off-center, not harmonic."""
    c = 0.3 * rng.normal(size=n)
    w = rng.uniform(1.0, 2.0)
    amp = rng.normal() + 1j * rng.normal()

    def value(z):
        d = z - c
        return amp * np.exp(-np.sum(d * d, axis=-1) / w**2)

    def grad(x):
        return (-2.0 / w**2) * (x - c) * value(x)[:, None]

    return Closed("gaussian", value, grad, False)


def plane_wave(k: np.ndarray) -> Closed:
    """exp(i k.x) with real k: Lap f = -|k|^2 f, not harmonic."""
    k = np.asarray(k, dtype=float)

    def value(z):
        return np.exp(1j * (z @ k))

    def grad(x):
        return 1j * k[None, :] * value(x)[:, None]

    return Closed("plane_wave", value, grad, False)


def random_wave_vector(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    return rng.uniform(lo, hi) * unit(rng, n)


def harmonic_quadratic_table(rng: np.random.Generator, n: int) -> dict:
    """Random real combination of 1, x_i, x_i x_j (i < j), x_i^2 - x_{i+1}^2.

    Returned as an exponent table {alpha: c}, the form cxpt's polynomial
    fields and the CLI's ``polynomial:`` spec take.
    """
    def alpha(*axes):
        out = [0] * n
        for k in axes:
            out[k] += 1
        return tuple(out)

    table = {alpha(): rng.normal()}
    for i in range(n):
        table[alpha(i)] = rng.normal()
        for j in range(i + 1, n):
            table[alpha(i, j)] = rng.normal()
    for i in range(n - 1):
        c = rng.normal()
        table[alpha(i, i)] = table.get(alpha(i, i), 0.0) + c
        table[alpha(i + 1, i + 1)] = table.get(alpha(i + 1, i + 1), 0.0) - c
    return table


# -- closed-form references ----------------------------------------------
def point_charge_value(field: Closed, y: np.ndarray) -> complex:
    """f(-iy): the action of a source with axis y on a harmonic field."""
    return field.at(-1j * np.asarray(y, dtype=float))


def plane_wave_solution(k: np.ndarray, x: np.ndarray, t: float) -> complex:
    """Solution for data (e^{ik.x}, e^{ik.x}): e^{ik.x} (cos|k|t + sin(|k|t)/|k|)."""
    kk = float(np.linalg.norm(k))
    return cmath.exp(1j * float(k @ x)) * (math.cos(kk * t) + math.sin(kk * t) / kk)


def harmonic_mode_extension(k: np.ndarray, x: np.ndarray, s: float, t: float) -> complex:
    """exp(i k.x + |k| (s + i t))."""
    return cmath.exp(1j * float(k @ x) + float(np.linalg.norm(k)) * complex(s, t))


def sphere_area(n: int) -> float:
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def holomorphic_potential(x: np.ndarray, y: np.ndarray, n: int) -> complex:
    """gamma^{2-n} / (omega_n (2-n)), gamma = sqrt(r^2 - a^2 + 2i x.y), Re gamma >= 0."""
    gam = cmath.sqrt(complex(float(x @ x) - float(y @ y), 2.0 * float(x @ y)))
    return gam ** (2 - n) / (sphere_area(n) * (2 - n))


def poly_table_value(table: dict, z: np.ndarray) -> complex:
    """sum_alpha c_alpha z^alpha at one complex point."""
    total = 0j
    for alpha, c in table.items():
        term = complex(c)
        for zk, e in zip(z, alpha):
            term *= zk**e
        total += term
    return total


def poly_table_laplacian(table: dict) -> dict:
    out: dict = {}
    for alpha, c in table.items():
        for axis, e in enumerate(alpha):
            if e >= 2:
                beta = tuple(a - 2 if k == axis else a for k, a in enumerate(alpha))
                out[beta] = out.get(beta, 0.0) + c * e * (e - 1)
    return out


def ebp_reference(table: dict, x: np.ndarray, y: np.ndarray) -> complex:
    """Extension of one blade coefficient of a polynomial of degree <= 2 in R^3.

    For such f the source with axis -y placed at x acts as
    f(x + iy) + (a^2 / 2) Lap f: the harmonic part contributes its value
    at the source point, and <delta~, |x|^2> = 2 a^2 in R^3.
    """
    if any(sum(alpha) > 2 for alpha in table):
        raise ValueError("ebp_reference covers polynomials of degree <= 2")
    z = np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float)
    lap = poly_table_value(poly_table_laplacian(table), z)
    return poly_table_value(table, z) + 0.5 * float(y @ y) * lap


# -- checks ---------------------------------------------------------------
def check_close(got, want, tol: float) -> bool:
    """|got - want| <= tol max(1, |want|), elementwise, and finite."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if not np.all(np.isfinite(got)):
        return False
    return bool(np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))


def check_decreasing_errors(values, reference) -> bool:
    """|I_eps - singular| strictly falls as eps falls (values ordered by falling eps)."""
    errs = [abs(v - reference) for v in values]
    return all(np.isfinite(errs)) and all(a > b for a, b in zip(errs, errs[1:]))


def check_gamma(payload: dict, x: np.ndarray, y: np.ndarray) -> bool:
    """p >= 0, p^2 - q^2 = r^2 - a^2, pq = x.y."""
    p, q = payload["p"], payload["q"]
    scale = max(1.0, float(x @ x + y @ y))
    return (p >= 0.0
            and abs(p * p - q * q - float(x @ x - y @ y)) <= TOL_GAMMA * scale
            and abs(p * q - float(x @ y)) <= TOL_GAMMA * scale)
