"""Acceptance suite: every verification criterion as a callable check.

Each criterion returns a :class:`CriterionResult` with one pass/fail
line; ``run_acceptance`` executes a selection and is what both the
``verify`` CLI subcommand and the pytest acceptance module drive.  All
randomness is seeded, so repeated runs are identical.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import clifford as cf
from . import source as src
from . import wave as wv
from .fields import (
    TestField,
    bump,
    constant,
    cosine_wave,
    gaussian,
    plane_wave,
    poly_diff,
    polynomial,
)
from .geometry import ComplexPoint, complex_distance, grad_pq
from .numerics import FDScheme, fd_gradient, fd_laplacian
from .potential import holomorphic_potential

__all__ = [
    "CriterionResult",
    "CRITERIA",
    "run_acceptance",
    "clifford_test_field",
    "ebp_oracle",
    "maxwell_demo_field",
]

_SEED = 20260810
#: Finite-difference stencil of the p, q identities (criterion 2) and of the
#: potential's Laplacian (criterion 3).
_ORACLE_FD = FDScheme(h=1e-3, order=4, richardson=True)


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid:2d}: {self.title} ({self.elapsed:.2f}s)"


def _rng() -> np.random.Generator:
    return np.random.default_rng(_SEED)


def criterion_1() -> CriterionResult:
    """Branch/coordinate identities at 1000 random points, n in {3,4,5}."""
    rng = _rng()
    worst = 0.0
    ok = True
    for n in (3, 4, 5):
        for _ in range(1000):
            x = rng.normal(size=n) * 2.0
            y = rng.normal(size=n)
            if np.linalg.norm(y) < 1e-3:
                y[0] += 1.0
            z = ComplexPoint(x, y)
            d = complex_distance(z)
            r2, a2 = z.r**2, z.a**2
            scale = max(1.0, r2 + a2)
            err = max(
                abs(d.p**2 - d.q**2 - (r2 - a2)) / scale,
                abs(d.p * d.q - float(x @ y)) / scale,
            )
            worst = max(worst, err)
            ok &= d.p >= 0.0
            ok &= abs(d.q) <= z.a * (1.0 + 1e-12) + 1e-12
            ok &= err <= 1e-12
    return CriterionResult(1, "branch and coordinate identities", ok,
                           {"worst_rel": worst})


def _regular_sample(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    while True:
        x = rng.normal(size=n) * 1.5
        y = rng.normal(size=n)
        a = np.linalg.norm(y)
        if a < 0.3:
            continue
        d = complex_distance(ComplexPoint(x, y))
        rho = math.sqrt(max(x @ x - (x @ y / a) ** 2, 0.0))
        if d.p > 0.3 and rho > 0.2:
            return x, y


def criterion_2() -> CriterionResult:
    """Gradient and Laplacian identities of p and q via finite differences."""
    rng = _rng()
    worst = 0.0
    for n in (3, 4):
        for _ in range(50):
            x, y = _regular_sample(rng, n)
            a = float(np.linalg.norm(y))
            d = complex_distance(ComplexPoint(x, y))
            p, q = d.p, d.q
            gp, gq = grad_pq(x, y)

            def p_of(pt):
                return complex_distance(ComplexPoint(pt, y)).p

            def q_of(pt):
                return complex_distance(ComplexPoint(pt, y)).q

            gp_fd = np.real(fd_gradient(p_of, x, _ORACLE_FD))
            gq_fd = np.real(fd_gradient(q_of, x, _ORACLE_FD))
            denom = p**2 + q**2
            checks = [
                np.max(np.abs(gp_fd - gp)),
                np.max(np.abs(gq_fd - gq)),
                abs(float(gp_fd @ gq_fd)),
                abs(float(gp_fd @ gp_fd - gq_fd @ gq_fd) - 1.0),
                abs(float(gp_fd @ gp_fd) - (a**2 + p**2) / denom),
                abs(float(gq_fd @ gq_fd) - (a**2 - q**2) / denom),
                abs(np.real(fd_laplacian(p_of, x, _ORACLE_FD)) - (n - 1) * p / denom)
                / max(1.0, abs(p / denom)),
                abs(np.real(fd_laplacian(q_of, x, _ORACLE_FD)) + (n - 1) * q / denom)
                / max(1.0, abs(q / denom)),
            ]
            worst = max(worst, max(checks))
    return CriterionResult(2, "gradient identities of p and q", worst <= 1e-6,
                           {"worst": worst})


def _singular_distance(x: np.ndarray, n: int) -> float:
    """Distance to the branch disk (odd n) or rim (even n), a = 1, axis last."""
    zeta = x[-1]
    rho = float(np.linalg.norm(x[:-1]))
    d_rim = math.hypot(rho - 1.0, zeta)
    if n % 2 == 0:
        return d_rim
    return abs(zeta) if rho <= 1.0 else d_rim


def criterion_3() -> CriterionResult:
    """Harmonicity of the holomorphic potential, FD Laplacian residual."""
    rng = _rng()
    worst = 0.0
    for n in (3, 4):
        y = np.zeros(n)
        y[-1] = 1.0
        done = 0
        while done < 50:
            x = rng.normal(size=n) * 1.5
            if _singular_distance(x, n) < 0.5:
                continue
            done += 1

            def phi(pt):
                return holomorphic_potential(ComplexPoint(pt, y), n)

            res = abs(fd_laplacian(phi, x, _ORACLE_FD)) / abs(phi(x))
            worst = max(worst, res)
    return CriterionResult(3, "harmonicity of the holomorphic potential",
                           worst <= 1e-5, {"worst_rel": worst})


def criterion_4() -> CriterionResult:
    """Moments Q = 1, P = -iy over n in 3..6, a in {0.5, 1, 2}; centroid = z_S."""
    rng = _rng()
    worst = 0.0
    for n in (3, 4, 5, 6):
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        for a in (0.5, 1.0, 2.0):
            y = a * direction
            q_val, p_vec = src.moments(n, y)
            worst = max(worst, abs(q_val - 1.0), float(np.max(np.abs(p_vec + 1j * y))))
    for _ in range(5):
        z_s = ComplexPoint(rng.normal(size=3), rng.normal(size=3) * 0.8)
        cen = src.centroid(z_s)
        worst = max(worst, float(np.max(np.abs(cen - (z_s.x + 1j * z_s.y)))))
    return CriterionResult(4, "monopole/dipole moments and centroid",
                           worst <= 1e-6, {"worst": worst})


def _limit_fields(n: int) -> list[TestField]:
    kv = np.zeros(n)
    kv[0] = 0.4
    quad = {tuple(0 for _ in range(n)): 1.0}
    e0 = tuple(2 if i == 0 else 0 for i in range(n))
    e1 = tuple(2 if i == n - 1 else 0 for i in range(n))
    quad[e0] = 0.05
    quad[e1] = -0.04
    return [
        gaussian(2.5),
        gaussian(3.5),
        gaussian(3.0, center=[0.2] + [0.0] * (n - 1)),
        cosine_wave(kv),
        polynomial(n, quad),
    ]


def criterion_5() -> CriterionResult:
    """Point-source limit: |<delta_a, f> - f(0)| decreasing, final <= 1e-2."""
    ok = True
    worst_final = 0.0
    for n in (3, 4):
        for f in _limit_fields(n):
            errs = []
            for a in (0.5, 0.25, 0.125):
                y = np.zeros(n)
                y[-1] = a
                val = src.singular_action(f, y, n)
                errs.append(abs(val - f.evaluate(np.zeros(n))))
            ok &= errs[0] > errs[1] > errs[2]
            ok &= errs[2] <= 1e-2
            worst_final = max(worst_final, errs[2])
    return CriterionResult(5, "point-source limit as a -> 0", ok,
                           {"worst_final": worst_final})


def criterion_6() -> CriterionResult:
    """Regularized action converges to the singular one as eps -> 0 (n=3)."""
    f = gaussian(1.0)
    y = np.array([0.0, 0.0, 1.0])
    target = src.singular_action_r3(f, y).value
    errs = [abs(src.regularized_action(f, y, 3, eps) - target)
            for eps in (1e-1, 1e-2, 1e-3)]
    ok = errs[0] > errs[1] > errs[2]
    return CriterionResult(6, "regularized-to-singular convergence", ok,
                           {"errors": errs})


def criterion_7() -> CriterionResult:
    """Descent identity between the R^3 and R^4 source actions."""
    y = np.array([0.2, -0.3, 0.9])
    worst = 0.0
    for f in (constant(1.0), gaussian(1.5), coordinate_along(y)):
        lhs, rhs = src.descent_check(f, y)
        worst = max(worst, abs(lhs - rhs))
    return CriterionResult(7, "descent between dimensions", worst <= 1e-6,
                           {"worst": worst})


def coordinate_along(y: np.ndarray) -> TestField:
    yhat = np.asarray(y) / np.linalg.norm(y)
    return polynomial(3, {(1, 0, 0): yhat[0], (0, 1, 0): yhat[1], (0, 0, 1): yhat[2]})


def _random_poly(rng: np.random.Generator, n: int, degree: int = 3) -> TestField:
    coeffs = {}
    for _ in range(6):
        alpha = tuple(int(e) for e in rng.integers(0, degree + 1, size=n))
        while sum(alpha) > degree:
            alpha = tuple(int(e) for e in rng.integers(0, degree + 1, size=n))
        coeffs[alpha] = rng.normal()
    return polynomial(n, coeffs)


def criterion_8() -> CriterionResult:
    """General odd/even formulas agree with the explicit R^3 / R^4 ones."""
    rng = _rng()
    worst = 0.0
    y3 = np.array([0.1, 0.4, 0.8])
    y4 = np.array([0.0, 0.2, -0.3, 0.9])
    for _ in range(20):
        f3 = _random_poly(rng, 3)
        worst = max(worst, abs(src.singular_action_odd(f3, y3, 3)
                               - src.singular_action_r3(f3, y3).value))
        f4 = _random_poly(rng, 4)
        worst = max(worst, abs(src.singular_action_even(f4, y4, 4)
                               - src.singular_action_r4(f4, y4)))
    return CriterionResult(8, "cross-formula consistency (odd/even vs explicit)",
                           worst <= 1e-8, {"worst": worst})


def criterion_9() -> CriterionResult:
    """Plane-wave Cauchy solutions, initial conditions, FD wave residual (n=3)."""
    rng = _rng()
    k = np.array([0.6, -0.48, 0.64])
    k /= np.linalg.norm(k)
    pw = plane_wave(k)
    worst = 0.0
    data_v = wv.CauchyData(pw, constant(0.0), 3)
    data_w = wv.CauchyData(constant(0.0), pw, 3)
    for _ in range(25):
        x = rng.normal(size=3)
        t = float(rng.uniform(-1.5, 1.5))
        exact_v = np.exp(1j * (k @ x)) * math.cos(t)
        exact_w = np.exp(1j * (k @ x)) * math.sin(t)
        worst = max(worst, abs(wv.solve_cauchy(data_v, x, t) - exact_v))
        worst = max(worst, abs(wv.solve_cauchy(data_w, x, t) - exact_w))
    x0 = np.array([0.3, 0.1, -0.2])
    ic_v = abs(wv.solve_cauchy(data_v, x0, 1e-4) - pw.evaluate(x0))
    h = 1e-3
    ut = (wv.solve_cauchy(data_w, x0, h) - wv.solve_cauchy(data_w, x0, -h)) / (2 * h)
    ic_w = abs(ut - pw.evaluate(x0))
    res = wv.wave_residual(wv.CauchyData(pw, pw, 3), np.array([0.2, 0.0, 0.1]),
                           0.4, h=0.05, half_points=2)
    ok = worst <= 1e-6 and ic_v <= 1e-6 and ic_w <= 1e-4 and res <= 1e-3
    return CriterionResult(9, "wave Cauchy solver (plane waves, IC, residual)", ok,
                           {"worst_pw": worst, "ic_v": ic_v, "ic_w": ic_w,
                            "residual": res})


def criterion_10() -> CriterionResult:
    """Huygens principle (n=3) and causality for n=2 by descent."""
    base_v = bump(0.5)
    base_w = bump(0.4, amplitude=0.7)
    x0 = np.array([2.0, 0.0, 0.0])
    # Huygens: perturb strictly inside |v| = t - margin; u must not change
    t = 1.3
    inner = bump(t - 0.4, center=x0, amplitude=0.3)
    d1 = wv.CauchyData(base_v, base_w, 3)
    d2 = wv.CauchyData(base_v + inner, base_w + inner, 3)
    hy = abs(wv.solve_cauchy(d1, x0, t) - wv.solve_cauchy(d2, x0, t))
    # dependence only on the light cone: zero off the cone
    off1 = abs(wv.solve_cauchy(d1, x0, 1.0))
    off2 = abs(wv.solve_cauchy(d1, x0, 3.0))
    # causality in n=2: perturbation outside the past cone is invisible
    x2 = np.array([0.0, 0.0])
    t2 = 0.8
    far = bump(0.2, center=[t2 + 0.6, 0.0])
    c1 = wv.CauchyData(bump(0.5), bump(0.5, amplitude=0.5), 2)
    c2 = wv.CauchyData(bump(0.5) + far, bump(0.5, amplitude=0.5) + far, 2)
    ca = abs(wv.solve_cauchy(c1, x2, t2) - wv.solve_cauchy(c2, x2, t2))
    ok = hy <= 1e-8 and off1 <= 1e-8 and off2 <= 1e-8 and ca <= 1e-10
    return CriterionResult(10, "Huygens (n=3) and causality (n=2)", ok,
                           {"huygens": hy, "off_cone": max(off1, off2),
                            "causality": ca})


def criterion_11() -> CriterionResult:
    """Clifford layer: exact D^2 = Lap, Borel-Pompeiu, extension, Maxwell."""
    rng = _rng()
    alg = cf.Cl(3)
    # D^2 = Lap exactly on integer-coefficient polynomial fields
    exact_err = 0.0
    for _ in range(5):
        tables = {}
        for subset in ((), (1,), (2,), (1, 3)):
            table = {}
            for _ in range(4):
                alpha = tuple(int(e) for e in rng.integers(0, 3, size=3))
                table[alpha] = float(rng.integers(-4, 5))
            tables[subset] = table
        f = cf.poly_field(alg, 3, tables)
        dd = cf.dirac_field(cf.dirac_field(f))
        expected: dict[int, dict] = {}
        for mask, table in f.poly.items():
            lap: dict = {}
            for axis in range(3):
                for alpha, c in poly_diff(poly_diff(table, axis), axis).items():
                    lap[alpha] = lap.get(alpha, 0.0) + c
            expected[mask] = lap
        for mask in set(expected) | set(dd.poly or {}):
            lap = expected.get(mask, {})
            got = dd.poly.get(mask, {}) if dd.poly else {}
            for kk in set(lap) | set(got):
                exact_err = max(exact_err, abs(lap.get(kk, 0.0) - got.get(kk, 0.0)))
    # Borel-Pompeiu interior / exterior
    ball = cf.Ball(np.zeros(3), 1.0)
    f = clifford_test_field()
    x_in = np.array([0.3, -0.2, 0.1])
    bp_in = (cf.borel_pompeiu(f, ball, x_in) - f.value(x_in)).norm()
    rel_in = bp_in / max(f.value(x_in).norm(), 1.0)
    bp_out = cf.borel_pompeiu(f, ball, np.array([1.6, 0.4, 0.0])).norm()
    # extended Borel-Pompeiu vs the convolution oracle
    z = ComplexPoint([0.3, 0.0, 0.0], [0.0, 0.0, 0.05])
    ebp = cf.extended_borel_pompeiu(f, ball, z)
    ebp_err = (ebp - ebp_oracle(f, z)).norm()
    # Maxwell extension: continuity residual
    fst = maxwell_demo_field()
    worst_res = 0.0
    for (xx, tt) in (((0.3, 0.7, -0.2), 0.6), ((0.0, 0.2, 0.5), 1.1), ((-0.4, 1.0, 0.0), 0.3)):
        _, _, resid = cf.maxwell_extend(fst, np.asarray(xx), 0.0, tt)
        worst_res = max(worst_res, resid)
    ok = (exact_err == 0.0 and rel_in <= 1e-4 and bp_out <= 1e-4
          and ebp_err <= 1e-4 and worst_res <= 1e-4)
    return CriterionResult(11, "Clifford layer (D^2, Borel-Pompeiu, Maxwell)", ok,
                           {"d2_exact": exact_err, "bp_interior_rel": rel_in,
                            "bp_exterior": bp_out, "ebp_vs_oracle": ebp_err,
                            "maxwell_residual": worst_res})


def clifford_test_field() -> cf.MultivectorField:
    """Degree-2 Cl(3) field of the Borel-Pompeiu checks and ``cxpt clifford``."""
    return cf.poly_field(cf.Cl(3), 3, {
        (1,): {(1, 0, 0): 1.0, (0, 2, 0): 0.5},
        (2,): {(0, 0, 1): 1.0},
        (): {(0, 0, 0): 0.3, (0, 1, 0): -0.2},
    })


def ebp_oracle(f: cf.MultivectorField, z: ComplexPoint) -> cf.Multivector:
    """f~(z) blade by blade as the R^3 source action <delta~_{-y}, f(. + x)>.

    Each blade is handed over by its values only, so the action takes its
    slopes from its finite-difference stencils, not from the table's exact
    gradient; the two differ by about 1e-14, and values only keep the
    ``cxpt clifford ebp-check`` output stable.
    """
    oracle = np.zeros(f.algebra.dim, dtype=complex)
    for mask, table in f.poly.items():
        shifted = TestField(polynomial(3, table).shifted(z.x).evaluator)
        oracle[mask] = src.singular_action_r3(shifted, -z.y).value
    return cf.Multivector(f.algebra, oracle)


def maxwell_demo_field() -> cf.SpacetimeMultivectorField:
    """cos(x_2) e0e1 on spacetime, constant in s: a static Maxwell bivector."""
    st = cf.spacetime_algebra(3)
    mask01 = st.mask_of((0, 1))

    def ev(pts):
        out = np.zeros((pts.shape[0], st.dim), dtype=complex)
        out[:, mask01] = np.cos(pts[:, 1])
        return out

    return cf.SpacetimeMultivectorField(
        st, 3, ev,
        s_derivative=lambda pts: np.zeros((pts.shape[0], st.dim), dtype=complex),
    )


#: lambda_{k,m}(a) depends only on j = k - m; entries for a = 0.5, 1, 2.
_LAMBDA_TABLE = {
    1: (math.pi,) * 3,
    2: (4.0, 2.0, 1.0),
    3: (0.0,) * 3,
    4: (-16.0 / 3.0, -2.0 / 3.0, -1.0 / 12.0),
    5: (0.0,) * 3,
    6: (12.8, 0.4, 0.0125),
}


def criterion_12() -> CriterionResult:
    """lambda-coefficient table: exact values for k <= 6, m < k, several a."""
    worst = 0.0
    for i, a in enumerate((0.5, 1.0, 2.0)):
        for k in range(1, 7):
            for m in range(k):
                expected = _LAMBDA_TABLE[k - m][i]
                worst = max(worst, abs(src.lambda_coeff(k, m, a) - expected))
    return CriterionResult(12, "lambda coefficient table", worst == 0.0,
                           {"worst": worst})


CRITERIA: dict[int, Callable[[], CriterionResult]] = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
}


def run_acceptance(ids: Iterable[int] | None = None) -> list[CriterionResult]:
    """Run the selected acceptance criteria (all by default), timing each."""
    results = []
    for cid in sorted(ids) if ids is not None else sorted(CRITERIA):
        start = time.perf_counter()
        res = CRITERIA[cid]()
        res.elapsed = time.perf_counter() - start
        res.passed = bool(res.passed)  # numpy bools don't serialize
        results.append(res)
    return results
