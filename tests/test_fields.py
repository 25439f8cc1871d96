"""Built-in test fields and the declarative catalog."""

import numpy as np
import pytest

from cxpt.fields import (
    FieldSpec,
    TestField,
    _lift,
    bump,
    constant,
    coordinate,
    cosine_wave,
    gaussian,
    parse_field_spec,
    plane_wave,
    poly_eval,
    polynomial,
)


def test_constant_and_coordinate():
    pts = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 0.5]])
    assert np.allclose(constant(2.5).evaluate(pts), 2.5)
    assert np.allclose(coordinate(1).evaluate(pts), [2.0, -1.0])


def test_polynomial_and_gradient(rng):
    f = polynomial(3, {(2, 0, 1): 1.5, (0, 1, 0): -2.0})
    x = np.array([0.5, 1.0, 2.0])
    assert f.evaluate(x) == pytest.approx(1.5 * 0.25 * 2.0 - 2.0)
    grad = f.gradient_at(x)
    assert grad[0] == pytest.approx(1.5 * 2 * 0.5 * 2.0)
    assert grad[1] == pytest.approx(-2.0)
    assert grad[2] == pytest.approx(1.5 * 0.25)


def _poly_eval_loop(table, pts):
    """The reference: one np.full per term, each power taken afresh."""
    out = np.zeros(pts.shape[0], dtype=complex)
    for alpha, c in table.items():
        term = np.full(pts.shape[0], complex(c))
        for k, e in enumerate(alpha):
            if e:
                term = term * pts[:, k] ** e
        out += term
    return out


@pytest.mark.parametrize("n", [1, 3, 4])
def test_poly_eval_matches_the_term_loop_bit_for_bit(rng, n):
    """Sharing each power x_k^e across the terms keeps every bit of the loop that
    takes them per term, on random tables with a constant term and complex
    coefficients."""
    for _ in range(5):
        alphas = {(0,) * n} | {tuple(rng.integers(0, 5, size=n).tolist()) for _ in range(12)}
        table = {alpha: complex(*rng.normal(size=2)) for alpha in alphas}
        pts = rng.normal(size=(257, n)) * rng.uniform(0.1, 3.0)
        assert poly_eval(table, pts).tobytes() == _poly_eval_loop(table, pts).tobytes()


def test_gaussian_plane_wave_values():
    x = np.array([1.0, 0.0, 0.0])
    assert gaussian(2.0).evaluate(x) == pytest.approx(np.exp(-0.25))
    assert plane_wave([np.pi, 0, 0]).evaluate(x) == pytest.approx(-1.0, abs=1e-12)
    assert cosine_wave([np.pi, 0, 0]).evaluate(x) == pytest.approx(-1.0, abs=1e-12)


def test_bump_support():
    f = bump(0.5, center=[1.0, 0.0])
    assert f.evaluate(np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert f.evaluate(np.array([1.6, 0.0])) == 0.0
    assert f.evaluate(np.array([1.49, 0.0])) != 0.0
    assert f.evaluate(np.array([1.5, 0.0])) == 0.0


def test_combinators(rng):
    f = gaussian(1.0)
    g = f.shifted([0.5, 0.0, 0.0])
    x = rng.normal(size=3)
    assert g.evaluate(x) == pytest.approx(f.evaluate(x + np.array([0.5, 0, 0])))
    h = f.scaled(2.0 - 1.0j) + coordinate(0)
    assert h.evaluate(x) == pytest.approx((2 - 1j) * f.evaluate(x) + x[0])


def test_parse_field_specs():
    assert parse_field_spec("constant:2").to_field(3).evaluate(np.zeros(3)) == 2.0
    assert parse_field_spec("coordinate:1").to_field(2).evaluate(
        np.array([3.0, 4.0])) == 4.0
    spec = parse_field_spec("plane_wave:1,0,0")
    assert spec.family == "plane_wave"
    f = spec.to_field(3)
    assert f.evaluate(np.array([np.pi / 2, 0, 0])) == pytest.approx(1j, abs=1e-12)
    poly = parse_field_spec("polynomial:0,0,0=1;2,0,0=0.5").to_field(3)
    assert poly.evaluate(np.array([2.0, 0, 0])) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        parse_field_spec("plane_wave:1,0").to_field(3)
    with pytest.raises(ValueError):
        FieldSpec("no_such_family").to_field(3)
    with pytest.raises(ValueError):
        parse_field_spec("coordinate:7").to_field(3)


@pytest.mark.parametrize("width", [0.0, 1e-200, 1e200, float("nan"), float("inf")])
def test_gaussian_rejects_widths_whose_square_is_not_positive_and_finite(width):
    with pytest.raises(ValueError, match="width"):
        gaussian(width)


def test_lift_window_zeroes_value_and_gradient(rng):
    """Inside the slab |s| <= window the lift is f(x) with gradient [grad f, 0];
    outside both are 0, and a field without gradient lifts without one."""
    f = gaussian(1.2, center=[0.1, -0.2, 0.3])
    pts = rng.uniform(-1.0, 1.0, size=(64, 4))
    inside = np.abs(pts[:, 3]) <= 0.5
    lifted = _lift(f, 0.5)
    vals, grads = lifted.evaluate(pts), lifted.gradient_at(pts)
    assert 0 < inside.sum() < inside.size
    assert np.array_equal(vals[inside], f.evaluate(pts[inside, :3]))
    assert np.array_equal(grads[inside, :3], f.gradient_at(pts[inside, :3]))
    assert not np.any(grads[inside, 3])
    assert not np.any(vals[~inside]) and not np.any(grads[~inside])
    assert _lift(TestField(f.evaluator), 0.5).gradient is None


def test_unwindowed_lift_is_the_planar_lift(rng):
    """With no window the lift equals, bit for bit, the planar lift R^2 -> R^3 the
    wave solver used: f(x1, x2) and column_stack([grad f, 0]), array values included."""
    pts = rng.uniform(-1.0, 1.0, size=(32, 3))
    rows = TestField(lambda p: np.stack([np.exp(1j * p[:, 0]), p[:, 1] ** 2], axis=1))
    for f in (plane_wave([0.7, -0.4]), gaussian(0.9), rows):
        lifted = _lift(f)
        vals, ref = lifted.evaluate(pts), f.evaluate(pts[:, :2])
        assert vals.dtype == ref.dtype and vals.tobytes() == ref.tobytes()
        if f.gradient is None:
            continue
        g = f.gradient_at(pts[:, :2])
        ref_grad = np.column_stack([g, np.zeros(g.shape[0], dtype=g.dtype)])
        grad = lifted.gradient_at(pts)
        assert grad.dtype == ref_grad.dtype and grad.tobytes() == ref_grad.tobytes()
