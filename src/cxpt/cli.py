"""Command-line front end and machine-readable reporting.

Each subcommand runs one part of the library; the rest of it (sphere
means, oblate coordinates, the Cauchy extension and the Clifford
products and kernels among others) is reached from Python only:

    gamma           complex distance and point classification
    potential       newtonian / holomorphic / regularized potentials
    source-action   <delta~, f> with the n = 3 part decomposition
    moments         monopole Q and dipole P
    descent-check   both sides of the descent identity
    wave            Cauchy solution samples on a lattice (CSV)
    wave-verify     FD wave-equation residual (JSON)
    clifford        bp-check | ebp-check | maxwell-demo (JSON)
    verify          acceptance suite, one pass/fail line per criterion

Complex numbers serialize as {"re": ..., "im": ...}; vectors are
comma-separated flags checked against --n.  Exit codes: 0 success,
1 validation error, 2 numerical failure in verify.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import clifford as cf
from . import source as src
from . import wave as wv
from .acceptance import (
    CRITERIA,
    clifford_test_field,
    ebp_oracle,
    maxwell_demo_field,
    run_acceptance,
)
from .config import _COORDINATE_BOUND, Config, config_from_env, load_config
from .errors import CxptError
from .fields import parse_field_spec
from .geometry import ComplexPoint, classify_point, complex_distance
from .numerics import MAX_POINTS, _check_finite
from .potential import holomorphic_potential, newtonian, regularized_potential

__all__ = ["main", "run"]

def _cnum(value: complex) -> dict:
    return {"re": float(np.real(value)), "im": float(np.imag(value))}


def _vector(text: str, n: int, name: str) -> np.ndarray:
    vals = np.asarray([float(t) for t in text.split(",")], dtype=float)
    if vals.size != n:
        raise CxptError(f"{name} {text!r} has {vals.size} entries, expected {n}")
    if not np.all(np.isfinite(vals)):
        raise CxptError(f"{name} must be finite, got {text!r}")
    if np.any(np.abs(vals) > _COORDINATE_BOUND):
        raise CxptError(f"{name} entries must be at most {_COORDINATE_BOUND:g} in magnitude "
                        f"(their squares overflow), got {text!r}")
    return vals


def _axis(text: str | None, n: int, cfg: Config) -> np.ndarray:
    """Parse --y; when omitted, use the configured default axis a e_n."""
    if text is None:
        y = np.zeros(n)
        y[-1] = cfg.default_a
        return y
    return _vector(text, n, "axis vector y")


def _check_floats(args: argparse.Namespace) -> None:
    """Reject non-finite float flags before a command runs.  Each is a time
    (``--t``) or a positive size, whose range the command checks."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            rule = "finite" if name == "t" else "positive and finite"
            raise CxptError(f"{name} must be {rule}, got {value}")


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, allow_nan=False) + "\n")


def _cmd_gamma(args, cfg: Config) -> int:
    x = _vector(args.x, args.n, "--x")
    y = _axis(args.y, args.n, cfg)
    side = -1 if args.side == "back" else 1
    dist = complex_distance(ComplexPoint(x, y), side=side)
    cls = classify_point(x, y, side=side)
    _emit({"p": dist.p, "q": dist.q, "class": cls.value})
    return 0


def _cmd_potential(args, cfg: Config) -> int:
    x = _vector(args.x, args.n, "--x")
    if args.kind == "newtonian":
        value = complex(newtonian(x, args.n))
    else:
        y = _axis(args.y, args.n, cfg)
        z = ComplexPoint(x, y)
        side = -1 if args.side == "back" else 1
        if args.kind == "regularized":
            value = regularized_potential(z, args.n, args.eps, side=side)
        else:
            value = holomorphic_potential(z, args.n, side=side)
    _emit({"kind": args.kind, "value": _cnum(value)})
    return 0


def _cmd_source_action(args, cfg: Config) -> int:
    y = _axis(args.y, args.n, cfg)
    f = parse_field_spec(args.field).to_field(args.n)
    if args.eps is not None:
        act = src._regularized(f, y, args.n, args.eps)
    elif args.n == 3:
        act = src.singular_action_r3(f, y)
    else:
        act = src.SourceAction(src.singular_action(f, y, args.n), None, None)
    parts = None if act.parts is None else {k: _cnum(v) for k, v in act.parts.items()}
    payload = {"value_re": act.value.real, "value_im": act.value.imag,
               "parts": parts, "err_estimate": act.err_estimate}
    _emit(payload if args.eps is None else {**payload, "eps": args.eps})
    return 0


def _cmd_moments(args, cfg: Config) -> int:
    y = _axis(args.y, args.n, cfg)
    q_val, p_vec = src.moments(args.n, y)
    _emit({"Q": _cnum(q_val), "P": [_cnum(v) for v in p_vec]})
    return 0


def _cmd_descent(args, cfg: Config) -> int:
    y = _axis(args.y, 3, cfg)
    f = parse_field_spec(args.field).to_field(3)
    lhs, rhs = src.descent_check(f, y, window=args.window)
    _emit({"lhs": _cnum(lhs), "rhs": _cnum(rhs), "abs_diff": abs(lhs - rhs)})
    return 0


def _cauchy_data(args) -> wv.CauchyData:
    return wv.CauchyData(parse_field_spec(args.v).to_field(args.n),
                         parse_field_spec(args.w).to_field(args.n), args.n)


def _cmd_wave(args, cfg: Config) -> int:
    n, m = args.n, args.lattice_half
    if m < 0:
        raise ValueError(f"--lattice-half must be >= 0, got {m}")
    if m > 0 and not args.step > 0:
        raise ValueError(f"--step must be > 0 on a lattice, got {args.step}")
    data = _cauchy_data(args)
    x0 = _vector(args.x, n, "--x")
    # each coordinate is monotone in its offset, so the corners are the extremes
    for corner in (-m, m):
        _check_finite(x=x0 + corner * args.step, t=args.t + corner * args.step)
    cols = [f"x{k + 1}" for k in range(n)] + ["t", "re_u", "im_u"]
    sys.stdout.write(",".join(cols) + "\n")
    # wave_residual's lattice order (t fastest), solved MAX_POINTS points at a time
    shape = (2 * m + 1,) * (n + 1)
    for lo in range(0, math.prod(shape), MAX_POINTS):
        block = np.arange(lo, min(lo + MAX_POINTS, math.prod(shape)))
        offsets = np.column_stack(np.unravel_index(block, shape)) - m
        xs, ts = x0 + offsets[:, :n] * args.step, args.t + offsets[:, n] * args.step
        for x, t, u in zip(xs, ts, wv._solve_lattice(data, xs, ts)):
            sys.stdout.write(",".join(f"{c:.17g}" for c in (*x, t, u.real, u.imag)) + "\n")
    return 0


def _cmd_wave_verify(args, cfg: Config) -> int:
    res = wv.wave_residual(_cauchy_data(args), _vector(args.x, args.n, "--x"), args.t,
                           h=args.step, half_points=args.half)
    _emit({"residual": res, "step": args.step, "half_points": args.half})
    return 0


def _cmd_clifford(args, cfg: Config) -> int:
    ball = cf.Ball(np.zeros(3), args.radius)
    inside = f"inside the ball of --radius {args.radius:g} by more than {cf.BOUNDARY_TOL:g}"
    if args.mode == "bp-check":
        f = clifford_test_field()
        x_in = _vector(args.x, 3, "--x")
        x_out = _vector(args.exterior, 3, "--exterior")
        if ball.signed_boundary_distance(x_in) <= cf.BOUNDARY_TOL:
            raise ValueError(f"--x must lie {inside}")
        if ball.signed_boundary_distance(x_out) >= -cf.BOUNDARY_TOL:
            raise ValueError(f"--exterior must lie outside the ball of --radius {args.radius:g} "
                             f"by more than {cf.BOUNDARY_TOL:g}")
        interior = (cf.borel_pompeiu(f, ball, x_in) - f.value(x_in)).norm()
        exterior = cf.borel_pompeiu(f, ball, x_out).norm()
        _emit({"interior_error": interior, "exterior_leakage": exterior})
        return 0
    if args.mode == "ebp-check":
        f = clifford_test_field()
        z = ComplexPoint(_vector(args.x, 3, "--x"), _vector(args.y, 3, "--y"))
        # the branch disk x + E0(y) reaches |x|^2 + 2 |x cross y| + |y|^2 in squared
        # distance from the centre; the oracle f~(z) is f~_M(z) only with it inside M
        if math.sqrt(z.x @ z.x + 2.0 * np.linalg.norm(np.cross(z.x, z.y)) + z.y @ z.y) \
                >= args.radius - cf.BOUNDARY_TOL:
            raise ValueError(f"--x and --y must put the branch disk x + E0(y) {inside}")
        value = cf.extended_borel_pompeiu(f, ball, z)
        oracle = ebp_oracle(f, z)
        _emit({"value": [_cnum(c) for c in value.coeffs],
               "oracle": [_cnum(c) for c in oracle.coeffs],
               "abs_diff": (value - oracle).norm()})
        return 0
    # maxwell-demo
    x = _vector(args.x, 3, "--x")
    ft, jt, resid = cf.maxwell_extend(maxwell_demo_field(), x, 0.0, args.t)
    _emit({
        "f_extension": [_cnum(c) for c in ft.coeffs],
        "current": [_cnum(c) for c in jt.coeffs],
        "continuity_residual": resid,
    })
    return 0


def _cmd_verify(args, cfg: Config) -> int:
    if args.suite == "all":
        ids = None
    elif args.suite == "fast":
        ids = [1, 2, 3, 7, 9, 10, 12]
    else:
        try:
            ids = [int(t) for t in args.suite.split(",")]
        except ValueError as exc:
            raise CxptError(f"bad suite spec {args.suite!r}") from exc
        unknown = [i for i in ids if i not in CRITERIA]
        if unknown:
            raise CxptError(f"unknown criteria {unknown}")
    results = run_acceptance(ids)
    for res in results:
        payload = {"criterion": res.cid, "title": res.title,
                   "passed": res.passed, "elapsed_s": round(res.elapsed, 3)}
        payload["details"] = res.details
        _emit(payload)
        sys.stderr.write(res.line() + "\n")
    failed = [r.cid for r in results if not r.passed]
    if failed:
        sys.stderr.write(f"FAILED criteria: {failed}\n")
        return 2
    sys.stderr.write(f"all {len(results)} criteria passed\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cxpt",
        description="complex-distance potential theory: evaluation and verification",
    )
    parser.add_argument("--config", help="config file path (else $CXPT_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="complex distance and classification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", default=None, help="defaults to default.a times e_n")
    p.add_argument("--side", choices=["front", "back"], default="front")
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("potential", help="potential values")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", default=None)
    p.add_argument("--kind", choices=["newtonian", "holomorphic", "regularized"],
                   default="holomorphic")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--side", choices=["front", "back"], default="front")
    p.set_defaults(func=_cmd_potential)

    p = sub.add_parser("source-action", help="extended source acting on a field")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--y", default=None, help="defaults to default.a times e_n")
    p.add_argument("--field", required=True)
    p.add_argument("--eps", type=float, default=None,
                   help="evaluate the regularized action I_eps instead")
    p.set_defaults(func=_cmd_source_action)

    p = sub.add_parser("moments", help="monopole and dipole moments")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--y", default=None, help="defaults to default.a times e_n")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("descent-check", help="descent identity n=3 <-> n=4")
    p.add_argument("--y", default=None, help="defaults to default.a times e_3")
    p.add_argument("--field", required=True)
    p.add_argument("--window", type=float, default=None)
    p.set_defaults(func=_cmd_descent)

    p = sub.add_parser("wave", help="Cauchy solution on a lattice (CSV)")
    p.add_argument("--n", type=int, default=3, choices=[2, 3, 5])
    p.add_argument("--v", required=True, help="initial value field spec")
    p.add_argument("--w", required=True, help="initial derivative field spec")
    p.add_argument("--x", required=True, help="lattice center")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--lattice-half", type=int, default=1)
    p.add_argument("--step", type=float, default=0.1)
    p.set_defaults(func=_cmd_wave)

    p = sub.add_parser("wave-verify", help="FD wave-equation residual")
    p.add_argument("--n", type=int, default=3, choices=[2, 3, 5])
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--half", type=int, default=2)
    p.set_defaults(func=_cmd_wave_verify)

    p = sub.add_parser("clifford", help="Clifford-layer checks")
    p.add_argument("mode", choices=["bp-check", "ebp-check", "maxwell-demo"])
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--x", default="0.3,-0.2,0.1")
    p.add_argument("--y", default="0,0,0.05")
    p.add_argument("--exterior", default="1.6,0.4,0.0")
    p.add_argument("--t", type=float, default=0.6)
    p.set_defaults(func=_cmd_clifford)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--suite", default="all",
                   help="'all', 'fast', or a comma list of criterion numbers")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv, execute the subcommand, return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        _check_floats(args)
        cfg = load_config(args.config) if args.config else config_from_env()
        return args.func(args, cfg)
    except (CxptError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
