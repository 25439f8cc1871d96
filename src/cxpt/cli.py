"""Command-line front end and machine-readable reporting.

Subcommands map one-to-one onto the library surface:

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
from .config import Config, config_from_env, load_config
from .errors import CxptError
from .fields import parse_field_spec
from .geometry import ComplexPoint, classify_point, complex_distance
from .potential import holomorphic_potential, newtonian, regularized_potential

__all__ = ["main", "run", "OPERATION_COVERAGE"]

#: Spec operation -> owning subcommand (numerics kernels are exercised by verify).
OPERATION_COVERAGE = {
    "integrate_interval": "verify",
    "mean_on_sphere": "verify",
    "derivative": "verify",
    "complex_distance": "gamma",
    "classify_point": "gamma",
    "to_oblate": "gamma",
    "from_oblate": "gamma",
    "jacobian_volume": "gamma",
    "grad_pq": "gamma",
    "newtonian": "potential",
    "holomorphic_potential": "potential",
    "regularized_potential": "potential",
    "lambda_coeff": "source-action",
    "regularized_action": "source-action",
    "singular_action_r3": "source-action",
    "singular_action_r4": "source-action",
    "singular_action_even": "source-action",
    "singular_action_odd": "source-action",
    "moments": "moments",
    "centroid": "moments",
    "descent_check": "descent-check",
    "solve_cauchy": "wave",
    "extend": "wave",
    "wave_residual": "wave-verify",
    "mv_mul": "clifford",
    "dirac_apply": "clifford",
    "cauchy_kernel": "clifford",
    "regular_point": "clifford",
    "borel_pompeiu": "clifford",
    "extended_borel_pompeiu": "clifford",
    "maxwell_extend": "clifford",
    "run": "verify",
    "load_config": "verify",
}


def _cnum(value: complex) -> dict:
    return {"re": float(np.real(value)), "im": float(np.imag(value))}


def _vector(text: str, n: int | None = None, name: str = "vector") -> np.ndarray:
    vals = np.asarray([float(t) for t in text.split(",")], dtype=float)
    if n is not None and vals.size != n:
        raise CxptError(f"{name} {text!r} has {vals.size} entries, expected {n}")
    if not np.all(np.isfinite(vals)):
        raise CxptError(f"{name} must be finite, got {text!r}")
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
    x = _vector(args.x, args.n)
    y = _axis(args.y, args.n, cfg)
    side = -1 if args.side == "back" else 1
    dist = complex_distance(ComplexPoint(x, y), side=side)
    cls = classify_point(x, y, side=side)
    _emit({"p": dist.p, "q": dist.q, "class": cls.value})
    return 0


def _cmd_potential(args, cfg: Config) -> int:
    x = _vector(args.x, args.n)
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
    quadrature = cfg.quadrature()
    if args.eps is not None:
        act = src._regularized(f, y, args.n, args.eps, quadrature)
        _emit({"value_re": act.value.real, "value_im": act.value.imag,
               "parts": None, "err_estimate": act.err_estimate, "eps": args.eps})
        return 0
    if args.n == 3:
        act = src.singular_action_r3(f, y, quadrature)
        parts = {k: _cnum(v) for k, v in act.parts.items()}
        _emit({"value_re": act.value.real, "value_im": act.value.imag,
               "parts": parts, "err_estimate": act.err_estimate})
        return 0
    value = src.singular_action(f, y, args.n, quadrature)
    _emit({"value_re": value.real, "value_im": value.imag,
           "parts": None, "err_estimate": None})
    return 0


def _cmd_moments(args, cfg: Config) -> int:
    y = _axis(args.y, args.n, cfg)
    q_val, p_vec = src.moments(args.n, y, cfg.quadrature())
    _emit({"Q": _cnum(q_val), "P": [_cnum(v) for v in p_vec]})
    return 0


def _cmd_descent(args, cfg: Config) -> int:
    y = _axis(args.y, 3, cfg)
    f = parse_field_spec(args.field).to_field(3)
    lhs, rhs = src.descent_check(f, y, window=args.window, quadrature=cfg.quadrature())
    _emit({"lhs": _cnum(lhs), "rhs": _cnum(rhs), "abs_diff": abs(lhs - rhs)})
    return 0


def _cmd_wave(args, cfg: Config) -> int:
    n = args.n
    m = args.lattice_half
    if m < 0:
        raise ValueError(f"--lattice-half must be >= 0, got {m}")
    if m > 0 and not args.step > 0:
        raise ValueError(f"--step must be > 0 on a lattice, got {args.step}")
    v = parse_field_spec(args.v).to_field(n)
    w = parse_field_spec(args.w).to_field(n)
    data = wv.CauchyData(v, w, n)
    quadrature = cfg.quadrature()
    x0 = _vector(args.x, n)
    cols = [f"x{k + 1}" for k in range(n)] + ["t", "re_u", "im_u"]
    sys.stdout.write(",".join(cols) + "\n")
    offsets = range(-m, m + 1)
    for axis_off in np.ndindex(*((2 * m + 1,) * n)):
        dx = np.asarray([offsets[i] for i in axis_off], dtype=float) * args.step
        for jt in offsets:
            t = args.t + jt * args.step
            u = wv.solve_cauchy(data, x0 + dx, t, quadrature)
            row = [f"{c:.17g}" for c in (x0 + dx)] + [
                f"{t:.17g}", f"{np.real(u):.17g}", f"{np.imag(u):.17g}"]
            sys.stdout.write(",".join(row) + "\n")
    return 0


def _cmd_wave_verify(args, cfg: Config) -> int:
    n = args.n
    v = parse_field_spec(args.v).to_field(n)
    w = parse_field_spec(args.w).to_field(n)
    data = wv.CauchyData(v, w, n)
    res = wv.wave_residual(data, _vector(args.x, n), args.t, h=args.step,
                           half_points=args.half, quadrature=cfg.quadrature())
    _emit({"residual": res, "step": args.step, "half_points": args.half})
    return 0


def _cmd_clifford(args, cfg: Config) -> int:
    ball = cf.Ball(np.zeros(3), args.radius)
    quadrature = cfg.quadrature()
    if args.mode == "bp-check":
        f = clifford_test_field()
        x_in = _vector(args.x, 3)
        interior = (cf.borel_pompeiu(f, ball, x_in, quadrature) - f.value(x_in)).norm()
        exterior = cf.borel_pompeiu(f, ball, _vector(args.exterior, 3), quadrature).norm()
        _emit({"interior_error": interior, "exterior_leakage": exterior})
        return 0
    if args.mode == "ebp-check":
        f = clifford_test_field()
        z = ComplexPoint(_vector(args.x, 3), _vector(args.y, 3))
        value = cf.extended_borel_pompeiu(f, ball, z, quadrature)
        oracle = ebp_oracle(f, z, quadrature)
        _emit({"value": [_cnum(c) for c in value.coeffs],
               "oracle": [_cnum(c) for c in oracle.coeffs],
               "abs_diff": (value - oracle).norm()})
        return 0
    # maxwell-demo
    ft, jt, resid = cf.maxwell_extend(maxwell_demo_field(), _vector(args.x, 3), 0.0, args.t,
                                      quadrature)
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
