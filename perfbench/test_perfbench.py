"""Tests of the benchmark itself: its fields, its checks and its tracing.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py

Every check must accept cxpt's real output and reject the same output
deliberately perturbed.  Running all decks and CLI entries once takes
about half a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import cli_deck  # noqa: E402
import decks  # noqa: E402
import oracles as O  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer, layer_metric_names, patched  # noqa: E402

DELTA = 1e-2


def perturb(out):
    """The same output with one number moved by DELTA (relative and absolute)."""
    if isinstance(out, tuple):
        return (perturb(out[0]),) + out[1:]
    if isinstance(out, list):
        return out[:-1] + [perturb(out[-1])]
    if isinstance(out, np.ndarray):
        moved = out.copy()
        moved.flat[0] = perturb(moved.flat[0])
        return moved
    if hasattr(out, "coeffs"):
        return dataclasses.replace(out, coeffs=perturb(out.coeffs))
    return out * (1 + DELTA) + DELTA


# -- fields ------------------------------------------------------------------
@pytest.mark.parametrize("make", [O.harmonic_poly, O.harmonic_exp])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_harmonic_fields_are_harmonic(make, n):
    f = make(np.random.default_rng(n), n)
    x = np.random.default_rng(0).normal(size=(4, n))
    h = 1e-3
    lap = sum((f.value(x + h * e) - 2 * f.value(x) + f.value(x - h * e)) / h**2
              for e in np.eye(n))
    assert np.max(np.abs(lap)) <= 1e-4 * max(1.0, np.max(np.abs(f.value(x))))


@pytest.mark.parametrize("make", [O.harmonic_poly, O.harmonic_exp, O.gaussian])
def test_gradients_and_complex_points(make):
    rng = np.random.default_rng(7)
    f = make(rng, 4)
    x = rng.normal(size=(3, 4))
    h = 1e-6
    fd = np.stack([(f.value(x + h * e) - f.value(x - h * e)) / (2 * h) for e in np.eye(4)],
                  axis=1)
    assert np.allclose(f.grad(x), fd, atol=1e-6)
    assert np.allclose(f.value(x), f.value(x + 0j), rtol=1e-13)


def test_harmonic_table_and_ebp_reference():
    table = O.harmonic_quadratic_table(np.random.default_rng(2), 3)
    assert all(abs(c) <= 1e-12 for c in O.poly_table_laplacian(table).values())
    # <delta~, |x|^2> = 2 a^2 in R^3: check the reference on x^2 + y^2 + z^2
    sq = {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}
    y = np.array([0.0, 0.0, 0.5])
    assert O.ebp_reference(sq, np.zeros(3), y) == pytest.approx(2 * 0.25)


# -- library decks -------------------------------------------------------------
@pytest.fixture(scope="module", params=sorted(decks.DECKS))
def deck_outputs(request):
    deck = decks.build(request.param, worker.rng_for(request.param, 17))
    return [(case, case.run()) for case in deck]


def test_checks_accept_real_and_reject_perturbed(deck_outputs):
    for case, out in deck_outputs:
        assert case.check(out), case.label
        assert not case.check(perturb(out)), case.label


def test_deck_cost_does_not_depend_on_seed():
    for workload in decks.DECKS:
        labels = [[(c.label, c.ops) for c in
                   decks.build(workload, worker.rng_for(workload, seed))] for seed in (1, 2)]
        assert labels[0] == labels[1]


# -- tracing -----------------------------------------------------------------
def test_traced_counts_repeat_and_patches_are_removed():
    import cxpt.numerics
    import cxpt.source

    originals = (cxpt.source.derivative, cxpt.numerics.derivative, cxpt.source.integrate_interval)
    tracer = Tracer()
    deck = decks.build("source-singular", worker.rng_for("source-singular", 3), tracer)[:3]
    rows = []
    for _ in range(2):
        tracer.reset()
        with patched(tracer):
            assert cxpt.source.derivative is not originals[0]
            for case in deck:
                assert case.check(case.run())
        rows.append({k: v for k, v in tracer.summary().items() if not k.endswith("_s")})
    assert rows[0] == rows[1]
    assert rows[0]["fields.evaluate.calls"] > 0 and rows[0]["numerics.derivative.calls"] > 0
    assert rows[0]["numerics.integrate_interval.nodes"] > 0
    assert (cxpt.source.derivative, cxpt.numerics.derivative,
            cxpt.source.integrate_interval) == originals


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    s = tracer.summary()
    (_, o_start, o_end, _), = [sp for sp in tracer.spans if sp[0] == "outer"]
    assert s["inner.calls"] == 3 and s["outer.calls"] == 1
    assert s["outer.self_s"] + s["inner.self_s"] == pytest.approx(o_end - o_start)


def test_counting_field_keeps_smoothness_and_gradient():
    from cxpt.fields import TestField
    from tracing import counting_field

    f = TestField(evaluator=lambda p: p[:, 0] + 0j, gradient=lambda p: np.ones_like(p) + 0j,
                  smoothness=3.0)
    tracer = Tracer()
    g = counting_field(tracer, f)
    assert g.smoothness == 3.0 and g.gradient is not None
    g.evaluate(np.zeros((5, 3)))
    g.gradient_at(np.zeros((2, 3)))
    assert tracer.counts == {"fields.evaluate.points": 5, "fields.gradient.points": 2}


# -- CLI deck ------------------------------------------------------------------
def perturb_stdout(stdout: str) -> str:
    """Move the first number of a JSON output, or the last re_u of the wave CSV."""
    if stdout.startswith("x1,"):
        lines = stdout.splitlines()
        cells = lines[-1].split(",")
        cells[-2] = repr(float(cells[-2]) * (1 + DELTA) + DELTA)
        return "\n".join(lines[:-1] + [",".join(cells)]) + "\n"
    payloads = [json.loads(line) for line in stdout.splitlines()]
    if "passed" in payloads[0]:
        payloads[0]["passed"] = False
    else:
        def move(node):
            if isinstance(node, dict):
                key = next(k for k, v in node.items() if isinstance(v, (int, float, dict, list))
                           and not isinstance(v, bool))
                node[key] = move(node[key])
                return node
            if isinstance(node, list):
                node[0] = move(node[0])
                return node
            return node * (1 + DELTA) + DELTA
        move(payloads[0])
    return "".join(json.dumps(p) + "\n" for p in payloads)


def test_cli_checks_accept_real_and_reject_perturbed():
    entries = cli_deck.build(worker.rng_for("cli-cold", 5), cli_deck.Schemas(ROOT))
    env = worker_env()
    for entry in entries:
        proc = subprocess.run([sys.executable, "-m", "cxpt.cli", *entry.argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, (entry.label, proc.stderr)
        assert entry.check(proc.stdout), entry.label
        assert not entry.check(perturb_stdout(proc.stdout)), entry.label
        if not proc.stdout.startswith("x1,"):
            extra = json.loads(proc.stdout.splitlines()[0])
            extra["unexpected"] = 1     # schema forbids additional properties
            lines = proc.stdout.splitlines()
            assert not entry.check("\n".join([json.dumps(extra)] + lines[1:]) + "\n"), entry.label


def worker_env():
    import run

    return run.worker_env()


# -- BENCHMARK.json and run.py ---------------------------------------------------
def test_benchmark_json_names_every_metric():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert per_layer == [(n, run.unit_of(n)) for n in worker.per_layer_names()]
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "pass_s", "peak_rss_mb"}
    assert [w["name"] for w in bench["workloads"]] == list(worker.WORKLOADS)
    assert set(layer_metric_names()) <= {n for n, _ in per_layer}


def test_run_refuses_a_tree_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "propagator",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
