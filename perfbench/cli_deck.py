"""Deck of the ``cli-cold`` workload: one fresh ``cxpt`` process per entry.

Each entry is an argument list and a check of the process's exit code
and standard output.  JSON outputs are validated against their schema in
``docs/schemas/`` and then against the same properties the library
workloads check.  ``verify``'s output carries ``elapsed_s`` and is never
compared byte for byte.  This module does not import cxpt.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import jsonschema
import numpy as np
from referencing import Registry, Resource

import oracles as O

#: The field ``cxpt clifford ebp-check`` builds (cli._clifford_test_field),
#: by blade: Cl(3) generators are labelled 1, 2, 3 and blade e_A sits at
#: bit mask sum(1 << (label - 1)).  Degree <= 2, so ebp_reference applies.
EBP_FIELD = {
    0b000: {(0, 0, 0): 0.3, (0, 1, 0): -0.2},
    0b001: {(1, 0, 0): 1.0, (0, 2, 0): 0.5},
    0b010: {(0, 0, 1): 1.0},
}
#: ``maxwell-demo`` extends cos(x_2) e0e1 in spacetime_algebra(3) (labels
#: 0..3), whose e0e1 coefficient sits at mask 0b11.
MAXWELL_MASK = 0b0011
FAST_SUITE = {1, 2, 3, 7, 9, 10, 12}
#: Entry labels in deck order; per-layer metrics are named cli.<label>.s.
LABELS = ("gamma", "potential", "source-action.n3", "source-action.n4-eps", "moments",
          "descent-check", "wave", "clifford.ebp-check", "clifford.maxwell-demo", "verify.fast")


@dataclass
class Entry:
    """One CLI invocation; ``check(stdout)`` is True when the output is right."""

    label: str
    argv: list[str]
    check: Callable[[str], bool]
    ops: int = 1


def vec(v) -> str:
    return ",".join(repr(float(c)) for c in v)


def poly_spec(table: dict) -> str:
    return "polynomial:" + ";".join(
        f"{','.join(str(e) for e in alpha)}={float(c)!r}" for alpha, c in table.items())


def cnum(d: dict) -> complex:
    return complex(d["re"], d["im"])


class Schemas:
    """Validators for docs/schemas/*.json, with their relative $refs resolved."""

    def __init__(self, root: Path) -> None:
        docs = {p.name: json.loads(p.read_text())
                for p in (root / "docs" / "schemas").glob("*.json")}
        registry = Registry().with_resources(
            (doc["$id"], Resource.from_contents(doc)) for doc in docs.values())
        self._validators = {name: jsonschema.Draft202012Validator(doc, registry=registry)
                            for name, doc in docs.items()}

    def one(self, name: str, stdout: str) -> dict | None:
        """The single JSON line of ``stdout`` if it is valid against ``name``, else None."""
        lines = stdout.splitlines()
        if len(lines) != 1:
            return None
        payload = json.loads(lines[0])
        return payload if self._validators[name].is_valid(payload) else None

    def each(self, name: str, stdout: str) -> list[dict] | None:
        payloads = [json.loads(line) for line in stdout.splitlines()]
        ok = payloads and all(self._validators[name].is_valid(p) for p in payloads)
        return payloads if ok else None


def _json_check(schemas: Schemas, schema: str, prop: Callable[[dict], bool]):
    def check(stdout: str) -> bool:
        payload = schemas.one(schema, stdout)
        return payload is not None and bool(prop(payload))
    return check


def _wave_rows_ok(k, rows_expected):
    def check(stdout: str) -> bool:
        rows = list(csv.reader(io.StringIO(stdout)))
        if rows[0] != ["x1", "x2", "x3", "t", "re_u", "im_u"] or len(rows) - 1 != rows_expected:
            return False
        for row in rows[1:]:
            vals = [float(v) for v in row]
            want = O.plane_wave_solution(k, np.asarray(vals[:3]), vals[3])
            if not O.check_close(complex(vals[4], vals[5]), want, O.TOL_WAVE[3]):
                return False
        return True
    return check


def _verify_ok(schemas: Schemas):
    def check(stdout: str) -> bool:
        lines = schemas.each("verify.schema.json", stdout)
        return (lines is not None and all(p["passed"] for p in lines)
                and {p["criterion"] for p in lines} == FAST_SUITE
                and len(lines) == len(FAST_SUITE))
    return check


def criterion_times(stdout: str) -> dict[str, float]:
    """acceptance.criterion_<k>.s from verify's own elapsed_s fields."""
    return {f"acceptance.criterion_{p['criterion']}.s": p["elapsed_s"]
            for p in map(json.loads, stdout.splitlines())}


def build(rng: np.random.Generator, schemas: Schemas) -> list[Entry]:
    entries = []

    x, y = rng.normal(size=3), O.unit(rng, 3) * rng.uniform(0.5, 1.5)
    entries.append(Entry("gamma", ["gamma", "--n", "3", f"--x={vec(x)}", f"--y={vec(y)}"],
                         _json_check(schemas, "gamma.schema.json",
                                     lambda p, x=x, y=y: O.check_gamma(p, x, y))))

    y = O.unit(rng, 4) * rng.uniform(0.5, 1.5)
    x = O.unit(rng, 4) * (np.linalg.norm(y) + rng.uniform(0.5, 1.5))   # off the branch disk
    want = O.holomorphic_potential(x, y, 4)
    entries.append(Entry(
        "potential", ["potential", "--n", "4", f"--x={vec(x)}", f"--y={vec(y)}",
                      "--kind", "holomorphic"],
        _json_check(schemas, "potential.schema.json",
                    lambda p, w=want: O.check_close(cnum(p["value"]), w, O.TOL_POTENTIAL))))

    table = O.harmonic_quadratic_table(rng, 3)
    y = O.unit(rng, 3) * rng.uniform(0.5, 2.0)
    want = O.poly_table_value(table, -1j * y)

    def source_n3(p, w=want):
        value = complex(p["value_re"], p["value_im"])
        parts = sum(cnum(v) for v in p["parts"].values())
        return (O.check_close(value, w, O.TOL_SINGULAR[3])
                and O.check_close(parts, value, 1e-12))

    entries.append(Entry("source-action.n3",
                         ["source-action", "--n", "3", f"--y={vec(y)}",
                          f"--field={poly_spec(table)}"],
                         _json_check(schemas, "source-action.schema.json", source_n3)))

    table = O.harmonic_quadratic_table(rng, 4)
    y = O.unit(rng, 4)
    want = O.poly_table_value(table, -1j * y)
    entries.append(Entry(
        "source-action.n4-eps",
        ["source-action", "--n", "4", f"--y={vec(y)}", f"--field={poly_spec(table)}",
         "--eps", "0.1"],
        _json_check(schemas, "source-action.schema.json",
                    lambda p, w=want: p.get("eps") == 0.1 and O.check_close(
                        complex(p["value_re"], p["value_im"]), w, O.TOL_REGULARIZED))))

    y = O.unit(rng, 3) * rng.uniform(0.5, 2.0)
    entries.append(Entry(
        "moments", ["moments", "--n", "3", f"--y={vec(y)}"],
        _json_check(schemas, "moments.schema.json",
                    lambda p, y=y: abs(cnum(p["Q"]) - 1.0) <= O.TOL_MOMENTS and all(
                        abs(cnum(c) + 1j * yk) <= O.TOL_MOMENTS for c, yk in zip(p["P"], y)))))

    y = O.unit(rng, 3) * rng.uniform(0.5, 2.0)
    width = rng.uniform(1.0, 2.0)

    def descent(p):
        diff = abs(cnum(p["lhs"]) - cnum(p["rhs"]))
        return diff <= O.TOL_DESCENT and abs(p["abs_diff"] - diff) <= 1e-15

    entries.append(Entry("descent-check",
                         ["descent-check", f"--y={vec(y)}", f"--field=gaussian:{float(width)!r}"],
                         _json_check(schemas, "descent-check.schema.json", descent)))

    k = O.random_wave_vector(rng, 3, 0.5, 1.5)
    x0 = 0.5 * rng.normal(size=3)
    t0 = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0)
    entries.append(Entry(
        "wave", ["wave", "--n", "3", f"--v=plane_wave:{vec(k)}", f"--w=plane_wave:{vec(k)}",
                 f"--x={vec(x0)}", f"--t={float(t0)!r}", "--lattice-half", "1", "--step", "0.1"],
        _wave_rows_ok(k, 27 * 3)))

    x = O.unit(rng, 3) * rng.uniform(0.0, 0.4)
    y = O.unit(rng, 3) * rng.uniform(0.08, 0.12)
    want = np.zeros(8, dtype=complex)
    for mask, tab in EBP_FIELD.items():
        want[mask] = O.ebp_reference(tab, x, y)

    def ebp(p, w=want):
        value = np.asarray([cnum(c) for c in p["value"]])
        oracle = np.asarray([cnum(c) for c in p["oracle"]])
        return (O.check_close(value, w, O.TOL_EBP) and O.check_close(oracle, w, O.TOL_EBP)
                and p["abs_diff"] <= 1e-4)

    entries.append(Entry("clifford.ebp-check",
                         ["clifford", "ebp-check", f"--x={vec(x)}", f"--y={vec(y)}"],
                         _json_check(schemas, "clifford.schema.json", ebp)))

    x, t = 0.5 * rng.normal(size=3), rng.uniform(0.3, 1.1)

    def maxwell(p, want=np.cos(x[1]) * np.cos(t)):
        fe = np.asarray([cnum(c) for c in p["f_extension"]])
        return (p["continuity_residual"] <= O.TOL_CONTINUITY
                and O.check_close(fe[MAXWELL_MASK], want, O.TOL_MAXWELL_FIELD)
                and bool(np.all(np.abs(np.delete(fe, MAXWELL_MASK)) <= O.TOL_MAXWELL_FIELD)))

    entries.append(Entry("clifford.maxwell-demo",
                         ["clifford", "maxwell-demo", f"--x={vec(x)}", f"--t={float(t)!r}"],
                         _json_check(schemas, "clifford.schema.json", maxwell)))

    entries.append(Entry("verify.fast", ["verify", "--suite", "fast"], _verify_ok(schemas)))
    if tuple(e.label for e in entries) != LABELS:
        raise RuntimeError("cli deck labels out of step with LABELS")
    return entries
