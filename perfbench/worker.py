"""One run of one workload, in a fresh process started by run.py.

    python perfbench/worker.py --workload W --seed N --seconds T --trace 0|1 [--setup-only]

Set-up is interpreter start, imports, deck generation and one untimed
warm-up pass (for ``cli-cold``: one untimed invocation).  The worker then
times whole passes over the deck until ``--seconds`` have gone by, checks
every output, and prints one JSON object as its last stdout line.  Every
piece of timed work is rescaled by the reference loop of calibration.py.
With ``--trace 1`` each pass is followed by a traced pass, and the
per-layer summary of the traced passes is reported too.  With
``--setup-only`` it reports when set-up ended and exits.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibration import Rescaler
from tracing import Tracer, layer_metric_names, patched

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("source-singular", "source-regularized", "propagator", "cli-cold")
CHILD_TIMEOUT_S = 150


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, WORKLOADS.index(workload)])


def per_layer_names() -> list[str]:
    import cli_deck

    return (layer_metric_names()
            + ["cli.interpreter.s", "cli.import.s"]
            + [f"cli.{label}.s" for label in cli_deck.LABELS]
            + [f"acceptance.criterion_{k}.s" for k in sorted(cli_deck.FAST_SUITE)]
            + ["trace.overhead_s"])


@dataclass
class Failure:
    """An operation that raised (library) or exited non-zero (CLI)."""

    reason: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, label: str, ops: int, out, check) -> None:
        self.attempted += ops
        if isinstance(out, Failure):
            self.failed += ops
            self._note(f"failed: {label}: {out.reason}")
            return
        try:
            ok = bool(check(out))
        except Exception as exc:  # a malformed output is a wrong output
            ok = False
            self._note(f"check raised on {label}: {exc!r}")
        if not ok:
            self.wrong += 1
            self._note(f"wrong: {label}")

    def _note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_medians(rows: list[dict], names) -> tuple[dict, bool]:
    """Median of each name over the traced passes, and whether every count repeated."""
    out, repeat = {}, True
    for name in names:
        vals = [row.get(name, 0.0) for row in rows]
        out[name] = median(vals)
        if not name.endswith("_s") and len(set(vals)) > 1:
            repeat = False
    return out, repeat


def startup_times(python: str, rescaler: Rescaler) -> dict[str, float]:
    """cli.interpreter.s (python -c pass) and cli.import.s (import cxpt.cli minus that)."""
    def rescaled(code: str) -> float:
        return rescaler.run(lambda: subprocess.run([python, "-c", code], check=True,
                                                   timeout=CHILD_TIMEOUT_S))[2]

    interp = median([rescaled("pass") for _ in range(3)])
    imported = median([rescaled("import cxpt.cli") for _ in range(3)])
    return {"cli.interpreter.s": interp, "cli.import.s": imported - interp}


def attempt(run, case):
    try:
        return run(case)
    except Exception as exc:  # the operation failed; count it and go on
        return Failure(repr(exc))


def timed_pass(cases, rescaler: Rescaler, tally: Tally, run=lambda case: case.run()):
    """Run every case once and check it; outputs, pass wall and rescaled time, per-case times."""
    timed = rescaler.run_all([lambda case=case: attempt(run, case) for case in cases])
    for case, (out, _, _) in zip(cases, timed):
        tally.add(case.label, case.ops, out, case.check)
    return ([out for out, _, _ in timed], sum(w for _, w, _ in timed),
            sum(s for _, _, s in timed), [s for _, _, s in timed])


def set_up_done(entered: float, loops: Rescaler, setup_rest_s: float) -> dict:
    """What run.py needs to rescale set-up: the worker's entry time, its first
    reference loop, and the rescaled set-up work the worker timed itself."""
    return {"entry": entered, "loop_entry": loops.first, "setup_rest_s": setup_rest_s}


def report(args, tally: Tally, start: dict, passes: list, rss_who: int, trace=None) -> dict:
    """The worker's result; ``trace`` = (layers, rows, traced pass times, spans)."""
    result = {**start, "pass_s": [s for _, s in passes], "pass_wall_s": [w for w, _ in passes],
              "peak_rss_mb": resource.getrusage(rss_who).ru_maxrss / 1024.0, **tally.__dict__}
    if trace is not None:
        layers, rows, traced, spans = trace
        counted, repeat = layer_medians(rows, layer_metric_names())
        layers.update(counted)
        layers["trace.overhead_s"] = median(traced) - median(result["pass_s"])
        layers.update({n: 0.0 for n in per_layer_names() if n not in layers})
        result.update(layers=layers, counts_repeat=repeat, traced_pass_s=traced)
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "span_fields": ["name", "start", "end", "parent"], "passes": spans}))
    return result


# -- library workloads ---------------------------------------------------------
def library(args, entered: float, rescaler: Rescaler) -> dict:
    def build(tracer=None):
        import decks

        return decks.build(args.workload, rng_for(args.workload, args.seed), tracer)

    tally = Tally()
    deck, _, built = rescaler.run(build)
    warmed = timed_pass(deck, rescaler, tally)[2]
    start = set_up_done(entered, rescaler, built + warmed)
    if args.setup_only:
        return start

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        traced_deck = build(tracer)
    passes, traced, rows, spans = [], [], [], []
    end = time.perf_counter() + args.seconds
    while True:
        _, wall, scaled, _ = timed_pass(deck, rescaler, tally)
        passes.append((wall, scaled))
        if tracer is not None:
            tracer.reset()
            with patched(tracer):
                traced.append(timed_pass(traced_deck, rescaler, tally)[2])
            rows.append(tracer.summary())
            spans.append(tracer.spans)
        if time.perf_counter() >= end:
            break
    trace = None
    if tracer is not None:
        trace = (startup_times(sys.executable, rescaler), rows, traced, spans)
    return report(args, tally, start, passes, resource.RUSAGE_SELF, trace)


# -- cli-cold ------------------------------------------------------------------------
def cli(args, entered: float, loops: Rescaler) -> dict:
    def build():
        import cli_deck

        return cli_deck, cli_deck.build(rng_for(args.workload, args.seed), cli_deck.Schemas(ROOT))

    (cli_deck, entries), _, built = loops.run(build)
    rescaler = Rescaler.for_processes()
    plain = [sys.executable, "-m", "cxpt.cli"]

    def invoke(prefix, entry):
        proc = subprocess.run(prefix + entry.argv, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            return Failure(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout

    tally = Tally()
    warmed = timed_pass(entries[:1], rescaler, tally, lambda entry: invoke(plain, entry))[2]
    start = set_up_done(entered, loops, built + warmed)
    if args.setup_only:
        return start

    OUT_DIR.mkdir(exist_ok=True)
    probe = [sys.executable, str(Path(__file__).with_name("cli_probe.py"))]
    paths = {e.label: OUT_DIR / f"probe-{args.seed}-{i}.json" for i, e in enumerate(entries)}
    passes, traced, rows, spans = [], [], [], []
    per_entry = {e.label: [] for e in entries}
    criteria: dict[str, list] = {}
    end = time.perf_counter() + args.seconds
    while True:
        outs, wall, scaled, each = timed_pass(entries, rescaler, tally,
                                              lambda entry: invoke(plain, entry))
        passes.append((wall, scaled))
        for entry, secs in zip(entries, each):
            per_entry[entry.label].append(secs)
        if not isinstance(outs[-1], Failure):
            for name, secs in cli_deck.criterion_times(outs[-1]).items():
                criteria.setdefault(name, []).append(secs)
        if args.trace:
            traced.append(timed_pass(
                entries, rescaler, tally,
                lambda entry: invoke(probe + [str(paths[entry.label]), "--"], entry))[2])
            row: dict[str, float] = {}
            pass_spans = []
            for label, path in paths.items():
                if not path.exists():   # the probe failed; counted above
                    continue
                probed = json.loads(path.read_text())
                path.unlink()
                for name, value in probed["summary"].items():
                    row[name] = row.get(name, 0.0) + value
                pass_spans.append({"entry": label, "spans": probed["spans"]})
            rows.append(row)
            spans.append(pass_spans)
        if time.perf_counter() >= end:
            break
    trace = None
    if args.trace:
        layers = startup_times(sys.executable, loops)
        layers.update({f"cli.{label}.s": median(v) for label, v in per_entry.items()})
        layers.update({name: median(v) for name, v in criteria.items()})
        trace = (layers, rows, traced, spans)
    return report(args, tally, start, passes, resource.RUSAGE_CHILDREN, trace)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    entered = time.monotonic()
    loops = Rescaler()
    run = cli if args.workload == "cli-cold" else library
    result = run(args, entered, loops)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
