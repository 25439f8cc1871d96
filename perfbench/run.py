"""cxpt benchmark: one run of one workload, end-to-end or traced.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a checkout of the repository (it needs ``src/cxpt``
and ``docs/schemas``).  Each run starts fresh worker processes
(perfbench/worker.py) one after another, with the BLAS and OpenMP pools
pinned to one thread.  With ``--trace 0`` it starts SETUP_SAMPLES
workers: all but the last stop after set-up, and the last one also
times whole passes for T seconds.  It prints, as its last stdout line,
one JSON object with ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  The same object, with the raw pass times, set-up
samples and any notes on failures, is written to
``.perfbench/result-<workload>-seed<N>-trace<0|1>.json``; a traced run
also writes its spans to ``.perfbench/trace-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import LOOP_S, loop_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("source-singular", "source-regularized", "propagator", "cli-cold")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith((".calls", ".points", ".nodes")):
        return "count"
    return "s"


def worker_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    return env


def spawn(args, extra: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; its result and its rescaled set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    loop_before = loop_time()
    started = time.monotonic()
    # a process group of its own, so that an overrunning worker is stopped
    # together with its CLI children
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=worker_env(),
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker for {args.workload} did not finish in time")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"worker for {args.workload} exited with {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    # interpreter start and the worker's own imports, then the set-up work the
    # worker timed itself; both rescaled, the worker's reference loops left out
    startup = (res["entry"] - started) * LOOP_S / (0.5 * (loop_before + res["loop_entry"]))
    return res, startup + res["setup_rest_s"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # a terminated run still stops its workers (spawn's finally clause)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not ((ROOT / "src" / "cxpt" / "__init__.py").is_file()
            and (ROOT / "docs" / "schemas").is_dir()):
        sys.stderr.write(f"no cxpt source tree under {ROOT}; run from a checkout's root\n")
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    # compile once up front so set-up times never include writing bytecode
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    loop_time()                 # the first loop pays numpy's lazy set-up
    setups = [spawn(args, ["--setup-only"], deadline)[1]
              for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
    res, setup = spawn(args, [], deadline)
    setups.append(setup)

    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "pass_s": statistics.median(res["pass_s"]),
                   "peak_rss_mb": res["peak_rss_mb"]}
    result = {
        "correct": res["wrong"] == 0 and (not args.trace or res["counts_repeat"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    details = {"passes": len(res["pass_s"]), "pass_s": res["pass_s"],
               "pass_wall_s": res["pass_wall_s"], "setup_samples_s": setups,
               "wrong": res["wrong"], "notes": res["notes"],
               "traced_pass_s": res.get("traced_pass_s")}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "details": details}, indent=1))
    for note in res["notes"]:
        sys.stderr.write(note + "\n")
    sys.stdout.write(f"{args.workload}: {len(res['pass_s'])} passes, "
                     f"{res['attempted']} operations, {res['failed']} failed, "
                     f"{res['wrong']} wrong\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
