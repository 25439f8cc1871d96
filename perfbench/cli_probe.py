"""Run one ``cxpt`` command with the benchmark's span wrappers installed.

    python perfbench/cli_probe.py SUMMARY.json -- <cxpt arguments>

Behaves like ``python -m cxpt.cli <cxpt arguments>`` (same stdout and exit
code) and writes the per-layer summary of the command to SUMMARY.json.
Fields the CLI builds from its ``--field``/``--v``/``--w`` specs are given
counting evaluators, as the library workloads give their own fields.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracing import Tracer, counting_field, patched


def main(argv: list[str]) -> int:
    summary_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: cli_probe.py SUMMARY.json -- <cxpt arguments>")
    import cxpt.cli
    from cxpt.fields import FieldSpec

    tracer = Tracer()
    to_field = FieldSpec.to_field
    FieldSpec.to_field = lambda spec, n: counting_field(tracer, to_field(spec, n))
    try:
        with patched(tracer):
            code = cxpt.cli.run(cli_args)
    finally:
        FieldSpec.to_field = to_field
    Path(summary_path).write_text(json.dumps({"summary": tracer.summary(),
                                              "spans": tracer.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
