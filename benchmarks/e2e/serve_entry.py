"""``repro serve`` with the benchmark's layer wrappers installed.

    python3 benchmarks/e2e/serve_entry.py TRACE_OUT serve --store D ...

The traced query-mixed run starts the server through this script instead
of ``python -m repro``: it installs the same wrappers as the benchmark
process (recording every span, booked to the ``run`` phase),
hands the remaining arguments to ``repro.cli.main``, and writes the
aggregated rows to ``TRACE_OUT`` when the server exits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.e2e import layers
    from benchmarks.e2e.tracer import Tracer
    from repro.cli import main as repro_main

    trace_out = Path(sys.argv[1])
    tracer = Tracer(default_phase="run")
    layers.install(tracer)
    try:
        return repro_main(sys.argv[2:])
    finally:
        trace_out.write_text(
            json.dumps({"rows": tracer.row_dicts(), "counters": tracer.counters}) + "\n"
        )


if __name__ == "__main__":
    sys.exit(main())
