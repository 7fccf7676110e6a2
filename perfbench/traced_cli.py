"""Run one combcool CLI call in this process with the span tracer installed.

Usage: python3 perfbench/traced_cli.py SPANS.npz CLI-ARG...

The package is imported from PYTHONPATH, exactly as ``python -m combcool``
would import it.  The spans are written to SPANS.npz even when the call
fails; the exit code is the CLI's own.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from tracer import Tracer


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    import combcool.cli  # noqa: F401  (loads every traced module)
    import combcool

    tracer = Tracer()
    tracer.install(combcool)
    exit_code = 1
    t0 = time.perf_counter()
    try:
        exit_code = combcool.cli.main(argv)
    finally:
        tracer.dump(spans_path, exit_code, time.perf_counter() - t0)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
