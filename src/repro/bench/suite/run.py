"""One benchmark run, from the checkout this file sits in.

    python3 src/repro/bench/suite/run.py --workload W --seed N --seconds S --trace 0|1

Same as ``python -m repro.bench.suite run ...`` but needs no
``PYTHONPATH``: it puts the checkout's ``src/`` first on the path.  The
last stdout line is the JSON result; exit status 2 (and no result) when
the checkout does not hold the program.
"""

from __future__ import annotations

import os
import sys

SRC = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))
)))


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: {SRC} holds no repro package to benchmark", file=sys.stderr)
        return 2
    # Replace this script's directory (sys.path[0]) so its module names
    # cannot shadow anything the program imports.
    sys.path[0] = SRC
    from repro.bench.suite.cli import main as cli_main

    return cli_main(["run", *sys.argv[1:]])


if __name__ == "__main__":
    raise SystemExit(main())
