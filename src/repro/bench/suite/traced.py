"""Traced figure regeneration.

    python src/repro/bench/suite/traced.py SPANS SPAWNED_AT ARGS...

installs the timing shim, then runs exactly what ``python -m
repro.experiments ARGS...`` runs.  ``SPAWNED_AT`` is the benchmark's
clock reading when it spawned this process; the ``python.startup`` span
covers spawn to the CLI's ``main`` (interpreter start, imports, shim
install).

It runs as a script, not with ``-m``, so that loading the shim does not
execute ``repro/bench/__init__.py``: that imports the whole plan-service
stack, which the untraced CLI never loads, and would bill the traced
run for it.
"""

from __future__ import annotations

import os
import sys
import types

SRC = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))
)))


def main() -> int:
    spans_dir, spawned_at, cli_args = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    sys.path[0] = SRC
    bench = types.ModuleType("repro.bench")
    bench.__path__ = [os.path.join(SRC, "repro", "bench")]
    sys.modules["repro.bench"] = bench
    from repro.bench.clock import now
    from repro.bench.suite.layers import CLI_PATCHES
    from repro.bench.suite.spans import Shim

    shim = Shim(CLI_PATCHES, spans_dir).install()
    from repro.experiments.__main__ import main as cli_main

    shim.record("python.startup", spawned_at, now())
    return cli_main(cli_args)


if __name__ == "__main__":
    raise SystemExit(main())
