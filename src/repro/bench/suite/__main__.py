"""``python -m repro.bench.suite``: see :mod:`repro.bench.suite.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
