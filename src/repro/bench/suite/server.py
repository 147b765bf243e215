"""The benchmark's plan server: ``python -m repro.bench.suite.server``.

Runs :class:`~repro.service.server.PlanService` with
:class:`~repro.service.server.ServiceConfig` defaults plus a WAL journal
(``<state>/wal.jsonl``) and a snapshot directory (``<state>/snapshots``)
behind :class:`~repro.service.http.HttpPlanServer` on an ephemeral
localhost port.  It restores whatever the state directory holds, prints
``READY <port>`` on stdout, and serves until SIGTERM (graceful drain)
or SIGKILL (a crash).  ``--spans DIR`` installs the timing shim first.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal


async def _serve(state: str) -> None:
    from ...service.http import HttpPlanServer
    from ...service.server import PlanService, ServiceConfig

    service = PlanService(
        config=ServiceConfig(
            journal_path=os.path.join(state, "wal.jsonl"),
            snapshot_dir=os.path.join(state, "snapshots"),
        )
    )
    service.restore()
    await service.start()
    http = HttpPlanServer(service)
    await http.start()
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    print(f"READY {http.port}", flush=True)
    await stop.wait()
    await http.stop()
    await service.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench.suite.server")
    parser.add_argument("--state", required=True, help="journal + snapshot directory")
    parser.add_argument("--spans", default=None, help="write timing spans here")
    args = parser.parse_args(argv)
    if args.spans:
        from .layers import SERVER_PATCHES
        from .spans import Shim

        Shim(SERVER_PATCHES, args.spans).install()
    asyncio.run(_serve(args.state))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
