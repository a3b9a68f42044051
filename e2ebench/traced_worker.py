"""A shard worker process for the traced ``fleet`` run.

The program's own ``ShardWorker`` at the ``cli worker`` defaults (0.2 s
idle poll), over ``HttpCoordinatorTransport`` wrapped in the benchmark's
``TimedTransport``.  SIGTERM stops the loop between pulls; the spans are
then written to ``--spans`` as JSON lines.

    python3 e2ebench/traced_worker.py --coordinator URL --spans PATH
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from pathlib import Path

from layers import TimedTransport, Tracer
from procs import SRC


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--coordinator", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    from repro.distributed.worker import HttpCoordinatorTransport, ShardWorker

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    tracer = Tracer()
    worker = ShardWorker(
        TimedTransport(HttpCoordinatorTransport(args.coordinator), tracer),
        worker_id="w0",
        poll_s=0.2,
    )
    worker.run(stop=stop)
    tracer.dump(Path(args.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
