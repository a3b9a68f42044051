"""Reproduce the known coordinator race; prints attempted/failed, gates nothing.

    python3 e2ebench/fault_repro.py [--grids 16] [--poll 0.05]

Starts ``cli coordinate --cache`` and one ``cli worker --poll <poll>``,
submits ``--grids`` fresh fleet-sized grids, then a relabelled repeat of
each, and counts the repeats the service reports as failed.  The race:
``ShardCoordinator.register_study`` makes a study leasable before its
cache pre-pass has run, so the worker can lease shard k of a repeat and
the pre-pass then calls ``study.pending.remove(k)`` on a shard that is no
longer pending, failing the job with ``[execution-error] list.remove(x):
x not in list`` (``distributed/coordinator.py``, ``register_study`` vs
``lease``).  A fix shows as ``failed 0``.
"""

from __future__ import annotations

import argparse
import random
import shutil
import sys
import time

from procs import ROOT, SRC, Program, cli, wait_healthz
from streams import fleet_round
from workloads import POLL_S


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--grids", type=int, default=16)
    parser.add_argument("--poll", type=float, default=0.05, help="worker idle poll (s)")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    from repro.service import StudyServiceClient

    work = ROOT / ".bench_work" / f"fault-repro-{time.time_ns()}"
    work.mkdir(parents=True)
    coord = worker = None
    try:
        coord = Program(cli(["coordinate", "--port", "0", "--quiet", "--cache", str(work / "cache")]),
                        work / "programs.log")
        url = coord.read_url()
        worker = Program(cli(["worker", "--coordinator", url, "--poll", str(args.poll)]),
                         work / "programs.log")
        wait_healthz(url, lambda body: body["distributed"]["workers"] >= 1)
        client = StudyServiceClient(url)
        rng = random.Random("fault-repro")
        fresh: list[dict] = []
        while len(fresh) < args.grids:
            fresh += [study.payload for study in fleet_round(rng)]
        failed = 0
        for payload in fresh[: args.grids]:
            for name in (payload["name"], f"again-{payload['name']}"):
                job = client.submit(dict(payload, name=name))["job_id"]
                snap = client.wait(job, timeout=120.0, poll_interval=POLL_S, max_poll_interval=POLL_S)
                if snap["state"] != "done":
                    error = snap.get("error") or {}
                    if name == payload["name"]:
                        print(f"fresh grid {name} failed: {error}")
                        return 1
                    failed += 1
                    print(f"repeat {name}: [{error.get('code')}] {error.get('message')}")
        print(f"relabelled repeats: attempted {args.grids}, failed {failed} "
              f"(worker poll {args.poll:g} s)")
    finally:
        for program in (worker, coord):
            if program is not None:
                program.stop()
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
