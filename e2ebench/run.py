"""End-to-end benchmark of the split-execution study system.

    python3 e2ebench/run.py --workload cli_cold|service_mixed|fleet \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is ``src/repro`` of that
checkout, run as ``python -m repro.cli``.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` runs the same workload
with spans on, probes each layer, and reports the per-layer metrics.
Every artifact is checked (``checks.py``) after the timed part.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
from pathlib import Path

from procs import ROOT, SRC

HERE = Path(__file__).resolve().parent

#: Measured launches per run for setup_s (each after one discarded launch).
SETUPS = 3

#: Metric names and units, in BENCHMARK.json's order.
_CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in _CONFIG["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _CONFIG["per_layer"]}


def end_to_end(out) -> dict:
    from workloads import tail

    tail_s, _ = tail(out.latencies)
    return {
        "latency_p50_s": statistics.median(out.latencies),
        "latency_tail_s": tail_s,
        "points_per_s": out.points / out.wall_s,
        "cpu_s_per_study": out.cpu_s / out.attempted,
        "peak_rss_mb": out.peak_rss_mb,
        "setup_s": statistics.median(out.setup_s) if out.setup_s else math.nan,
    }


def per_layer(workload: str, seed: int, out, tracer, work: Path, worker_spans: Path) -> dict:
    from layers import (
        Tracer,
        distributed_metrics,
        probe_distributed,
        probe_layers,
        read_spans,
        service_metrics,
    )
    from workloads import SHARD_SIZE, Outcome, serve_loop

    m = probe_layers(workload, seed, SHARD_SIZE, work)
    if workload == "cli_cold":
        hits, requests = out.layer["cache_hits"], out.layer["cache_requests"]
        m["studies.executor.shards_executed"] = (requests - hits) / len(out.latencies)
        m["studies.cache.hit_ratio"] = hits / requests
        # The workload runs no service: probe one round through an
        # in-process server with the same client loop.
        from repro.service import StudyServer

        probe, probe_tracer = Outcome(), Tracer()
        with StudyServer(port=0, cache=work / "probe-service-cache") as server:
            serve_loop(server.url, workload, seed, math.inf, work / "probe-service",
                       probe_tracer, probe, [os.getpid()], max_rounds=1)
        m.update(service_metrics(probe.layer["jobs"], probe_tracer.spans))
    else:
        jobs = out.layer["jobs"]
        total = sum(j["shards_total"] for j in jobs)
        cached = sum(j["shards_from_cache"] for j in jobs)
        m["studies.executor.shards_executed"] = (total - cached) / len(jobs)
        m["studies.cache.hit_ratio"] = cached / total
        m.update(service_metrics(jobs, tracer.spans))
    if workload == "fleet":
        spans = read_spans(worker_spans)
        tracer.extend(spans)
        issued = [(j["job_id"], j["issued"]) for j in out.layer["jobs"]]
        m.update(distributed_metrics(spans, out.layer["healthz"]["distributed"], issued))
    else:
        probe_tracer = Tracer()
        health, issued = probe_distributed(workload, seed, SHARD_SIZE, probe_tracer)
        m.update(distributed_metrics(probe_tracer.spans, health, issued))
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_cold", "service_mixed", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'repro'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import check_all
    from layers import Tracer, self_times
    from workloads import SHARD_SIZE, run_workload, tail

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        tracer = Tracer() if args.trace else None
        worker_spans = work / "worker-spans.jsonl"
        worker_args = None
        if args.trace and args.workload == "fleet":
            worker_args = [sys.executable, str(HERE / "traced_worker.py"),
                           "--coordinator", "{url}", "--spans", str(worker_spans)]
        out = run_workload(args.workload, work, args.seed, args.seconds,
                           0 if args.trace else SETUPS, tracer, worker_args)
        errors = check_all(out.tasks, SHARD_SIZE)
        for task_errors in errors:
            for error in task_errors:
                print(f"CHECK FAILED {error}", file=sys.stderr)
        failed = out.failed + sum(1 for e in errors if e)

        e2e = end_to_end(out)
        _, tail_pct = tail(out.latencies)
        print(f"workload {args.workload}, seed {args.seed}: {out.attempted} studies "
              f"({len(out.latencies)} timed, {out.points} points) in {out.wall_s:.2f} s; "
              f"tail = p{tail_pct:.0f}; {failed} failed")
        if args.trace:
            metrics = per_layer(args.workload, args.seed, out, tracer, work, worker_spans)
            trace_path = ROOT / ".bench_traces" / f"{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(trace_path)
            print("traced end-to-end (the tracing overhead is this minus an untraced run):")
            for name, value in e2e.items():
                if name != "setup_s":
                    print(f"  {name:<40} {value:.6g} {E2E_UNITS[name]}")
            print("per-layer metrics:")
            for name, unit in LAYER_UNITS.items():
                print(f"  {name:<40} {metrics[name]:.6g} {unit}")
            print(f"span self times ({trace_path.relative_to(ROOT)}):")
            for name, (count, total, own) in sorted(self_times(tracer.spans).items()):
                print(f"  {name:<40} n={count:<5} total {total:9.3f} s  self {own:9.3f} s")
            units = LAYER_UNITS
        else:
            metrics = e2e
            for name, value in metrics.items():
                print(f"  {name:<40} {value:.6g} {E2E_UNITS[name]}")
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": not any(errors),
        "attempted": out.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
