"""The traced run: spans around calls into each layer, and layer probes.

Spans are recorded by the benchmark's own code around the calls it makes
into the program (name, start, end, parent, study id), kept in memory and
written out as JSON lines when the run ends.  Nothing inside the program
is instrumented.  Two sources feed the per-layer metrics:

* the workload itself, run with spans on: CLI processes, the service
  client's submit / wait / fetch, and, on ``fleet``, a worker process of
  the benchmark's own (``traced_worker.py``) that runs the program's
  ``ShardWorker`` through a timed transport;
* probes that call each layer's public functions in-process on the
  workload's own first round of specs.  Where the workload does not run a
  layer at all (service and distributed on ``cli_cold``, distributed on
  ``service_mixed``) the probe is the only source; see README.md.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from procs import child_env
from streams import ROUNDS

# ---------------------------------------------------------------------- #
# spans
# ---------------------------------------------------------------------- #


class Tracer:
    """In-memory span recorder; parents follow the calling thread's nesting."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()

    def span(self, name: str, study: str | None = None):
        return _Span(self, name, study)

    def add(self, name: str, start: float, end: float, study: str | None) -> None:
        self.spans.append({"id": len(self.spans), "name": name, "start": start,
                           "end": end, "parent": None, "study": study})

    def extend(self, spans: list[dict]) -> None:
        """Append another tracer's spans (a worker process's), re-numbered."""
        offset = len(self.spans)
        for span in spans:
            parent = span["parent"]
            self.spans.append({**span, "id": span["id"] + offset,
                               "parent": None if parent is None else parent + offset})

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str, study: str | None) -> None:
        self.tracer, self.name, self.study = tracer, name, study

    def __enter__(self) -> dict:
        stack = self.tracer._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        record = {
            "id": len(self.tracer.spans), "name": self.name, "start": time.monotonic(),
            "end": None, "parent": None if parent is None else parent["id"],
            "study": self.study if self.study is not None or parent is None else parent["study"],
        }
        self.tracer.spans.append(record)
        stack.append(record)
        return record

    def __exit__(self, *exc) -> None:
        record = self.tracer._local.stack.pop()
        record["end"] = time.monotonic()


def self_times(spans: list[dict]) -> dict[str, tuple[int, float, float]]:
    """``name -> (count, total_s, self_s)``; self = total minus direct children."""
    child_s: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"]
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        total = span["end"] - span["start"]
        entry = out[span["name"]]
        entry[0] += 1
        entry[1] += total
        entry[2] += total - child_s.get(span["id"], 0.0)
    return {name: tuple(v) for name, v in out.items()}


class TimedTransport:
    """A worker transport that records spans around the lease/push verbs.

    ``distributed.shard_eval`` is the time between a lease arriving and the
    push of its shard leaving: evaluation plus hashing, in the worker.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner, self.tracer = inner, tracer
        self._leased_at: dict[tuple, float] = {}

    def lease(self, worker_id: str):
        start = time.monotonic()
        lease = self.inner.lease(worker_id)
        end = time.monotonic()
        study = None if lease is None else lease["study_id"]
        self.tracer.add("distributed.lease" if lease else "distributed.empty_lease",
                        start, end, study)
        if lease is not None:
            self._leased_at[(study, int(lease["shard_index"]))] = end
        return lease

    def push(self, study_id, shard_index, data, digest, worker_id="", lease_id=None):
        start = time.monotonic()
        leased = self._leased_at.pop((study_id, int(shard_index)), None)
        if leased is not None:
            self.tracer.add("distributed.shard_eval", leased, start, study_id)
        body = self.inner.push(study_id, shard_index, data, digest,
                               worker_id=worker_id, lease_id=lease_id)
        self.tracer.add("distributed.push", start, time.monotonic(), study_id)
        return body

    def fail(self, lease_id, message="worker reported failure"):
        return self.inner.fail(lease_id, message)


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


# ---------------------------------------------------------------------- #
# probes
# ---------------------------------------------------------------------- #
_IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import repro.cli, repro.studies, repro.studies.executor, repro.studies.cache\n"
    "print(time.perf_counter() - t, len(sys.modules))\n"
)


def probe_import(runs: int = 3) -> tuple[float, int]:
    """Fresh-interpreter import of what ``cli study`` loads: (median s, modules)."""
    times, modules = [], 0
    for _ in range(runs):
        text = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=child_env(),
                              capture_output=True, text=True, check=True).stdout
        seconds, modules = text.split()
        times.append(float(seconds))
    return statistics.median(times), int(modules)


def probe_specs(workload: str, seed: int) -> list[dict]:
    """The fresh (non-repeat) specs of the workload's first round."""
    first = ROUNDS[workload](random.Random(f"{workload}:{seed}:0"))
    return [study.payload for study in first if study.repeat_of is None]


def probe_layers(workload: str, seed: int, shard_size: int, work: Path) -> dict:
    """Time each layer's public functions on the workload's own specs."""
    from repro import backends
    from repro.contention.simulate import contention_columns
    from repro.distributed.scheduler import shard_schedule
    from repro.studies import ScenarioSpec, StudyCache, run_study
    from repro.studies.executor import shard_ranges

    payloads = probe_specs(workload, seed)
    m: dict[str, float] = {}
    m["cli.import_s"], m["cli.modules_loaded"] = probe_import()

    reps = 20
    t = time.perf_counter()
    for _ in range(reps):
        specs = [ScenarioSpec.from_dict(p) for p in payloads]
    m["studies.spec.parse_s"] = (time.perf_counter() - t) / (reps * len(payloads))

    calls = [0]
    original = ScenarioSpec.__dict__["from_dict"]

    def counting(cls, payload):
        calls[0] += 1
        return original.__func__(cls, payload)

    run_s, shard_s, results = [], [], []
    ScenarioSpec.from_dict = classmethod(counting)
    try:
        for payload in payloads:
            spec = ScenarioSpec.from_dict(payload)
            stamps = [time.perf_counter()]
            results.append(run_study(spec, shard_size=shard_size,
                                     progress=lambda *a: stamps.append(time.perf_counter())))
            run_s.append(stamps[-1] - stamps[0])
            shard_s += [b - a for a, b in zip(stamps, stamps[1:])]
    finally:
        ScenarioSpec.from_dict = original
    m["studies.spec.validations_per_study"] = calls[0] / len(payloads)
    m["studies.executor.run_study_s"] = _mean(run_s)
    m["studies.executor.shard_s"] = _mean(shard_s)

    # Backend sweeps over the workload's config blocks.  A backend the
    # workload never runs sweeps the workload's closed_form blocks.
    blocks = defaultdict(list)
    for spec in specs:
        for _, config, lps in spec.config_blocks():
            model = {k: v for k, v in config.items() if k != "scheduler"}
            blocks[model["backend"]].append((model, lps))
    for name in ("closed_form", "aspen", "des"):
        todo = blocks.get(name) or [({**c, "backend": name}, lps) for c, lps in blocks["closed_form"]]
        backend = backends.get(name)
        t = time.perf_counter()
        for config, lps in todo:
            backend.sweep(config, lps)
        m[f"backends.{name}.points_per_s"] = sum(len(l) for _, l in todo) / (time.perf_counter() - t)

    contended = [(c, lps) for c, lps in blocks["des"] if (c["sessions"], c["arrival_rate"]) != (1, 0.0)]
    if not contended:
        c, lps = blocks["closed_form"][0]
        contended = [({**c, "backend": "des", "sessions": 2}, lps[:2])]
    t = time.perf_counter()
    for config, lps in contended:
        contention_columns(config, lps, range(len(lps)), seed)
    m["contention.columns_s"] = (time.perf_counter() - t) / len(contended)

    shard_schedule(specs[-1], shard_size, "static")
    t = time.perf_counter()
    shard_schedule(specs[-1], shard_size, "static")
    m["distributed.scheduler.shard_schedule_s"] = time.perf_counter() - t

    art_s, art_mb = [], []
    for res in results:
        t = time.perf_counter()
        body = res.artifact_bytes()
        art_s.append(time.perf_counter() - t)
        art_mb.append(len(body) / 1e6)
    m["studies.results.artifact_bytes_s"] = _mean(art_s)
    m["studies.results.artifact_mb"] = _mean(art_mb)

    cache = StudyCache(work / "probe-cache")
    store_s, load_s = [], []
    for spec, res in zip(specs, results):
        ranges = shard_ranges(spec.num_points, shard_size)
        t = time.perf_counter()
        for k, (a, b) in enumerate(ranges):
            cache.store_shard(spec, shard_size, k, res.table[a:b])
        store_s.append(time.perf_counter() - t)
        t = time.perf_counter()
        for k in range(len(ranges)):
            cache.load_shard(spec, shard_size, k)
        load_s.append(time.perf_counter() - t)
    m["studies.cache.store_s"] = _mean(store_s)
    m["studies.cache.load_s"] = _mean(load_s)
    return m


def probe_distributed(workload: str, seed: int, shard_size: int, tracer: Tracer) -> tuple[dict, list]:
    """In-process coordinator + one ``ShardWorker`` thread on the probe specs.

    Returns the coordinator's health gauges and ``(study_id, issued_at)``.
    """
    from repro.distributed import ShardCoordinator
    from repro.distributed.worker import ShardWorker
    from repro.studies import ScenarioSpec

    coordinator = ShardCoordinator()
    stop = threading.Event()
    worker = ShardWorker(TimedTransport(coordinator, tracer), worker_id="probe", poll_s=0.2)
    thread = threading.Thread(target=worker.run, kwargs={"stop": stop}, daemon=True)
    thread.start()
    issued = []
    try:
        for payload in probe_specs(workload, seed):
            t = time.monotonic()
            study_id = coordinator.register_study(ScenarioSpec.from_dict(payload), shard_size)
            issued.append((study_id, t))
            coordinator.wait(study_id, timeout=120.0)
    finally:
        stop.set()
        thread.join(timeout=10.0)
    return coordinator.health(), issued


def distributed_metrics(spans: list[dict], health: dict, issued: list) -> dict:
    by_name = defaultdict(list)
    first_lease: dict[str, float] = {}
    for span in spans:
        by_name[span["name"]].append(span["end"] - span["start"])
        if span["name"] == "distributed.lease":
            first_lease[span["study"]] = min(first_lease.get(span["study"], float("inf")), span["end"])
    waits = [first_lease[s] - t for s, t in issued if s in first_lease]
    pushes = len(by_name["distributed.push"])
    useful = pushes - health["duplicate_pushes"] - health["rejected_pushes"]
    return {
        "distributed.first_lease_wait_s": _mean(waits),
        "distributed.lease_s": _mean(by_name["distributed.lease"]),
        "distributed.push_s": _mean(by_name["distributed.push"]),
        "distributed.shard_eval_s": _mean(by_name["distributed.shard_eval"]),
        "distributed.leases_per_study": health["leases_granted"] / max(len(issued), 1),
        "distributed.inline_shards": health["inline_shards"],
        "distributed.useful_push_ratio": useful / pushes if pushes else 0.0,
    }


def service_metrics(jobs: list[dict], spans: list[dict]) -> dict:
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span["end"] - span["start"])
    return {
        "service.submit_s": _mean(by_name["service.submit"]),
        "service.job_s": _mean(j["job_s"] for j in jobs),
        "service.overhead_s": _mean(j["latency_s"] - j["job_s"] for j in jobs),
        "service.status_polls_per_study": _mean(j["polls"] for j in jobs),
        "service.artifact_fetch_s": _mean(by_name["service.artifact_fetch"]),
    }


def read_spans(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line]


