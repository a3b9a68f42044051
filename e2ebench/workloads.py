"""The three closed-loop workloads, each against the real entry points.

One client, one study in flight: the next study is issued only when the
previous one's artifact bytes are on hand, because every caller of this
system (``cli study``, ``cli submit``, ``StudyServiceClient.run``) blocks
on its study.  A run attempts whole rounds of its stream (see
``streams``): a round that starts before the deadline runs to its end.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from procs import (
    Program,
    cli,
    cpu_seconds,
    get_json,
    peak_rss_mb,
    run_cli,
    wait_healthz,
)
from streams import rounds

#: Fixed client poll interval (s).  The client's default backoff
#: (50 ms doubling to 1 s) turns latency into steps that depend on where
#: a job ends relative to the poll schedule; a fixed few-ms poll keeps
#: latency continuous.
POLL_S = 0.005

#: Points per shard of every served and local study (the CLI default).
SHARD_SIZE = 4096

#: Rounds after which the served workloads read peak RSS.  A long-lived
#: server's resident set grows with every study it keeps, so a peak read
#: at the deadline would move with host speed (how many rounds fit); a
#: fixed amount of work, done well within the run on a 2x slower host,
#: keeps it a property of the program.
RSS_ROUNDS = {"service_mixed": 4, "fleet": 5}

_CACHE_LINE = re.compile(r"cache: served (\d+)/(\d+) shards")


class NoTracer:
    """Tracing off: spans cost nothing."""

    def span(self, name: str, study: str | None = None):
        return nullcontext()


@dataclass
class Outcome:
    """What one workload run observed; ``run.py`` turns it into metrics."""

    setup_s: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    points: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    tasks: list = field(default_factory=list)      # artifact checks to run
    layer: dict = field(default_factory=dict)      # raw per-layer observations


def _original(round_: list, paths: list, study) -> dict:
    """The check task's link from a relabelled repeat to its original."""
    if study.repeat_of is None or paths[study.repeat_of] is None:
        return {"original": None, "original_name": None}
    return {"original": str(paths[study.repeat_of]),
            "original_name": round_[study.repeat_of].name}


# ---------------------------------------------------------------------- #
# cli_cold
# ---------------------------------------------------------------------- #
def cli_cold(work: Path, seed: int, seconds: float, setups: int, tracer) -> Outcome:
    out = Outcome()
    # Ready = a one-point `cli study` has exited.  Launch 0 fills the
    # bytecode and page caches and is discarded.
    for i in range(setups + 1):
        wall, code, text, _, _ = run_cli(["study", "--lps", "1", "--no-summary"], work)
        if code != 0:
            raise RuntimeError(f"one-point study failed:\n{text}")
        if i:
            out.setup_s.append(wall)

    cache, specs, arts = work / "cache", work / "specs", work / "artifacts"
    specs.mkdir()
    arts.mkdir()
    hits = requests = 0
    n = 0
    t_start = time.perf_counter()
    deadline = t_start + seconds
    for round_ in rounds("cli_cold", seed):
        if time.perf_counter() >= deadline:
            break
        paths: list[Path | None] = []
        for study in round_:
            n += 1
            spec_path = specs / f"{n}.json"
            spec_path.write_text(json.dumps(study.payload))
            art_path = arts / f"{n}.json"
            args = ["study", "--spec", str(spec_path), "--cache", str(cache),
                    "--out", str(art_path), "--no-summary"]
            if study.workers > 1:
                args += ["--workers", str(study.workers)]
            out.attempted += 1
            with tracer.span("cli.study_process", study.name):
                wall, code, text, cpu, rss = run_cli(args, work)
            out.cpu_s += cpu
            out.peak_rss_mb = max(out.peak_rss_mb, rss)
            if code != 0 or not art_path.exists():
                out.failed += 1
                paths.append(None)
                continue
            paths.append(art_path)
            out.latencies.append(wall)
            out.points += study.points
            match = _CACHE_LINE.search(text)
            if match:
                hits += int(match.group(1))
                requests += int(match.group(2))
            out.tasks.append({
                "path": str(art_path), "payload": study.payload,
                **_original(round_, paths, study), "reference": False,
            })
    out.wall_s = time.perf_counter() - t_start
    out.layer["cache_hits"] = hits
    out.layer["cache_requests"] = requests
    return out


# ---------------------------------------------------------------------- #
# served workloads: service_mixed and fleet
# ---------------------------------------------------------------------- #
def _client_class():
    from repro.service import StudyServiceClient

    class CountingClient(StudyServiceClient):
        """The stock client, counting the status polls ``wait`` makes."""

        polls = 0

        def status(self, job_id: str) -> dict:
            self.polls += 1
            return super().status(job_id)

    return CountingClient


def serve_loop(url: str, workload: str, seed: int, seconds: float, work: Path,
               tracer, out: Outcome, pids: list[int], max_rounds: int | None = None) -> None:
    """Submit -> wait at the fixed poll -> fetch, one study at a time."""
    from repro.service import ServiceError

    client = _client_class()(url)
    arts = work / "artifacts"
    arts.mkdir(parents=True, exist_ok=True)
    jobs = []
    cpu0 = sum(cpu_seconds(pid) for pid in pids)
    t_start = time.perf_counter()
    deadline = t_start + seconds
    for r, round_ in enumerate(rounds(workload, seed)):
        if r == RSS_ROUNDS.get(workload):
            out.peak_rss_mb = max(peak_rss_mb(pid) for pid in pids)
        if time.perf_counter() >= deadline or (max_rounds is not None and r >= max_rounds):
            break
        paths: list[Path | None] = []
        for study in round_:
            out.attempted += 1
            n = out.attempted
            polls0 = client.polls
            issued = time.monotonic()
            t0 = time.perf_counter()
            try:
                with tracer.span("study", study.name):
                    with tracer.span("service.submit"):
                        job_id = client.submit(study.payload)["job_id"]
                    with tracer.span("service.wait"):
                        snap = client.wait(job_id, timeout=120.0, poll_interval=POLL_S,
                                           max_poll_interval=POLL_S)
                    if snap["state"] != "done":
                        raise ServiceError(snap["state"], str(snap.get("error")))
                    with tracer.span("service.artifact_fetch"):
                        body = client.artifact(job_id).body
            except ServiceError as exc:
                print(f"study {study.name} failed: [{exc.code}] {exc.message}", file=sys.stderr)
                out.failed += 1
                paths.append(None)
                continue
            latency = time.perf_counter() - t0
            out.latencies.append(latency)
            out.points += study.points
            jobs.append({
                "job_id": job_id, "issued": issued, "latency_s": latency, "polls": client.polls - polls0,
                "job_s": snap["finished_unix"] - snap["submitted_unix"],
                "shards_total": snap["progress"]["shards_total"],
                "shards_from_cache": snap["progress"]["shards_from_cache"],
            })
            art_path = arts / f"{n}.json"
            art_path.write_bytes(body)
            paths.append(art_path)
            out.tasks.append({
                "path": str(art_path), "payload": study.payload,
                **_original(round_, paths, study),
                # A repeat is checked against its original's bytes, which
                # were checked against the in-process run.
                "reference": study.repeat_of is None,
            })
    out.wall_s = time.perf_counter() - t_start
    out.cpu_s = sum(cpu_seconds(pid) for pid in pids) - cpu0
    if not out.peak_rss_mb:  # the run ended before RSS_ROUNDS
        out.peak_rss_mb = max(peak_rss_mb(pid) for pid in pids)
    out.layer["jobs"] = jobs


def _launch_serve(work: Path) -> tuple[list[Program], float]:
    server = Program(cli(["serve", "--port", "0", "--quiet", "--cache", str(work / "cache")]),
                     work / "programs.log")
    try:
        url = server.read_url()
        wait_healthz(url, lambda body: body.get("status") == "ok")
    except BaseException:
        server.stop()
        raise
    return [server], time.perf_counter() - server.t_launch


def _launch_fleet(work: Path, worker_args: list[str] | None) -> tuple[list[Program], float]:
    """``coordinate --cache`` plus one worker; ready when the worker is attached.

    ``worker_args`` is the worker's argv with ``{url}`` standing for the
    coordinator URL (default: a stock ``cli worker`` at default settings).
    """
    coord = Program(cli(["coordinate", "--port", "0", "--quiet", "--cache", str(work / "cache")]),
                    work / "programs.log")
    programs = [coord]
    try:
        url = coord.read_url()
        argv = worker_args or cli(["worker", "--coordinator", "{url}", "--id", "w0"])
        programs.append(Program([a.replace("{url}", url) for a in argv], work / "programs.log"))
        wait_healthz(url, lambda body: body["distributed"]["workers"] >= 1)
    except BaseException:
        for program in programs:
            program.stop()
        raise
    return programs, time.perf_counter() - coord.t_launch


def _launch_median(launch, setups: int, out: Outcome):
    """Launch ``setups + 1`` times (the first discarded); keep the last alive."""
    kept = None
    for i in range(setups + 1):
        if kept is not None:
            for program in kept:
                program.stop()
        kept, ready_s = launch()
        if i:
            out.setup_s.append(ready_s)
    return kept


def served(workload: str, work: Path, seed: int, seconds: float, setups: int, tracer,
           worker_args: list[str] | None = None) -> Outcome:
    out = Outcome()
    if workload == "service_mixed":
        programs = _launch_median(lambda: _launch_serve(work), setups, out)
    else:
        programs = _launch_median(lambda: _launch_fleet(work, worker_args), setups, out)
    url = programs[0].url
    try:
        serve_loop(url, workload, seed, seconds, work, tracer, out,
                   [p.pid for p in programs])
        # Counters are read once the run has quiesced, not from per-study
        # snapshots taken at `done`.
        time.sleep(0.3)
        out.layer["healthz"] = get_json(f"{url}/healthz")
    finally:
        for program in reversed(programs):
            program.stop()
    return out


def run_workload(workload: str, work: Path, seed: int, seconds: float, setups: int,
                 tracer=None, worker_args: list[str] | None = None) -> Outcome:
    tracer = tracer or NoTracer()
    if workload == "cli_cold":
        return cli_cold(work, seed, seconds, setups, tracer)
    return served(workload, work, seed, seconds, setups, tracer, worker_args)


def tail(samples: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with >= 10 samples beyond it.

    That is the order statistic with exactly ten samples above it.  With
    fewer than 21 samples it would sit below the median, so the median
    is reported (percentile 50).
    """
    n = len(samples)
    if n < 21:
        return statistics.median(samples), 50.0
    ordered = sorted(samples)
    return ordered[n - 11], 100.0 * (n - 10) / n
