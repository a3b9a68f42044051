"""Independent correctness checks of every artifact a workload produced.

Each check recomputes a property from the artifact's own columns with the
benchmark's formulas, not by comparing against a stored copy:

* Eq. 6: ``repetitions == ceil(log(1 - pa) / log(1 - ps))``;
* ``total_s == stage1_s + stage2_s + stage3_s``, ``quantum_fraction ==
  stage2_s / total_s`` and ``dominant_stage == argmax`` of the stages;
* aspen rows equal the closed_form rows within the tolerance the aspen
  backend declares;
* a relabelled repeat equals its original byte for byte, except the name
  (the original's checks then hold for it too);
* a served or fleet artifact is byte-identical to the same spec run
  in-process through ``run_study`` at the same shard size;
* DES rows have ``p50 <= p95 <= p99``, ``queue_wait_s >= 0`` and
  utilization in (0, 1]; on ``sessions=0`` rows (an open Poisson stream)
  the utilization lies within a factor 2 of ``rho = lambda E[S]`` and the
  mean wait within the envelope below around the M/M/1 formula
  ``Wq = rho s / (1 - rho)``, where ``E[S]`` comes from the stream's size
  mix, not from the row; pooled over all such rows of a run, the mean of
  ``wait / Wq_PK`` (Pollaczek-Khinchine) and of ``utilization / rho``
  must lie within a few standard errors of 1 (``pooled_des_errors``).

``check_all`` runs after the timed part of a run, so checking costs no
measured time, in two worker processes forked from the benchmark.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing
from pathlib import Path

import numpy as np


#: M/M/1 envelope for each sessions=0 DES row: ``|Wq - Wq_mm1| <=
#: WAIT_RTOL * Wq_mm1 + WAIT_ATOL_SERVICE * s``.  A wide, per-row sanity
#: bound: the simulated server is M/G/1 (a deterministic size mix), whose
#: mean wait lies between the M/D/1 half and the full M/M/1 value, and one
#: row's 128-request open stream is noisy.  The two-sided test is pooled
#: over the run (below).
WAIT_RTOL = 1.0
WAIT_ATOL_SERVICE = 0.25

#: LPS multiples of the DES request-size mix: each request of a
#: contended row draws one of them uniformly (the program's documented
#: ``SIZE_SPREAD``).  One QPU acquisition holds the annealer for the
#: processor initialization plus the anneal (stage 2) of that size.
SIZE_MIX = (0.5, 1.0, 2.0)

#: Queue policies whose sessions=0 rows the queueing formulas describe:
#: one QPU acquisition per request.  (round-robin splits a request into
#: quanta that each wait and re-pay the initialization.)
SINGLE_ACQUISITION = ("fifo", "priority")

#: Per-row standard deviation of ``wait / Wq_PK`` and ``utilization /
#: (lambda E[S])`` on the service_mixed stream's sessions=0 rows: 0.40 and
#: 0.090 over 1728 rows (means 0.991 and 1.002), rounded up.  A run's
#: pooled means must lie within POOLED_SIGMAS standard errors of 1: at the
#: 72-96 rows of a run, about 1 +- 0.29 for the wait and 1 +- 0.065 for
#: the utilization, so waits halved or zeroed, or an M/M/1 server in place
#: of the deterministic one (waits doubled), fail.
WAIT_ROW_SD = 0.41
UTILIZATION_ROW_SD = 0.092
POOLED_SIGMAS = 6.0

#: Relative tolerance of sum and ratio identities (float rounding only).
ROUNDING_RTOL = 1e-12

_STAGES = ("stage1_s", "stage2_s", "stage3_s")
_TEXT = ("backend", "scheduler", "queue_policy", "embedding_mode", "dominant_stage")


def _name_field(name: str) -> bytes:
    return b'"name":' + json.dumps(name).encode()


def _close(a: np.ndarray, b: np.ndarray, rtol: float, atol: float = 0.0) -> np.ndarray:
    return np.abs(a - b) <= atol + rtol * np.abs(b)


def check_rows(columns: dict, points: int, ratios: list) -> list[str]:
    """Row identities of one artifact's columns; returns the failures.

    Appends the pooled-test ratios of its sessions=0 DES rows to ``ratios``.
    """
    if len(columns["lps"]) != points:
        return [f"{len(columns['lps'])} rows, expected {points}"]
    errors = []
    # JSON null (a NaN column entry) becomes NaN here.
    col = {k: np.asarray(v, dtype=float) for k, v in columns.items() if k not in _TEXT}
    pa, ps = col["accuracy"], col["success"]
    reps = np.ceil(np.log(1.0 - pa) / np.log(1.0 - ps))
    if not np.array_equal(reps, col["repetitions"]):
        errors.append("repetitions differ from Eq. 6")
    s1, s2, s3, total = (col[k] for k in (*_STAGES, "total_s"))
    if not np.all(total > 0):
        errors.append("non-positive total_s")
    if not np.all(_close(total, s1 + s2 + s3, ROUNDING_RTOL)):
        errors.append("total_s != stage1_s + stage2_s + stage3_s")
    if not np.all(_close(col["quantum_fraction"], s2 / total, ROUNDING_RTOL)):
        errors.append("quantum_fraction != stage2_s / total_s")
    names = np.array(["stage1", "stage2", "stage3"])
    argmax = names[np.argmax(np.stack([s1, s2, s3]), axis=0)]
    if not np.array_equal(argmax, np.asarray(columns["dominant_stage"])):
        errors.append("dominant_stage != argmax of the stages")

    backend = np.asarray(columns["backend"])
    des = backend == "des"
    if np.any(~np.isnan(col["utilization"][~des])):
        errors.append("contention columns on a non-DES row")
    if des.any():
        errors += _check_des({k: v[des] for k, v in col.items()},
                             np.asarray(columns["queue_policy"])[des], ratios)
    if {"closed_form", "aspen"} <= set(backend.tolist()):
        errors += _check_aspen(col, backend)
    return errors


def _check_aspen(col: dict, backend: np.ndarray) -> list[str]:
    from repro.backends import capabilities

    caps = capabilities("aspen")
    cf, asp = backend == "closed_form", backend == "aspen"
    if cf.sum() != asp.sum():
        return ["closed_form and aspen blocks differ in size"]
    for key in (*_STAGES, "total_s"):
        if not np.all(_close(col[key][asp], col[key][cf], caps.rtol, caps.atol)):
            return [f"aspen {key} outside rtol={caps.rtol} of closed_form"]
    return []


def _service_moments(lps: float, pa: float, ps: float) -> tuple[float, float]:
    """``(E[S], E[S^2])`` of one QPU acquisition over the size mix."""
    model = _model()
    times = []
    for multiple in SIZE_MIX:
        t = model.time_to_solution(max(int(round(lps * multiple)), 0), pa, ps)
        times.append(t.stage1.processor_initialize + t.stage2.total)
    times = np.asarray(times)
    return float(times.mean()), float((times**2).mean())


@functools.lru_cache(maxsize=1)
def _model():
    from repro.core.pipeline import SplitExecutionModel

    return SplitExecutionModel()


def _check_des(col: dict, policies: np.ndarray, ratios: list) -> list[str]:
    """Contention columns of the DES rows (``col`` holds only those rows).

    Appends ``[wait / Wq_PK, utilization / rho]`` of every sessions=0 row
    to ``ratios`` for the run's pooled test.
    """
    p50, p95, p99 = col["latency_p50_s"], col["latency_p95_s"], col["latency_p99_s"]
    wait, util = col["queue_wait_s"], col["utilization"]
    if np.isnan(util).any():
        return ["DES row without contention metrics"]
    errors = []
    if not (np.all(p50 <= p95) and np.all(p95 <= p99)):
        errors.append("latency percentiles out of order")
    if not np.all(wait >= 0):
        errors.append("negative queue wait")
    if not np.all((util > 0) & (util <= 1)):
        errors.append("utilization outside (0, 1]")
    for i in np.flatnonzero(col["sessions"] == 0):
        if policies[i] not in SINGLE_ACQUISITION:
            errors.append(f"no queueing formula for open rows under {policies[i]}")
            continue
        lam = col["arrival_rate"][i]
        s, s2 = _service_moments(col["lps"][i], col["accuracy"][i], col["success"][i])
        rho = lam * s
        if rho >= 1:
            errors.append(f"open stream at rho = {rho:.3f} >= 1")
            continue
        if not 0.5 <= util[i] / rho <= 2.0:
            errors.append(f"utilization {util[i]:.4g} not within a factor 2 of "
                          f"lambda E[S] = {rho:.4g}")
        mm1 = rho * s / (1.0 - rho)
        if abs(wait[i] - mm1) > WAIT_RTOL * mm1 + WAIT_ATOL_SERVICE * s:
            errors.append(f"sessions=0 mean wait outside the M/M/1 envelope "
                          f"({(wait[i] - mm1) / s:.3f} s-units)")
        pk = lam * s2 / (2.0 * (1.0 - rho))  # Pollaczek-Khinchine M/G/1
        ratios.append([float(wait[i] / pk), float(util[i] / rho)])
    return errors


def pooled_des_errors(ratios: list) -> list[str]:
    """The run's two-sided test over all its sessions=0 rows."""
    if not ratios:
        return []
    r = np.asarray(ratios)
    n = len(r)
    errors = []
    for k, what, sd in ((0, "mean wait / Wq_PK", WAIT_ROW_SD),
                        (1, "utilization / (lambda E[S])", UTILIZATION_ROW_SD)):
        mean, tol = float(r[:, k].mean()), POOLED_SIGMAS * sd / math.sqrt(n)
        if abs(mean - 1.0) > tol:
            errors.append(f"pooled {what} over {n} sessions=0 rows is {mean:.3f}, "
                          f"outside 1 +- {tol:.3f}")
    return errors


def check_task(task: dict, shard_size: int) -> tuple[list[str], list]:
    """Every check of one artifact: ``(failures, sessions=0 row ratios)``.

    A relabelled repeat is checked against its original's bytes only:
    bytes equal but for the name carry over every check of the original,
    and its rows do not enter the pooled test a second time.
    """
    body = Path(task["path"]).read_bytes()
    payload = task["payload"]
    errors = []
    ratios: list = []
    if task["original"] is not None:
        original = Path(task["original"]).read_bytes()
        old, new = _name_field(task["original_name"]), _name_field(payload["name"])
        if original.count(old) != 1 or body.count(new) != 1:
            errors.append("name field not found exactly once")
        elif original.replace(old, new) != body:
            errors.append("relabelled repeat differs from its original beyond the name")
    else:
        artifact = json.loads(body)
        if artifact["spec"]["name"] != payload["name"]:
            errors.append("artifact carries another name")
        points = math.prod(len(v) for v in payload["axes"].values())
        errors += check_rows(artifact["columns"], points, ratios)
    if task["reference"]:
        from repro.studies import ScenarioSpec, run_study

        spec = ScenarioSpec.from_dict(payload)
        if run_study(spec, shard_size=shard_size).artifact_bytes() != body:
            errors.append("artifact differs from the in-process run_study bytes")
    return [f"{payload['name']}: {e}" for e in errors], ratios


def _check(args: tuple) -> tuple:
    index, task, shard_size = args
    return (index, *check_task(task, shard_size))


def check_all(tasks: list[dict], shard_size: int, processes: int = 2) -> list[list[str]]:
    """Check every artifact; one error list per task (empty = correct).

    The tasks go to ``processes`` forked workers one at a time, largest
    first, so the workers finish together.  The run-level test over all
    sessions=0 DES rows is added to the errors of every task that has
    such rows.
    """
    order = sorted(range(len(tasks)), key=lambda i: -math.prod(
        len(v) for v in tasks[i]["payload"]["axes"].values()))
    errors: list[list[str]] = [["no check result"] for _ in tasks]
    ratios: list[list] = [[] for _ in tasks]
    with multiprocessing.get_context("fork").Pool(processes) as pool:
        jobs = [(i, tasks[i], shard_size) for i in order]
        for index, task_errors, task_ratios in pool.imap_unordered(_check, jobs):
            errors[index], ratios[index] = task_errors, task_ratios
    pooled = pooled_des_errors([r for task_ratios in ratios for r in task_ratios])
    return [errors[i] + [f"{tasks[i]['payload']['name']}: {e}" for e in pooled]
            if ratios[i] else errors[i] for i in range(len(tasks))]
