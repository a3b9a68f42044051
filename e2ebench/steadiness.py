"""Steadiness check: two sets of runs of one commit, compared per metric.

    python3 e2ebench/steadiness.py [--workloads cli_cold,service_mixed,fleet]
        [--runs 10] [--sets 2]

Runs ``run.py`` ``--runs`` times per set and workload, for the
``run_seconds`` of ``BENCHMARK.json``, each run with its own seed (set
``s`` uses seeds ``1000*s + 1 ...``).  The sets are interleaved: run i of
every set is made before run i + 1 of any, and the order of the sets
rotates from one i to the next, so a slow phase of the host falls on all
sets alike instead of on whichever set ran during it.  For every
end-to-end metric it prints each set's median and quartiles
(``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) / median``
and whether the later sets' medians stay within the metric's bound of the
first set's median in the worse direction.  The bounds and directions are
read from ``BENCHMARK.json``.  It also compares the share of failed
studies between sets, which must be identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the whole machine so far."""
    fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields)


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, float, float]:
    """One ``run.py`` run: its result line, its wall time and the host's
    steal share over it (CPU time the hypervisor gave to other guests)."""
    steal0, total0 = cpu_ticks()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "e2ebench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    wall = time.perf_counter() - t0
    steal1, total1 = cpu_ticks()
    steal = (steal1 - steal0) / max(total1 - total0, 1)
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall, steal


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, spread)`` with spread = (q3 - q1) / median."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()

    metrics = {m["name"]: m for m in config["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        sets: list[list[dict]] = [[] for _ in range(args.sets)]
        for i in range(args.runs):
            for j in range(args.sets):
                s = (i + j) % args.sets
                result, wall, steal = one_run(workload, 1000 * (s + 1) + i + 1,
                                              config["run_seconds"])
                sets[s].append(result)
                print(f"{workload} set {s + 1} run {i + 1} ({wall:.0f} s, steal {steal:.1%}, "
                      f"{result['attempted']} studies): "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        print(f"\n{workload}: failed share per set {shares}; "
              f"correct in every run: {all(r['correct'] for runs in sets for r in runs)}")
        if len(set(shares)) != 1 or not all(r["correct"] for runs in sets for r in runs):
            steady = False
        print(f"  {'metric':<16} {'set':>3} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for name, spec in metrics.items():
            first = None
            for s, runs in enumerate(sets):
                med, q1, q3, spread = summarize([r["metrics"][name]["value"] for r in runs])
                verdict = []
                if name != "setup_s":
                    verdict.append("spread ok" if spread <= spec["bound"] else "SPREAD > BOUND")
                    if spread > spec["bound"] / 3:
                        verdict.append("(spread > bound/3)")
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first if spec["better"] == "lower" else (first - med) / first
                    verdict.append(f"drift {worse:+.3f} " + ("ok" if worse <= spec["bound"] else "WORSE"))
                    if worse > spec["bound"]:
                        steady = False
                if name != "setup_s" and spread > spec["bound"]:
                    steady = False
                print(f"  {name:<16} {s + 1:>3} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                      f"{spread:>7.3f} {spec['bound']:>6}  {' '.join(verdict)}")
        print(flush=True)
    print("STEADY" if steady else "NOT STEADY")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
