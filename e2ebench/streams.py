"""Seeded spec streams: one list of studies per round, per workload.

Every round of a workload has the same make-up: the same grid shapes, so
the same point counts, shard counts and per-study work, in the same order.
The seed picks only the values on the axes (LPS offsets, accuracy and
success values, arrival rates, the spec's own MC seed and the names), so
two seeds load the program with the same amount of work and different
numbers.  A fresh study always gets a fresh spec ``seed``, which is part
of the cache identity, so it can never be served from a cache filled
earlier in the run; a relabelled repeat copies an earlier study of the
same round under a new name, so its shards are all cache hits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Accuracy and success values the streams draw from.  No pair puts the
#: Eq.-6 ratio log(1-pa)/log(1-ps) within 0.01 of an integer, so the
#: benchmark's own ceil() cannot disagree with the program's by rounding.
ACCURACIES = (0.5, 0.85, 0.9, 0.95, 0.98, 0.99, 0.995)
SUCCESSES = (0.3, 0.45, 0.6, 0.7, 0.75)

#: Open Poisson rates (requests/s) of the DES rows that have sessions=0.
#: At these rates the annealer is about 6-10% busy.
OPEN_RATES = (0.2, 0.25, 0.3)

#: LPS of the DES grid with sessions=0 rows.  Each request spends its
#: size's stage-1 time (generation and embedding) before it reaches the
#: annealer: at most ~8 s for 2x12 LPS against the ~500 s over which the
#: 128 open requests arrive, so the annealer sees a Poisson stream and the
#: benchmark's queueing formulas apply.  At 2x48 LPS that time is ~540 s,
#: which spreads the arrivals out and lowers the mean wait to ~0.85 of the
#: M/G/1 value.
OPEN_LPS = range(4, 13)

BOTH = ["closed_form", "aspen"]


@dataclass
class Study:
    """One study of a stream: the spec payload plus how to run and check it."""

    payload: dict
    points: int
    workers: int = 1                 # cli_cold only: --workers for the process
    repeat_of: int | None = None     # index in the round of the original study

    @property
    def name(self) -> str:
        return self.payload["name"]


def _grid(rng: random.Random, n_acc: int, n_succ: int, n_lps: int) -> dict:
    start = rng.randrange(1, 400)
    axes = {"backend": list(BOTH), "lps": list(range(start, start + n_lps))}
    if n_acc > 1:
        axes["accuracy"] = sorted(rng.sample(ACCURACIES, n_acc))
    if n_succ > 1:
        axes["success"] = sorted(rng.sample(SUCCESSES, n_succ))
    return axes


def _fresh(rng: random.Random, tag: str, axes: dict, **kw) -> Study:
    points = 1
    for values in axes.values():
        points *= len(values)
    payload = {
        "name": f"{tag}-{rng.randrange(16**6):06x}",
        "axes": axes,
        "mc_trials": 0,
        "seed": rng.randrange(2**31),
    }
    return Study(payload=payload, points=points, **kw)


def _repeat(rng: random.Random, round_: list[Study], index: int) -> Study:
    original = round_[index]
    payload = dict(original.payload, name=f"again-{rng.randrange(16**6):06x}")
    return Study(payload=payload, points=original.points, repeat_of=index)


def cli_cold_round(rng: random.Random) -> list[Study]:
    """8 studies, 400 to 40k points; 2 relabelled repeats; 40k on 2 workers."""
    r: list[Study] = []
    r.append(_fresh(rng, "c400", _grid(rng, 1, 1, 200)))
    r.append(_fresh(rng, "c1k2", _grid(rng, 2, 1, 300)))
    r.append(_fresh(rng, "c6k", _grid(rng, 3, 1, 1000)))
    r.append(_fresh(rng, "c2k4", _grid(rng, 2, 1, 600)))
    r.append(_repeat(rng, r, 2))
    r.append(_fresh(rng, "c12k", _grid(rng, 3, 2, 1000)))
    r.append(_fresh(rng, "c40k", _grid(rng, 4, 5, 1000), workers=2))
    r.append(_repeat(rng, r, 3))
    return r


def _des_open(rng: random.Random) -> dict:
    return {
        "backend": ["des"],
        "queue_policy": ["fifo", "priority"],
        "sessions": [0, 2],
        "arrival_rate": sorted(rng.sample(OPEN_RATES, 2)),
        "lps": sorted(rng.sample(OPEN_LPS, 2)),
    }


def _des_closed(rng: random.Random) -> dict:
    return {
        "backend": ["des"],
        "queue_policy": ["fifo", "round-robin"],
        "sessions": [2, 4],
        "arrival_rate": [0.0, rng.choice(OPEN_RATES)],
        "lps": [rng.randrange(4, 48)],
    }


def service_mixed_round(rng: random.Random) -> list[Study]:
    """10 studies: six 16k grids and one 800-point grid, one repeat, 2 DES grids.

    Six of ten studies are 16k grids, so both the median and the tail of a
    run fall inside the 16k cluster, the heaviest one, and neither lands on
    a gap between two clusters of study sizes, where a percentile moves
    with the extremes of both.  Small served studies are also the most
    sensitive to CPU time the host withholds: handing work between the
    client, the HTTP threads and the job thread costs more there than the
    work itself.
    """
    r: list[Study] = []
    r.append(_fresh(rng, "s800", _grid(rng, 1, 1, 400)))
    r.append(_fresh(rng, "s16k", _grid(rng, 4, 2, 1000)))
    r.append(_fresh(rng, "des-open", _des_open(rng)))
    r.append(_fresh(rng, "s16k", _grid(rng, 4, 2, 1000)))
    r.append(_repeat(rng, r, 1))
    r.append(_fresh(rng, "s16k", _grid(rng, 4, 2, 1000)))
    r.append(_fresh(rng, "des-closed", _des_closed(rng)))
    for _ in range(3):
        r.append(_fresh(rng, "s16k", _grid(rng, 4, 2, 1000)))
    return r


def fleet_round(rng: random.Random) -> list[Study]:
    """3 fresh grids of 8k, 24k and 4k points (2, 6 and 1 shards of 4096)."""
    shapes = ((2, 2), (4, 3), (2, 1))
    return [
        _fresh(rng, f"f{2048 * a * s // 1024}k", _grid(rng, a, s, 1024))
        for a, s in shapes
    ]


ROUNDS = {
    "cli_cold": cli_cold_round,
    "service_mixed": service_mixed_round,
    "fleet": fleet_round,
}


def rounds(workload: str, seed: int):
    """Endless rounds of ``workload``'s stream for ``seed``."""
    make = ROUNDS[workload]
    index = 0
    while True:
        yield make(random.Random(f"{workload}:{seed}:{index}"))
        index += 1
