"""The benchmark's workloads and the inputs they are built from.

Every workload runs on the ``rtx2080ti`` preset over all 24 registered
applications (the Fig. 4 suite).  All four are closed-loop batch jobs:
the user waits for the whole batch, so the benchmark runs one op after
another and never queues work ahead of the simulator.

Cold/warm rule.  Trace generation is set-up: the ``make_app`` memo is
filled once during set-up and the cost is reported as ``setup_s``.
Every timed op then asks ``make_app`` for a *fresh* ``ApplicationTrace``
wrapper, so the per-trace memos keyed on the wrapper object (the
analytic tier's ``precharacterize`` tasklist, swift-memory's Eq. 1
``MemoryProfile``) start cold on every op and a repeated app can never
turn into a memo hit.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

GPU = "rtx2080ti"
APPS: Tuple[str, ...] = (
    "bfs", "nw", "hotspot", "pathfinder", "gaussian", "srad", "backprop",
    "adi", "2mm", "atax", "bicg", "gemm", "mvt", "corr", "lu", "2dconv",
    "sm", "wc", "gru", "lstm", "alexnet", "pagerank", "sssp", "color",
)

#: Design-space grid of ``sweep-analytic``: 4 x 4 x 4 = 64 lanes, in
#: ``itertools.product`` order.  The L2 sizes are multiples of the 22
#: memory partitions; 5767168 (5.5 MB) is the preset's own L2.
SWEEP_NUM_SMS = (34, 46, 68, 82)
SWEEP_L1_BYTES = (32 * 1024, 64 * 1024, 96 * 1024, 128 * 1024)
SWEEP_L2_BYTES = (2883584, 5767168, 8650752, 11534336)
#: The lane whose parameters equal the preset (oracle error is taken here).
SWEEP_BASE_LANE = (68, 32 * 1024, 5767168)

#: How many uncached trace generations set-up makes before the one that
#: fills the ``make_app`` memo; ``setup_s`` is the median over all of them.
SETUP_REPEATS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str        #: "serial", "sweep" or "fanout"
    simulator: str   #: key into the reference cycle tables
    scale: str
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "suite-basic", "serial", "swift-basic", "small",
            "swift-basic over the 24-app small suite: the reservation memory "
            "hierarchy (L1/NoC/L2/DRAM) and the SM cores do the work",
        ),
        Workload(
            "suite-memory", "serial", "swift-memory", "small",
            "swift-memory over the same suite: Eq. 1 functional cache "
            "profiling replaces timed L1/L2 access and NoC/DRAM are bypassed",
        ),
        Workload(
            "sweep-analytic", "sweep", "swift-analytic", "medium",
            "64-lane design sweep with evaluate_batch at medium scale: "
            "precharacterize dominates; engine, cores and memory never run",
        ),
        Workload(
            "fanout-basic", "fanout", "swift-basic", "small",
            "simulate_apps_parallel(swift-basic) on nproc supervised "
            "workers: the Fig. 5 parallel path, where dispatch order sets the tail",
        ),
    )
}


def sweep_lanes() -> List[Tuple[int, int, int]]:
    return list(itertools.product(SWEEP_NUM_SMS, SWEEP_L1_BYTES, SWEEP_L2_BYTES))


def sweep_configs(base) -> List:
    """The 64 lane configurations, derived from the ``base`` preset."""
    return [
        replace(base, num_sms=sms).with_l1(size_bytes=l1).with_l2(size_bytes=l2)
        for sms, l1, l2 in sweep_lanes()
    ]


def app_order(seed: int, pass_index: int, apps: Sequence[str] = APPS) -> List[str]:
    """The app order of one pass: a permutation drawn from ``seed``.

    Each pass draws its own permutation so a multi-pass run does not
    repeat one fan-out tail.
    """
    rng = random.Random(f"{seed}:{pass_index}")
    order = list(apps)
    rng.shuffle(order)
    return order
