"""Outside-in layer tracing for the benchmark.

Spans are installed by the benchmark alone: :func:`instrument` wraps the
public entry points of each simulator layer (class methods and the
module-level names the simulator calls through) for the duration of a
traced op and restores the originals afterwards.  No program code knows
about the tracer.

A span is one call into a layer.  Its *self time* is its duration minus
the durations of the spans it directly encloses, so within one op the
self times of all spans, the op's root span included, add up to the
root span's duration by construction.  What can go wrong is coverage:
time no span covers is charged, silently, to the nearest traced parent.
:meth:`Tracer.check_op` therefore checks each op against things the
span arithmetic does not give for free: the self times against a clock
read outside the root span, the layers the op must have called, and the
share of the op left to the root span itself (the glue no layer covers).

Per-transaction layers (cache, NoC, DRAM, core ticks) produce millions
of spans per op, so they are folded into per-layer call counts and self
times as they close.  Coarse spans (an op, ``simulate``, an engine run,
a profiling or precharacterization pass, a metrics gather) are also kept
whole -- name, start, end, parent span and op id -- and written out when
the benchmark ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence

#: Root span of every op; its self time is the benchmark's own glue.
OP = "bench.op"
MAKE_APP = "tracegen.make_app"
SIMULATE = "simulators.simulate"
EVALUATE_BATCH = "simulators.analytic.evaluate_batch"
PARALLEL = "simulators.parallel"
PRECHARACTERIZE = "frontend.precharacterize"
PROFILE = "memory.analytical.profile"
ACCESS_FUNCTIONAL = "memory.cache.access_functional"
ANALYTICAL_ACCESS = "memory.analytical.access_global"
ENGINE_RUN = "sim.engine.run"
SM_TICK = "core.sm.tick"
SUBCORE_TICK = "core.subcore.tick"
ACCESS_GLOBAL = "memory.access_global"
COALESCE = "memory.coalesce"
L1_ACCESS = "memory.l1.access"
L2_ACCESS = "memory.l2.access"
NOC_SEND = "memory.noc.send"
DRAM_RESERVE = "memory.dram.reserve"
GATHER = "sim.metrics.gather"

LAYERS = (
    OP, MAKE_APP, SIMULATE, EVALUATE_BATCH, PARALLEL, PRECHARACTERIZE,
    PROFILE, ACCESS_FUNCTIONAL, ANALYTICAL_ACCESS, ENGINE_RUN, SM_TICK,
    SUBCORE_TICK, ACCESS_GLOBAL, COALESCE, L1_ACCESS, L2_ACCESS, NOC_SEND,
    DRAM_RESERVE, GATHER,
)

#: Layers whose individual spans are kept (few per op).
RECORDED = frozenset(
    {OP, MAKE_APP, SIMULATE, EVALUATE_BATCH, PARALLEL, PRECHARACTERIZE,
     PROFILE, ENGINE_RUN, GATHER}
)

#: Most the root span's self time (the benchmark's own glue, which no
#: layer covers) may take of an op.  A layer entry point the benchmark
#: no longer wraps -- a subclass that overrides ``simulate``, say --
#: leaves its whole time here.
MAX_GLUE_SHARE = 0.02

#: Most an op's self times may fall short of the wall read around it.
#: Opening and closing the root span take microseconds.
MAX_UNCOVERED_S = 0.005


class CoverageError(Exception):
    """An op's spans did not cover it: a wrapper missed its code path."""


class Tracer:
    """Open-span stack plus per-layer call counts and self times.

    A frame is ``[layer index, start, child seconds]``, with a fourth
    element, the span id, for recorded spans.  The bottom frame is a
    sentinel that is never popped, so a wrapped call always has a parent
    to charge its duration to.
    """

    def __init__(self, layers: Sequence[str] = LAYERS,
                 recorded=RECORDED,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.layers = tuple(layers)
        self.index: Dict[str, int] = {n: i for i, n in enumerate(self.layers)}
        self.recorded = frozenset(self.index[n] for n in recorded if n in self.index)
        self.clock = clock
        self.calls: List[int] = [0] * len(self.layers)
        self.self_s: List[float] = [0.0] * len(self.layers)
        self.stack: List[list] = [[-1, 0.0, 0.0]]
        #: Recorded spans: (span id, layer, start, end, parent span id, op id).
        self.spans: List[tuple] = []
        #: Per op: (op id, label, wall seconds, {layer: (calls, self_s)}).
        self.ops: List[tuple] = []
        #: Largest :meth:`check_op` shortfall of self times against an op's wall.
        self.max_uncovered_s = 0.0
        self._next_span = 0
        self._op_id: Optional[int] = None

    # ------------------------------------------------------------------
    # spans

    def _open(self, index: int) -> list:
        if index in self.recorded:
            span_id = self._next_span
            self._next_span = span_id + 1
            frame = [index, self.clock(), 0.0, span_id]
        else:
            frame = [index, self.clock(), 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list) -> float:
        end = self.clock()
        duration = end - frame[1]
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError("spans closed out of order")
        self.stack[-1][2] += duration
        index = frame[0]
        self.calls[index] += 1
        self.self_s[index] += duration - frame[2]
        if len(frame) == 4:
            self.spans.append((frame[3], self.layers[index], frame[1], end,
                               self._parent_span(), self._op_id))
        return duration

    def _parent_span(self) -> Optional[int]:
        for frame in reversed(self.stack):
            if len(frame) == 4:
                return frame[3]
        return None

    def wrap(self, fn: Callable, layer: str) -> Callable:
        """``fn`` with every call recorded as a span of ``layer``."""
        index = self.index[layer]
        if index in self.recorded:
            def traced_recorded(*args, **kwargs):
                frame = self._open(index)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(frame)
            return traced_recorded
        # Hot path: the same arithmetic as _open/_close, inlined.
        stack = self.stack
        clock = self.clock
        calls = self.calls
        self_s = self.self_s

        def traced(*args, **kwargs):
            frame = [index, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                stack[-1][2] += duration
                calls[index] += 1
                self_s[index] += duration - frame[2]
        return traced

    # ------------------------------------------------------------------
    # ops

    def begin_op(self, op_id: int) -> list:
        """Open the root span of op ``op_id``; per-layer tallies restart."""
        if len(self.stack) != 1:
            raise RuntimeError("an op is already open")
        self._op_id = op_id
        for i in range(len(self.layers)):
            self.calls[i] = 0
            self.self_s[i] = 0.0
        return self._open(self.index[OP])

    def end_op(self, frame: list, label: str) -> float:
        """Close the op's root span and file its per-layer tallies;
        return its wall time."""
        wall = self._close(frame)
        per_layer = {
            name: (self.calls[i], self.self_s[i])
            for i, name in enumerate(self.layers) if self.calls[i]
        }
        self.ops.append((self._op_id, label, wall, per_layer))
        self._op_id = None
        return wall

    def check_op(self, outer_wall: float, required: Sequence[str] = (),
                 max_glue_share: float = MAX_GLUE_SHARE) -> float:
        """Check the last op's coverage; return its uncovered seconds.

        ``outer_wall`` is the op's wall read by the caller around
        :meth:`begin_op` .. :meth:`end_op`.  Raises :class:`CoverageError`
        when the self times fall short of it by more than
        :data:`MAX_UNCOVERED_S` (or exceed it), when a ``required`` layer
        opened no span, or when the root span's own share of the op is
        above ``max_glue_share``.
        """
        __, label, wall, per_layer = self.ops[-1]
        uncovered = outer_wall - sum(own for __, own in per_layer.values())
        self.max_uncovered_s = max(self.max_uncovered_s, uncovered)
        if not 0.0 <= uncovered <= MAX_UNCOVERED_S:
            raise CoverageError(
                f"op {label!r}: self times leave {uncovered!r}s of the "
                f"{outer_wall!r}s op wall uncovered")
        missing = [layer for layer in required if layer not in per_layer]
        if missing:
            raise CoverageError(f"op {label!r}: no span of {', '.join(missing)}")
        glue = per_layer[OP][1] / wall if wall > 0 else 0.0
        if glue > max_glue_share:
            raise CoverageError(
                f"op {label!r}: {100 * glue:.1f}% of the op is in no layer "
                f"(at most {100 * max_glue_share:g}%)")
        return uncovered

    def report(self) -> Dict[str, dict]:
        """Per layer: calls, self seconds and share of all traced op wall."""
        total = sum(op[2] for op in self.ops)
        out = {}
        for name in self.layers:
            calls = sum(op[3].get(name, (0, 0.0))[0] for op in self.ops)
            own = sum(op[3].get(name, (0, 0.0))[1] for op in self.ops)
            out[name] = {
                "calls": calls,
                "self_s": own,
                "share": own / total if total > 0 else 0.0,
            }
        return out

    def dump(self) -> dict:
        return {
            "layers": list(self.layers),
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "op": s[5]}
                for s in self.spans
            ],
            "ops": [
                {"op": op[0], "label": op[1], "wall_s": op[2],
                 "layers": {k: {"calls": v[0], "self_s": v[1]}
                            for k, v in op[3].items()}}
                for op in self.ops
            ],
        }


# ----------------------------------------------------------------------
# installing the spans


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap the simulator layers' entry points for the ``with`` body.

    Classes and modules are patched in place, so objects built inside
    the body pick up the wrappers; the originals are restored on exit.
    """
    from repro.core.sm import SMCore
    from repro.core.subcore import SubCore
    from repro.frontend import precharacterize as precharacterize_module
    from repro.memory import analytical, hierarchy, reuse_distance
    from repro.memory.analytical import AnalyticalMemoryModel, MemoryProfile
    from repro.memory.cache import SectoredCache
    from repro.memory.dram import DRAMPartition
    from repro.memory.hierarchy import QueuedMemorySystem
    from repro.memory.noc import ReservedNoC
    from repro.sim.engine import Engine
    from repro.sim.metrics import MetricsGatherer
    from repro.simulators import swift_analytic
    from repro.simulators.base import PlanSimulator
    from repro.simulators.swift_analytic import SwiftSimAnalytic

    plain = [
        (PlanSimulator, "simulate", SIMULATE),
        (SwiftSimAnalytic, "evaluate_batch", EVALUATE_BATCH),
        (swift_analytic, "precharacterize", PRECHARACTERIZE),
        (SectoredCache, "access_functional", ACCESS_FUNCTIONAL),
        (AnalyticalMemoryModel, "access_global", ANALYTICAL_ACCESS),
        (Engine, "run", ENGINE_RUN),
        (SMCore, "tick", SM_TICK),
        (SubCore, "tick", SUBCORE_TICK),
        (QueuedMemorySystem, "access_global", ACCESS_GLOBAL),
        (ReservedNoC, "send_request", NOC_SEND),
        (ReservedNoC, "send_response", NOC_SEND),
        (DRAMPartition, "reserve", DRAM_RESERVE),
        (MetricsGatherer, "gather", GATHER),
    ]
    plain += [
        (module, "coalesce", COALESCE)
        for module in (hierarchy, analytical, reuse_distance,
                       precharacterize_module)
    ]
    saved = []
    try:
        for owner, attr, layer in plain:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), layer))
        raw_profile = MemoryProfile.__dict__["for_application"]
        saved.append((MemoryProfile, "for_application", raw_profile))
        MemoryProfile.for_application = staticmethod(
            tracer.wrap(raw_profile.__func__, PROFILE)
        )
        raw_access = SectoredCache.__dict__["access"]
        saved.append((SectoredCache, "access", raw_access))
        SectoredCache.access = _cache_access(tracer, raw_access)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _cache_access(tracer: Tracer, access: Callable) -> Callable:
    """Name cache spans by instance.

    ``l1_sm*`` caches are the timed L1s and ``l2_slice*`` the timed L2
    slices.  An access made from inside ``access_functional`` belongs to
    a profiler cache (``prof_l1_*`` or a profiler's own L2 slice, which
    shares the timed slices' names), so it gets no span of its own and
    its time stays with ``memory.cache.access_functional``.
    """
    functional = tracer.index[ACCESS_FUNCTIONAL]
    stack = tracer.stack
    as_l1 = tracer.wrap(access, L1_ACCESS)
    as_l2 = tracer.wrap(access, L2_ACCESS)

    def traced_access(cache, *args):
        if stack[-1][0] != functional:
            name = cache.name
            if name.startswith("l1_sm"):
                return as_l1(cache, *args)
            if name.startswith("l2_slice"):
                return as_l2(cache, *args)
        return access(cache, *args)
    return traced_access
