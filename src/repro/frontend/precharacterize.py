"""Static pre-characterization: traces -> architecture-independent tasklists.

The fully-analytical simulator tier (PPT-GPU idiom; see
``docs/analytic-tier.md``) splits modeling into two layers:

1. a **pre-characterization pass** (this module) that walks each loaded
   trace exactly once and reduces every kernel to a small, *architecture-
   independent* summary — the **tasklist**: instruction mix, per-warp
   register-dependence critical paths, coalescing totals, and sector
   reuse-distance distributions;
2. a **closed-form timing model** (:mod:`repro.simulators.swift_analytic`)
   that turns a tasklist plus a batch of GPU parameter vectors into
   predicted cycles with vectorized arithmetic.

Nothing in a tasklist depends on a :class:`GPUConfig`: dependence chains
are recorded as *term counts* (how many INT ops with latency factor 2 sit
on the critical path), not cycle counts, and memory locality is recorded
as *reuse-distance distributions*, not hit rates, so one pass serves any
number of candidate architectures.  Coalescing uses the fixed
128-byte-line / 32-byte-sector geometry every modeled GPU shares.

Tasklists are pure functions of the trace: same trace values in, same
tasklist values out, no RNG, no wall-clock, no live handles — they are
picklable and safe to ship across process boundaries (the sweep-payload
lint family covers this module).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple
from weakref import WeakKeyDictionary

try:  # numpy is required for the analytic tier, but its absence must not
    import numpy as _np  # break `import repro` for the engine-based tiers.
except ImportError:  # pragma: no cover - exercised only on minimal installs
    _np = None

from repro.errors import SimulationError
from repro.frontend.isa import OPCODES, InstKind, MemSpace, OpcodeInfo, UnitClass
from repro.frontend.trace import ApplicationTrace, KernelTrace
from repro.memory.access import coalesce
from repro.memory.reuse_distance import stack_distances

#: Coalescing geometry shared by every modeled GPU (Turing/Ampere).
LINE_BYTES = 128
SECTOR_BYTES = 32
SECTORS_PER_LINE = LINE_BYTES // SECTOR_BYTES

#: Chain-term keys that are not (unit, latency_factor) ALU terms.
BRANCH_TERM = ("branch",)
SYNC_TERM = ("sync",)
LOAD_TERM = ("load",)
STORE_TERM = ("store",)
SHARED_TERM = ("shared",)


def numpy_available() -> bool:
    """Whether the analytic tier can run at all on this install."""
    return _np is not None


def _require_numpy():
    if _np is None:
        raise SimulationError(
            "the analytic tier requires numpy; install it or use the "
            "engine-based simulators (swift-basic / swift-memory)"
        )
    return _np


def _alu_term(unit: UnitClass, latency_factor: int) -> Tuple[str, str, int]:
    return ("alu", unit.value, latency_factor)


@dataclass
class KernelTasklist:
    """Architecture-independent summary of one kernel launch.

    Warps are *in-order*: any stalled instruction blocks everything
    behind it, so per-warp timing is captured by the warp's **dependence
    skeleton** — the sequence of pricing terms plus, per instruction, the
    index of the producer it must wait for (``-1`` if none).  Warps with
    identical skeletons are deduplicated into :class:`WarpClass` groups
    (SIMT kernels typically have only a handful), and the timing model
    replays each class once as an in-order scoreboard walk, vectorized
    over the batched config axis.  ``warp_counts[w, t]`` counts all
    priced instructions of term ``chain_terms[t]`` in warp ``w`` (the
    issue-bound component).

    ``load_inst_distances`` holds, per global/local load instruction, the
    worst (largest) sector reuse-distance among its transactions
    (``inf`` = cold), sorted so hit rates for any capacity fall out of a
    ``searchsorted``; ``load_access_distances`` is the same per
    *transaction* (for bandwidth accounting).
    """

    name: str
    num_blocks: int
    warps_per_block: int
    threads_per_block: int
    shared_mem_bytes: int
    regs_per_thread: int
    num_instructions: int
    #: ALU issue counts keyed by (unit value, latency factor).
    unit_counts: Dict[Tuple[str, int], int] = field(default_factory=dict)
    ldst_insts: int = 0
    shared_insts: int = 0
    branch_insts: int = 0
    sync_insts: int = 0
    global_loads: int = 0
    global_stores: int = 0
    load_transactions: int = 0
    store_transactions: int = 0
    chain_terms: Tuple[tuple, ...] = ()
    warp_counts: object = None  # np.ndarray (num_warps, num_terms), all insts
    warp_classes: Tuple["WarpClass", ...] = ()
    load_inst_distances: object = None  # np.ndarray, sorted, inf = cold
    load_access_distances: object = None  # np.ndarray, sorted, inf = cold

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KernelTasklist):
            return NotImplemented
        np = _require_numpy()
        scalars = (
            "name", "num_blocks", "warps_per_block", "threads_per_block",
            "shared_mem_bytes", "regs_per_thread", "num_instructions",
            "unit_counts", "ldst_insts", "shared_insts", "branch_insts",
            "sync_insts", "global_loads", "global_stores",
            "load_transactions", "store_transactions", "chain_terms",
            "warp_classes",
        )
        return all(
            getattr(self, name) == getattr(other, name) for name in scalars
        ) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("warp_counts",
                         "load_inst_distances", "load_access_distances")
        )


@dataclass
class ApplicationTasklist:
    """Tasklists for every kernel of one application, in launch order."""

    app_name: str
    num_instructions: int
    kernels: List[KernelTasklist] = field(default_factory=list)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ApplicationTasklist):
            return NotImplemented
        return (
            self.app_name == other.app_name
            and self.num_instructions == other.num_instructions
            and self.kernels == other.kernels
        )


# ----------------------------------------------------------------------
# dependence skeletons

#: Terms whose producers carry long (memory-class) latencies; barriers
#: drain these before proceeding.
_MEMORY_TERMS = (LOAD_TERM, SHARED_TERM)


@dataclass
class WarpClass:
    """A group of warps sharing one dependence skeleton.

    ``term_seq[i]`` indexes :attr:`KernelTasklist.chain_terms` for the
    ``i``-th priced instruction; ``producer[i]`` is the position whose
    result instruction ``i`` must wait for (``-1`` if none).  The timing
    model replays the skeleton once per class as an in-order scoreboard
    walk — exact for register dependences, memory latencies priced at
    their Eq. 1 expectations — vectorized over the config axis.
    """

    count: int  # warps in the kernel with this skeleton
    term_seq: object = None  # np.ndarray (n,), indexes chain_terms
    producer: object = None  # np.ndarray (n,), position or -1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WarpClass):
            return NotImplemented
        np = _require_numpy()
        return (
            self.count == other.count
            and np.array_equal(self.term_seq, other.term_seq)
            and np.array_equal(self.producer, other.producer)
        )


def _opcode_term(info: OpcodeInfo):
    """The pricing term an opcode contributes to a dependence chain
    (``None`` for EXIT, which costs nothing once the pipeline drained)."""
    kind = info.kind
    if kind is InstKind.EXIT:
        return None
    if kind is InstKind.BRANCH:
        return BRANCH_TERM
    if kind in (InstKind.BARRIER, InstKind.MEMBAR):
        return SYNC_TERM
    if info.is_memory:
        if info.mem_space is MemSpace.SHARED:
            return SHARED_TERM
        if kind is InstKind.STORE:
            return STORE_TERM
        return LOAD_TERM
    return _alu_term(info.unit, info.latency_factor)


#: Pricing term per opcode mnemonic.  Keyed by the mnemonic string,
#: which hashes far faster than the frozen :class:`OpcodeInfo`.
_OPCODE_TERMS = {name: _opcode_term(info) for name, info in OPCODES.items()}


# ----------------------------------------------------------------------
# the pass


def _characterize_kernel(kernel: KernelTrace) -> KernelTasklist:
    """One fused pass per warp, then offline stack distances.

    Each priced instruction's term is looked up once; the same loop
    builds the warp's dependence skeleton and term counts and, for every
    global load/store, appends its coalesced sector keys to one flat
    kernel-wide stream.  Warps issue strictly in order, so a warp's solo
    time is fully determined by each instruction's term plus the most
    constraining producer it waits for: the latest writer of any of its
    source/destination registers, preferring memory-class writers (their
    latencies dominate).  Barriers and membars drain the pipeline, so
    they wait on the most recent memory-class instruction (or, failing
    that, the immediately preceding instruction) even without register
    operands.  EXIT is unpriced — the timing model's final drain waits
    for every producer's completion instead.  The tasklist totals all
    derive from the summed term counts, and the sector stream's reuse
    distances come from one :func:`stack_distances` call.
    """
    np = _require_numpy()
    tasklist = KernelTasklist(
        name=kernel.name,
        num_blocks=len(kernel.blocks),
        warps_per_block=max(len(block.warps) for block in kernel.blocks),
        threads_per_block=max(block.num_threads for block in kernel.blocks),
        shared_mem_bytes=max(block.shared_mem_bytes for block in kernel.blocks),
        regs_per_thread=max(block.regs_per_thread for block in kernel.blocks),
        num_instructions=kernel.num_instructions,
    )
    sector_keys: List[int] = []  # one kernel-wide stream (see the docs)
    transaction_counts: List[int] = []  # per global load/store
    is_load: List[bool] = []
    skeletons: Counter = Counter()  # skeleton -> warp count
    warp_rows: List[Counter] = []
    for block in kernel.blocks:
        for warp in block.warps:
            warp_terms: List[tuple] = []
            warp_producers: List[int] = []
            last_writer: Dict[int, int] = {}
            last_memory = -1  # position of the most recent memory-class inst
            for inst in warp.instructions:
                term = _OPCODE_TERMS[inst.opcode]
                if term is None:  # EXIT
                    continue
                position = len(warp_terms)
                producer = -1
                if term is SYNC_TERM:
                    producer = last_memory if last_memory >= 0 else position - 1
                else:
                    memory_producer = -1
                    for reg in inst.src_regs + inst.dest_regs:
                        writer = last_writer.get(reg)
                        if writer is None:
                            continue
                        if writer > producer:
                            producer = writer
                        if (writer > memory_producer
                                and warp_terms[writer] in _MEMORY_TERMS):
                            memory_producer = writer
                    if memory_producer >= 0:
                        producer = memory_producer
                warp_terms.append(term)
                warp_producers.append(producer)
                if term in _MEMORY_TERMS:
                    last_memory = position
                for reg in inst.dest_regs:
                    last_writer[reg] = position
                if term is LOAD_TERM or term is STORE_TERM:
                    transactions = coalesce(
                        inst.addresses, LINE_BYTES, SECTOR_BYTES
                    )
                    sector_keys.extend([
                        tx.line_addr * SECTORS_PER_LINE + tx.sector
                        for tx in transactions
                    ])
                    transaction_counts.append(len(transactions))
                    is_load.append(term is LOAD_TERM)
            skeletons[tuple(warp_terms), tuple(warp_producers)] += 1
            warp_rows.append(Counter(warp_terms))

    totals: Counter = Counter()
    for row in warp_rows:
        totals.update(row)
    tasklist.unit_counts = {
        term[1:]: count for term, count in totals.items() if term[0] == "alu"
    }
    tasklist.branch_insts = totals[BRANCH_TERM]
    tasklist.sync_insts = totals[SYNC_TERM]
    tasklist.shared_insts = totals[SHARED_TERM]
    tasklist.global_loads = totals[LOAD_TERM]
    tasklist.global_stores = totals[STORE_TERM]
    tasklist.ldst_insts = tasklist.global_loads + tasklist.global_stores
    counts = np.asarray(transaction_counts, dtype=np.int64)
    loads = np.asarray(is_load, dtype=bool)
    load_counts = counts[loads]
    tasklist.load_transactions = int(load_counts.sum())
    tasklist.store_transactions = int(counts.sum()) - tasklist.load_transactions

    terms = sorted(totals)
    term_index = {term: i for i, term in enumerate(terms)}
    warp_counts = np.zeros((len(warp_rows), len(terms)), dtype=np.int64)
    for row_number, row in enumerate(warp_rows):
        for term, count in row.items():
            warp_counts[row_number, term_index[term]] = count
    tasklist.chain_terms = tuple(terms)
    tasklist.warp_counts = warp_counts
    tasklist.warp_classes = tuple(
        WarpClass(
            count=count,
            term_seq=np.asarray(
                [term_index[term] for term in skeleton_terms], dtype=np.int64
            ),
            producer=np.asarray(skeleton_producers, dtype=np.int64),
        )
        for (skeleton_terms, skeleton_producers), count in sorted(
            skeletons.items()
        )
    )

    # Loads record their distances; stores only advance the stream.
    access_distances = stack_distances(sector_keys)[np.repeat(loads, counts)]
    if load_counts.shape[0]:
        # Per load instruction, its worst (largest) transaction distance.
        # reduceat needs non-empty groups: every load carries one address
        # per active thread, and a trace's active mask is never empty.
        starts = np.cumsum(load_counts) - load_counts
        inst_distances = np.maximum.reduceat(access_distances, starts)
    else:
        inst_distances = access_distances
    tasklist.load_inst_distances = np.sort(inst_distances)
    tasklist.load_access_distances = np.sort(access_distances)
    return tasklist


#: Memoized tasklists, keyed weakly on the trace object.  Purely a time
#: saver: tasklists are value-deterministic, so a re-loaded (different
#: identity, equal value) trace characterizes to an equal tasklist.
_TASKLIST_MEMO: "WeakKeyDictionary[ApplicationTrace, ApplicationTasklist]" = (
    WeakKeyDictionary()
)


def precharacterize(app: ApplicationTrace) -> ApplicationTasklist:
    """Reduce ``app`` to its architecture-independent tasklist (memoized
    per trace object; a pure function of the trace values)."""
    _require_numpy()
    cached = _TASKLIST_MEMO.get(app)
    if cached is not None:
        return cached
    tasklist = ApplicationTasklist(
        app_name=app.name,
        num_instructions=app.num_instructions,
        kernels=[_characterize_kernel(kernel) for kernel in app.kernels],
    )
    _TASKLIST_MEMO[app] = tasklist
    return tasklist

