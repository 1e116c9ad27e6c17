"""Reuse-distance profiling for analytical hit rates.

The Eq. 1 analytical memory model needs per-PC hit rates "obtained using
a reuse distance tool or cache simulator" (paper §III-D2).  This module
is the reuse-distance tool: it measures, for every memory-instruction PC,
the stack distance of each sector access and classifies it against the
L1 and L2 capacities under the classic fully-associative LRU
approximation of reuse-distance theory.

Stack distances are computed with the standard O(n log n) algorithm: a
Fenwick tree over access timestamps counts the *distinct* blocks touched
since the previous access to the same block.  :func:`stack_distances`
computes the same distances offline, for a whole stream at once, with
numpy (the analytic tier's pre-characterization pass uses it).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

try:  # numpy backs only the offline stack_distances; `import repro` and
    import numpy as _np  # the incremental profiler work without it.
except ImportError:  # pragma: no cover - exercised only on minimal installs
    _np = None

from repro.errors import SimulationError
from repro.frontend.config import GPUConfig
from repro.frontend.isa import InstKind, MemSpace
from repro.frontend.trace import KernelTrace
from repro.memory.access import coalesce


def _require_numpy():
    if _np is None:
        raise SimulationError("stack_distances requires numpy")
    return _np


class _Fenwick:
    """Binary indexed tree over access timestamps."""

    def __init__(self) -> None:
        self._tree: List[int] = [0]

    def grow(self) -> None:
        """Append position n+1 holding value zero.

        ``tree[i]`` covers the range ``(i - lowbit(i), i]``, which equals
        ``a[i]`` plus the adjacent sub-ranges ``tree[i - 2^k]`` for all
        ``2^k < lowbit(i)`` — with ``a[i] == 0`` on append.
        """
        index = len(self._tree)
        total = 0
        step = 1
        low_bit = index & -index
        while step < low_bit:
            total += self._tree[index - step]
            step <<= 1
        self._tree.append(total)

    def add(self, index: int, delta: int) -> None:
        while index < len(self._tree):
            self._tree[index] += delta
            index += index & -index

    def prefix_sum(self, index: int) -> int:
        total = 0
        while index > 0:
            total += self._tree[index]
            index -= index & -index
        return total


class _LRUStack:
    """Stack-distance tracker for one cache level."""

    def __init__(self) -> None:
        self._fenwick = _Fenwick()
        self._last_seen: Dict[Tuple[int, int], int] = {}
        self._time = 0

    def access(self, block: Tuple[int, int]) -> Optional[int]:
        """Record an access; return its stack distance (None = cold miss)."""
        self._time += 1
        self._fenwick.grow()
        last = self._last_seen.get(block)
        distance: Optional[int]
        if last is None:
            distance = None
        else:
            # Distinct blocks touched since the previous access.
            distance = self._fenwick.prefix_sum(self._time - 1) - self._fenwick.prefix_sum(last)
            self._fenwick.add(last, -1)
        self._fenwick.add(self._time, 1)
        self._last_seen[block] = self._time
        return distance


def stack_distances(keys):
    """Stack distance of every access in ``keys`` (float64, ``inf`` = cold).

    The offline, vectorized equivalent of feeding ``keys`` one by one to
    :meth:`_LRUStack.access`.  Each access ``i`` whose key was last seen
    at ``p`` touched ``(i - p - 1) - #{j in (p, i) : prev_j > p}``
    distinct keys since then, where ``prev_j`` is the previous
    occurrence of ``keys[j]``: a window position counts unless its key
    already occurred earlier in the window.  Positions ``j <= p`` cannot
    have ``prev_j > p``, and a cold ``j`` has ``prev_j = -1``, so the
    correction is ``#{j < i, j repeat : prev_j > prev_i}`` — counted over
    the repeat accesses alone by :func:`_greater_before`.
    """
    np = _require_numpy()
    keys = np.asarray(keys, dtype=np.int64)
    n = keys.shape[0]
    distances = np.full(n, np.inf)
    if n < 2:
        return distances
    order = np.argsort(keys, kind="stable")
    same = keys[order[1:]] == keys[order[:-1]]
    repeats = order[1:][same]  # positions of repeat accesses, unordered
    prev = np.full(n, -1, dtype=np.int64)
    prev[repeats] = order[:-1][same]
    repeats.sort()
    previous = prev[repeats]
    distances[repeats] = (repeats - previous - 1) - _greater_before(previous)
    return distances


def _greater_before(values):
    """``counts[i] = #{j < i : values[j] > values[i]}`` for distinct
    non-negative integers, by bottom-up merge levels.

    At the level of width ``w`` the blocks ``[k*w, (k+1)*w)`` are
    sorted by value; each right block is counted against its left
    sibling with one ``searchsorted`` over all left blocks (keys offset
    by pair so the left blocks concatenate into one sorted array), then
    each sibling pair is merged.  Every pair ``j < i`` is counted once,
    at the level where ``j`` and ``i`` first fall in sibling blocks.
    """
    np = _require_numpy()
    n = values.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    span = int(values.max()) + 1 if n else 1
    index = np.arange(n)  # original positions, sorted within blocks
    width = 1
    while width < n:
        keys = (index // (2 * width)) * span + values[index]
        right = ((index // width) & 1).astype(bool)
        left_keys = keys[~right]
        right_keys = keys[right]
        left_ends = np.searchsorted(left_keys, (right_keys // span + 1) * span)
        not_greater = np.searchsorted(left_keys, right_keys, side="right")
        counts[index[right]] += left_ends - not_greater
        # Each sibling pair is two sorted runs; a stable sort merges them.
        index = index[np.argsort(keys, kind="stable")]
        width *= 2
    return counts


class PCProfile:
    """Per-PC access classification tallies.

    Two granularities are tracked: per sector access (``l1_hits`` /
    ``l2_hits`` / ``dram_accesses`` against ``accesses``) and per
    *instruction*, classified by its slowest transaction (``inst_l1`` /
    ``inst_l2`` / ``inst_dram``).  A warp load completes when its last
    sector returns, so Eq. 1's hit fractions use the instruction-level
    tallies when available — one divergent lane reaching DRAM makes the
    whole instruction DRAM-bound.  The access-level tallies remain the
    fallback (and the classical per-access reading of Eq. 1).
    """

    __slots__ = (
        "accesses", "l1_hits", "l2_hits", "dram_accesses",
        "transactions", "instructions", "inst_l1", "inst_l2", "inst_dram",
    )

    def __init__(self) -> None:
        self.accesses = 0
        self.l1_hits = 0
        self.l2_hits = 0
        self.dram_accesses = 0
        self.transactions = 0
        self.instructions = 0
        self.inst_l1 = 0
        self.inst_l2 = 0
        self.inst_dram = 0

    def note_instruction_level(self, worst_level: int) -> None:
        """Record one instruction's slowest transaction level
        (0 = L1 hit, 1 = L2 hit, 2 = DRAM)."""
        if worst_level <= 0:
            self.inst_l1 += 1
        elif worst_level == 1:
            self.inst_l2 += 1
        else:
            self.inst_dram += 1

    @property
    def _inst_total(self) -> int:
        return self.inst_l1 + self.inst_l2 + self.inst_dram

    @property
    def r_l1(self) -> float:
        if self._inst_total:
            return self.inst_l1 / self._inst_total
        return self.l1_hits / self.accesses if self.accesses else 0.0

    @property
    def r_l2(self) -> float:
        if self._inst_total:
            return self.inst_l2 / self._inst_total
        return self.l2_hits / self.accesses if self.accesses else 0.0

    @property
    def r_dram(self) -> float:
        if self._inst_total:
            return self.inst_dram / self._inst_total
        return self.dram_accesses / self.accesses if self.accesses else 1.0

    @property
    def avg_transactions(self) -> float:
        return self.transactions / self.instructions if self.instructions else 1.0


class ReuseDistanceProfiler:
    """Classifies every global memory access of a kernel by reuse distance.

    Blocks are 32-byte sectors; an access hits a level when its stack
    distance is below that level's capacity in sectors (fully-associative
    LRU approximation — hence this tool models LRU only, which is exactly
    the analytical-model limitation the paper's motivation discusses).
    Each SM's L1 sees only the blocks scheduled to it (round-robin block
    assignment); all L1 misses feed one shared L2 stack in program order.
    """

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self._l1_capacity = config.l1.size_bytes // config.l1.sector_bytes
        self._l2_capacity = config.l2.size_bytes // config.l2.sector_bytes
        self._l1_stacks: List[_LRUStack] = []
        self._l2_stack = _LRUStack()

    def profile_many(self, kernels) -> List[Dict[int, PCProfile]]:
        """Profile a kernel sequence with cache state carried across
        launches (as the simulated caches do)."""
        return [self.profile(kernel, keep_state=True) for kernel in kernels]

    def profile(self, kernel: KernelTrace, keep_state: bool = False) -> Dict[int, PCProfile]:
        """Return per-PC tallies for every global/local memory instruction.

        With ``keep_state`` the LRU stacks persist into the next call,
        modeling cross-kernel cache warmth.
        """
        num_sms = self.config.num_sms
        wanted_l1s = min(num_sms, len(kernel.blocks))
        if not keep_state:
            self._l1_stacks = []
            self._l2_stack = _LRUStack()
        while len(self._l1_stacks) < wanted_l1s:
            self._l1_stacks.append(_LRUStack())
        l1_stacks = self._l1_stacks[:max(1, wanted_l1s)]
        l2_stack = self._l2_stack
        profiles: Dict[int, PCProfile] = {}
        line_bytes = self.config.l1.line_bytes
        sector_bytes = self.config.l1.sector_bytes
        for block in kernel.blocks:
            l1_stack = l1_stacks[block.block_id % len(l1_stacks)]
            for warp in block.warps:
                for inst in warp.instructions:
                    if not inst.is_memory or inst.mem_space is MemSpace.SHARED:
                        continue
                    profile = profiles.get(inst.pc)
                    if profile is None:
                        profile = profiles[inst.pc] = PCProfile()
                    transactions = coalesce(inst.addresses, line_bytes, sector_bytes)
                    profile.instructions += 1
                    profile.transactions += len(transactions)
                    is_store = inst.kind is not InstKind.LOAD
                    worst = 0
                    for transaction in transactions:
                        block_key = (transaction.line_addr, transaction.sector)
                        profile.accesses += 1
                        distance = l1_stack.access(block_key)
                        if (
                            not is_store
                            and distance is not None
                            and distance < self._l1_capacity
                        ):
                            profile.l1_hits += 1
                            continue
                        l2_distance = l2_stack.access(block_key)
                        if is_store or (
                            l2_distance is not None
                            and l2_distance < self._l2_capacity
                        ):
                            profile.l2_hits += 1
                            if worst < 1:
                                worst = 1
                        else:
                            profile.dram_accesses += 1
                            worst = 2
                    profile.note_instruction_level(worst)
        return profiles
