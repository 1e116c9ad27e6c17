"""Analytical memory-access model (paper §III-D2, Equation 1).

The expected latency of the Load/Store instructions at one PC is

    L_inst = L_L1 * R_L1  +  L_L2 * R_L2  +  L_DRAM * R_DRAM

where the R terms are per-PC hit fractions obtained from a profiling
pre-pass — either the reuse-distance tool
(:class:`~repro.memory.reuse_distance.ReuseDistanceProfiler`) or a
one-shot functional run of the real sectored caches.  The timing pass
then never touches the cache model: each memory instruction costs one
table lookup plus two contention reservations (the SM's LD/ST port and
the aggregate DRAM bandwidth), which is what buys Swift-Sim-Memory its
extra speedup over Swift-Sim-Basic.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary
from typing import Dict, List, Tuple

from repro.frontend.config import GPUConfig
from repro.frontend.isa import InstKind, MemSpace
from repro.frontend.trace import KernelTrace, TraceInstruction
from repro.memory.access import coalesce
from repro.memory.cache import AccessStatus, SectoredCache
from repro.memory.l2 import build_l2_slices, partition_for_line, slice_line_addr
from repro.memory.reuse_distance import PCProfile, ReuseDistanceProfiler
from repro.sim.module import ModelLevel, Module
from repro.utils.bitops import ceil_div
from repro.utils.fastpath import get_fastpaths

#: Memoized :meth:`MemoryProfile.for_application` results, keyed weakly
#: on the application trace.  Profiling is a deterministic pure function
#: of ``(config, kernels, source)`` and the resulting profiles are
#: immutable after construction, so re-running it for the same app —
#: which differential/shadow verification and benchmark sweeps do
#: constantly — is pure waste.  Values hold ``(config, source,
#: profiles)`` triples; configs are compared by identity.
_PROFILE_MEMO: "WeakKeyDictionary" = WeakKeyDictionary()


class MemoryProfile:
    """Per-PC expected latencies and transaction counts for one kernel."""

    def __init__(self, config: GPUConfig, per_pc: Dict[int, PCProfile]) -> None:
        self.config = config
        self.per_pc = per_pc
        noc_round_trip = 2 * config.noc.latency
        self.latency_l1 = config.l1.latency
        self.latency_l2 = config.l1.latency + noc_round_trip + config.l2.latency
        dram_burst = ceil_div(config.l2.sector_bytes, config.dram.bytes_per_cycle)
        self.latency_dram = self.latency_l2 + config.dram.latency + dram_burst
        self._expected: Dict[int, Tuple[int, float, float]] = {}
        for pc, stats in per_pc.items():
            latency = (
                self.latency_l1 * stats.r_l1
                + self.latency_l2 * stats.r_l2
                + self.latency_dram * stats.r_dram
            )
            self._expected[pc] = (
                max(1, round(latency)),
                stats.avg_transactions,
                stats.r_dram,
            )

    def expected(self, pc: int) -> Tuple[int, float, float]:
        """Return ``(L_inst, avg_transactions, r_dram)`` for ``pc``.

        A PC absent from the profile (possible only if the timing trace
        diverges from the profiled trace) is treated as DRAM-bound.
        """
        entry = self._expected.get(pc)
        if entry is None:
            return self.latency_dram, 1.0, 1.0
        return entry

    @staticmethod
    def from_reuse_distance(config: GPUConfig, kernel: KernelTrace) -> "MemoryProfile":
        """Profile one kernel with the reuse-distance tool (LRU-only)."""
        return MemoryProfile(config, ReuseDistanceProfiler(config).profile(kernel))

    @staticmethod
    def from_cache_simulation(config: GPUConfig, kernel: KernelTrace) -> "MemoryProfile":
        """Profile one kernel with a functional pass of the real caches."""
        return MemoryProfile(config, CacheSimProfiler(config).profile(kernel))

    @staticmethod
    def for_application(
        config: GPUConfig, kernels, source: str = "cache_sim", memo_key=None
    ) -> "List[MemoryProfile]":
        """Per-kernel profiles with cache/stack state carried *across*
        kernels, matching the simulated caches' cross-kernel warmth.

        ``memo_key`` (an :class:`~repro.frontend.trace.ApplicationTrace`
        owning exactly ``kernels``) opts the call into the
        ``cache_memo`` fast path: repeated profiling of the same app
        with the same config and source returns the cached profiles.
        """
        memoize = memo_key is not None and get_fastpaths().cache_memo
        if memoize:
            for entry_config, entry_source, profiles in _PROFILE_MEMO.get(
                memo_key, ()
            ):
                if entry_config is config and entry_source == source:
                    return profiles
        if source == "reuse_distance":
            profiler = ReuseDistanceProfiler(config)
            tallies = profiler.profile_many(kernels)
        else:
            cache_profiler = CacheSimProfiler(config)
            tallies = [cache_profiler.profile(kernel) for kernel in kernels]
        profiles = [MemoryProfile(config, per_pc) for per_pc in tallies]
        if memoize:
            _PROFILE_MEMO.setdefault(memo_key, []).append(
                (config, source, profiles)
            )
        return profiles


class CacheSimProfiler:
    """Functional cache-simulation profiler.

    Honors sectors, allocation policy, and the configured replacement
    policy — the profiling option the paper prefers for non-LRU design
    points.  Cache state persists across :meth:`profile` calls so a
    kernel sequence sees realistic warmth.
    """

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self._l1s: List[SectoredCache] = []
        self._l2s = build_l2_slices(config)

    def profile(self, kernel: KernelTrace) -> Dict[int, PCProfile]:
        config = self.config
        wanted = min(config.num_sms, len(kernel.blocks))
        while len(self._l1s) < wanted:
            index = len(self._l1s)
            self._l1s.append(
                SectoredCache(config.l1, name=f"prof_l1_{index}", seed=index)
            )
        l1s = self._l1s
        l2s = self._l2s
        per_pc: Dict[int, PCProfile] = {}
        line_bytes = config.l1.line_bytes
        sector_bytes = config.l1.sector_bytes
        partitions = config.memory_partitions
        num_l1s = max(1, wanted)
        for block in kernel.blocks:
            l1 = l1s[block.block_id % num_l1s]
            for warp in block.warps:
                for inst in warp.instructions:
                    if not inst.is_memory or inst.mem_space is MemSpace.SHARED:
                        continue
                    profile = per_pc.get(inst.pc)
                    if profile is None:
                        profile = per_pc[inst.pc] = PCProfile()
                    transactions = coalesce(inst.addresses, line_bytes, sector_bytes)
                    profile.instructions += 1
                    profile.transactions += len(transactions)
                    is_store = inst.kind is not InstKind.LOAD
                    worst = 0
                    for transaction in transactions:
                        profile.accesses += 1
                        line = transaction.line_addr
                        result = l1.access_functional(line, transaction.sector, is_store)
                        if not is_store and result.status is AccessStatus.HIT:
                            profile.l1_hits += 1
                            continue
                        partition = partition_for_line(line, partitions)
                        slice_line = slice_line_addr(line, partitions)
                        l2_result = l2s[partition].access_functional(
                            slice_line, transaction.sector, is_store
                        )
                        if l2_result.status is AccessStatus.HIT or is_store:
                            profile.l2_hits += 1
                            if worst < 1:
                                worst = 1
                        else:
                            profile.dram_accesses += 1
                            worst = 2
                    profile.note_instruction_level(worst)
        return per_pc


class AnalyticalMemoryModel(Module):
    """Timing-side model consuming a :class:`MemoryProfile` (Eq. 1 + contention).

    Contention on top of ``L_inst`` (paper: "we add the additional latency
    due to resource contention"):

    * the SM's LD/ST port is occupied ``ceil(tx / throughput)`` cycles per
      instruction (cycle-accurate reservation, like the hybrid ALU model);
    * aggregate DRAM bandwidth is a fluid server — the expected DRAM
      sectors of each instruction advance a virtual clock, and the queue
      excess is charged back in proportion to the instruction's DRAM
      fraction.
    """

    component = "memory"
    level = ModelLevel.ANALYTICAL

    def __init__(self, config: GPUConfig, profile: MemoryProfile, name: str = "memory") -> None:
        super().__init__(name)
        self.config = config
        self.profile = profile
        self._port_free = [0] * config.num_sms
        self._dram_virtual = 0.0
        # Aggregate DRAM drain rate in sectors per cycle.
        self._dram_rate = (
            config.memory_partitions * config.dram.bytes_per_cycle
        ) / config.l2.sector_bytes
        self._throughput = config.sm.ldst_throughput

    def reset(self) -> None:
        super().reset()
        self._port_free = [0] * self.config.num_sms
        self._dram_virtual = 0.0

    def access_global(
        self, sm_id: int, inst: TraceInstruction, cycle: int
    ) -> Tuple[int, int]:
        """Resolve one memory instruction; returns (completion, transactions)."""
        latency, avg_tx, r_dram = self.profile.expected(inst.pc)
        transactions = max(1, round(avg_tx))
        start = self._port_free[sm_id]
        if start < cycle:
            start = cycle
        else:
            self.counters.add("port_stall_cycles", start - cycle)
        occupancy = ceil_div(transactions, self._throughput)
        self._port_free[sm_id] = start + occupancy
        extra = 0
        dram_sectors = transactions * r_dram
        if dram_sectors > 0.0:
            service = dram_sectors / self._dram_rate
            virtual = self._dram_virtual
            if virtual < start:
                virtual = float(start)
            queue_wait = virtual - start
            self._dram_virtual = virtual + service
            extra = int(queue_wait * r_dram)
            if extra:
                self.counters.add("dram_queue_cycles", extra)
        self.counters.add("global_instructions")
        self.counters.add("sector_transactions", transactions)
        if inst.kind is InstKind.STORE:
            # Write-through stores retire once handed to the LD/ST port.
            return start + occupancy, transactions
        # A load completes when its *last* transaction returns: the sectors
        # drain through the LD/ST port at `throughput` per cycle, so the
        # serialization tail adds to the expected latency.
        return start + occupancy - 1 + latency + extra, transactions
