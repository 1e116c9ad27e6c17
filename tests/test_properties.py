"""Property-based tests (hypothesis) for core data structures and the
framework's central invariants."""

import math
import random as stdlib_random
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend.config import CacheConfig
from repro.frontend.trace import TraceInstruction
from repro.frontend.trace_io import parse_trace, save_trace
from repro.memory.access import coalesce
from repro.memory.cache import AccessStatus, SectoredCache
from repro.memory.reuse_distance import _LRUStack, stack_distances
from repro.core.scoreboard import Scoreboard
from repro.sim.plan import SWIFT_BASIC_PLAN, SWIFT_MEMORY_PLAN
from repro.simulators.base import PlanSimulator
from repro.tracegen.suites import make_app
from repro.utils.stats import geomean

from conftest import alu, make_tiny_gpu


# ----------------------------------------------------------------------
# Coalescer


addresses_strategy = st.lists(
    st.integers(min_value=0, max_value=1 << 24), min_size=1, max_size=32
)


class TestCoalescerProperties:
    @given(addresses_strategy)
    def test_every_address_covered_exactly_once(self, addresses):
        transactions = coalesce(addresses)
        covered = {(tx.line_addr, tx.sector) for tx in transactions}
        assert len(covered) == len(transactions)  # no duplicate sectors
        for addr in addresses:
            key = (addr // 128, (addr // 32) % 4)
            assert key in covered

    @given(addresses_strategy)
    def test_thread_counts_sum_to_addresses(self, addresses):
        transactions = coalesce(addresses)
        assert sum(tx.thread_count for tx in transactions) == len(addresses)

    @given(addresses_strategy)
    def test_transaction_count_bounded(self, addresses):
        transactions = coalesce(addresses)
        assert 1 <= len(transactions) <= len(addresses)

    @given(addresses_strategy, st.randoms(use_true_random=False))
    def test_permutation_invariant_as_set(self, addresses, rng):
        shuffled = list(addresses)
        rng.shuffle(shuffled)
        original = {(t.line_addr, t.sector, t.thread_count) for t in coalesce(addresses)}
        permuted = {(t.line_addr, t.sector, t.thread_count) for t in coalesce(shuffled)}
        assert original == permuted


# ----------------------------------------------------------------------
# Sectored cache vs an independent reference model


class _ReferenceCache:
    """Independent set-associative sectored LRU model (functional)."""

    def __init__(self, num_sets, assoc, sectors_per_line):
        self.num_sets = num_sets
        self.assoc = assoc
        self.sets = [OrderedDict() for __ in range(num_sets)]  # line -> set(sectors)

    def access(self, line, sector):
        """Returns True on hit; always installs (read, fills instant)."""
        index = line % self.num_sets
        cache_set = self.sets[index]
        if line in cache_set:
            sectors = cache_set.pop(line)
            cache_set[line] = sectors  # move to MRU
            if sector in sectors:
                return True
            sectors.add(sector)
            return False
        if len(cache_set) >= self.assoc:
            cache_set.popitem(last=False)  # evict LRU
        cache_set[line] = {sector}
        return False


cache_trace_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=3)),
    min_size=1,
    max_size=300,
)


class TestCacheAgainstReference:
    @given(cache_trace_strategy)
    @settings(max_examples=60, deadline=None)
    def test_functional_lru_matches_reference(self, accesses):
        config = CacheConfig(
            size_bytes=16 * 128,  # 16 lines
            assoc=4,
            mshr_entries=64,
            replacement="LRU",
        )
        cache = SectoredCache(config, name="dut")
        reference = _ReferenceCache(config.num_sets, config.assoc, 4)
        for line, sector in accesses:
            result = cache.access_functional(line, sector, is_write=False)
            hit = result.status is AccessStatus.HIT
            assert hit == reference.access(line, sector), (line, sector)

    @given(cache_trace_strategy)
    @settings(max_examples=30, deadline=None)
    def test_counters_balance(self, accesses):
        config = CacheConfig(size_bytes=16 * 128, assoc=4, mshr_entries=64)
        cache = SectoredCache(config)
        for line, sector in accesses:
            cache.access_functional(line, sector, is_write=False)
        counted = (
            cache.counters.get("sector_hits")
            + cache.counters.get("sector_misses")
            + cache.counters.get("pending_hits")
        )
        assert counted == cache.counters.get("sector_accesses") == len(accesses)


# ----------------------------------------------------------------------
# Reuse-distance stack


class TestReuseDistanceProperties:
    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_stack_matches_naive_reference(self, blocks):
        stack = _LRUStack()
        history = []
        for block in blocks:
            measured = stack.access((block, 0))
            if block in history:
                expected = len(history) - history.index(block) - 1
                history.remove(block)
            else:
                expected = None
            history.append(block)
            assert measured == expected

    @given(st.lists(st.integers(min_value=0, max_value=10), min_size=2, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_distance_bounded_by_universe(self, blocks):
        stack = _LRUStack()
        for block in blocks:
            distance = stack.access((block, 0))
            if distance is not None:
                assert 0 <= distance <= 10

    @staticmethod
    def _incremental(keys):
        stack = _LRUStack()
        distances = (stack.access(key) for key in keys)
        return [math.inf if d is None else float(d) for d in distances]

    @given(st.lists(st.integers(min_value=0, max_value=40), max_size=300))
    @settings(max_examples=80, deadline=None)
    def test_offline_distances_match_incremental_stack(self, keys):
        distances = stack_distances(keys)
        assert distances.dtype.name == "float64"
        assert distances.tolist() == self._incremental(keys)

    @given(st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                    max_size=60, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_offline_all_cold_stream(self, keys):
        assert stack_distances(keys).tolist() == [math.inf] * len(keys)

    @given(st.integers(min_value=0, max_value=1 << 40), st.integers(1, 50))
    @settings(max_examples=30, deadline=None)
    def test_offline_single_key_stream(self, key, length):
        expected = [math.inf] + [0.0] * (length - 1)
        assert stack_distances([key] * length).tolist() == expected

    def test_offline_empty_stream(self):
        distances = stack_distances([])
        assert distances.shape == (0,) and distances.dtype.name == "float64"


# ----------------------------------------------------------------------
# Scoreboard


class TestScoreboardProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(1, 100)),
            min_size=1,
            max_size=40,
        ),
        st.integers(0, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_can_issue_consistent_with_ready_cycle(self, reservations, probe_cycle):
        scoreboard = Scoreboard()
        for reg, completion in reservations:
            scoreboard.reserve((reg,), completion)
        inst = alu(0, 1, tuple({reg for reg, __ in reservations[:3]}))
        ready = scoreboard.ready_cycle(inst)
        assert ready is not None
        assert scoreboard.can_issue(inst, probe_cycle) == (ready <= probe_cycle)


# ----------------------------------------------------------------------
# Trace round trip


instruction_strategy = st.builds(
    lambda pc, dest, src, mask_bits: TraceInstruction(
        pc * 16,
        "IADD3",
        dest_regs=tuple(dest),
        src_regs=tuple(src),
        active_mask=mask_bits | 1,
    ),
    st.integers(0, 1000),
    st.lists(st.integers(0, 255), max_size=2),
    st.lists(st.integers(0, 255), max_size=3),
    st.integers(0, 0xFFFFFFFF),
)


class TestTraceRoundTripProperties:
    @given(st.lists(instruction_strategy, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_preserves_instructions(self, instructions):
        import tempfile
        from pathlib import Path
        from repro.frontend.trace import ApplicationTrace, BlockTrace, KernelTrace, WarpTrace
        instructions = list(instructions) + [
            TraceInstruction(len(instructions) * 16 + 16000, "EXIT")
        ]
        app = ApplicationTrace(
            "prop", [KernelTrace("k", [BlockTrace(0, [WarpTrace(0, instructions)])])]
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "prop.trace"
            save_trace(app, path)
            reloaded = parse_trace(path.read_text(), source=str(path))
        assert reloaded.kernels[0].blocks[0].warps[0].instructions == instructions


# ----------------------------------------------------------------------
# Stats


class TestStatsProperties:
    @given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1, max_size=50))
    def test_geomean_between_min_and_max(self, values):
        result = geomean(values)
        assert min(values) * 0.999 <= result <= max(values) * 1.001

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=1, max_size=20),
        st.floats(min_value=0.1, max_value=10),
    )
    def test_geomean_scales_linearly(self, values, factor):
        scaled = geomean([v * factor for v in values])
        assert scaled == pytest.approx(geomean(values) * factor, rel=1e-6)


# ----------------------------------------------------------------------
# Engine equivalence on arbitrary module populations


class _AlarmModule:
    """Performs 'work' at predetermined cycles; safe to tick early."""

    def __init__(self, name, alarms):
        from repro.sim.engine import ClockedModule

        alarms = sorted(set(alarms))

        class _Impl(ClockedModule):
            def __init__(inner):
                super().__init__(name)
                inner.alarms = list(alarms)
                inner.work_log = []

            def tick(inner, cycle):
                while inner.alarms and inner.alarms[0] <= cycle:
                    inner.work_log.append(inner.alarms.pop(0))
                if inner.alarms:
                    return inner.alarms[0]
                return None

            def is_done(inner):
                return not inner.alarms

        self.impl = _Impl()


class TestEngineEquivalence:
    @given(
        st.lists(
            st.lists(st.integers(0, 200), min_size=1, max_size=8),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_jump_and_crawl_do_identical_work(self, alarm_sets):
        from repro.sim.engine import Engine

        logs = {}
        finals = {}
        for allow_jump in (True, False):
            engine = Engine(allow_jump=allow_jump)
            modules = [
                _AlarmModule(f"m{i}", alarms).impl
                for i, alarms in enumerate(alarm_sets)
            ]
            for module in modules:
                engine.add(module)
            finals[allow_jump] = engine.run()
            logs[allow_jump] = [m.work_log for m in modules]
        assert logs[True] == logs[False]
        assert finals[True] == finals[False]


# ----------------------------------------------------------------------
# The framework's central invariant: clock jumping is exact


class TestJumpExactness:
    @pytest.mark.parametrize("app_name", ["gemm", "bfs", "sm"])
    @pytest.mark.parametrize("plan", [SWIFT_BASIC_PLAN, SWIFT_MEMORY_PLAN],
                             ids=["basic", "memory"])
    def test_event_jump_equals_per_cycle(self, app_name, plan):
        """Running a hybrid plan with per-cycle ticking must give exactly
        the same cycle count as with event jumping: skipping silent
        cycles is a pure speed optimization, never a timing change."""
        gpu = make_tiny_gpu()
        app = make_app(app_name, scale="tiny")
        jumped = PlanSimulator(gpu, plan=plan).simulate(app, gather_metrics=False)
        crawled = PlanSimulator(
            gpu, plan=plan.with_choice("clocking", "per_cycle", name="crawl")
        ).simulate(app, gather_metrics=False)
        assert jumped.total_cycles == crawled.total_cycles
