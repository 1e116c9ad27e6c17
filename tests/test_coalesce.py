"""Unit tests for the memory-access coalescer."""

from hypothesis import given, settings, strategies as st

from repro.memory.access import SectorTransaction, coalesce


def _naive_coalesce(addresses, line_bytes, sector_bytes):
    """First-touch (line, sector) order with per-sector thread counts."""
    order = []
    counts = {}
    for addr in addresses:
        key = (addr // line_bytes, (addr % line_bytes) // sector_bytes)
        if key not in counts:
            order.append(key)
            counts[key] = 0
        counts[key] += 1
    return [(line, sector, counts[line, sector]) for line, sector in order]


#: Power-of-two (line, sector) geometries with sector <= line, as
#: ``CacheConfig`` requires.
geometries = st.integers(0, 8).flatmap(
    lambda line_log: st.tuples(
        st.just(1 << line_log), st.integers(0, line_log).map(lambda s: 1 << s)
    )
)


class TestCoalesce:
    def test_fully_coalesced_4byte_stride(self):
        addrs = [0x1000 + 4 * i for i in range(32)]
        txs = coalesce(addrs)
        assert len(txs) == 4  # 32 threads x 4B = 128B = 4 sectors
        assert all(tx.line_addr == 0x1000 // 128 for tx in txs)
        assert sorted(tx.sector for tx in txs) == [0, 1, 2, 3]
        assert all(tx.thread_count == 8 for tx in txs)

    def test_broadcast_single_transaction(self):
        txs = coalesce([0x2000] * 32)
        assert len(txs) == 1
        assert txs[0].thread_count == 32

    def test_fully_divergent_line_strides(self):
        addrs = [0x10000 + 128 * i for i in range(32)]
        txs = coalesce(addrs)
        assert len(txs) == 32
        assert len({tx.line_addr for tx in txs}) == 32

    def test_sector_boundary_within_line(self):
        # 8 threads per 32B sector at 4B elements.
        txs = coalesce([0, 31, 32, 127])
        sectors = {(tx.line_addr, tx.sector) for tx in txs}
        assert sectors == {(0, 0), (0, 1), (0, 3)}

    def test_first_touch_order_preserved(self):
        txs = coalesce([128, 0])
        assert [tx.line_addr for tx in txs] == [1, 0]

    def test_misaligned_accesses_straddle(self):
        txs = coalesce([30, 34])
        assert {(tx.line_addr, tx.sector) for tx in txs} == {(0, 0), (0, 1)}

    def test_custom_geometry(self):
        txs = coalesce([0, 64], line_bytes=64, sector_bytes=64)
        assert {(tx.line_addr, tx.sector) for tx in txs} == {(0, 0), (1, 0)}

    def test_empty_addresses(self):
        assert coalesce([]) == []

    def test_transaction_equality(self):
        assert SectorTransaction(1, 2, 3) == SectorTransaction(1, 2, 3)
        assert SectorTransaction(1, 2, 3) != SectorTransaction(1, 3, 3)
        assert hash(SectorTransaction(1, 2, 3)) == hash(SectorTransaction(1, 2, 5))


@given(
    st.lists(
        st.integers(0, 1 << 12) | st.integers(0, 1 << 34), max_size=32
    ),
    geometries,
)
@settings(max_examples=150, deadline=None)
def test_coalesce_matches_naive_reference(addresses, geometry):
    line_bytes, sector_bytes = geometry
    got = [
        (tx.line_addr, tx.sector, tx.thread_count)
        for tx in coalesce(addresses, line_bytes, sector_bytes)
    ]
    assert got == _naive_coalesce(addresses, line_bytes, sector_bytes)
