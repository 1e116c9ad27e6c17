"""Memory-access coalescing.

The LD/ST unit merges the per-thread byte addresses of one warp memory
instruction into the minimal set of 32-byte *sector transactions*
(Turing/Ampere L1s are sectored; a fully coalesced warp load of 4-byte
words touches 4 sectors = 128 bytes).  Divergent access patterns expand
into up to 32 transactions — the primary source of memory-bound behaviour
the simulators must capture.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Sequence


class SectorTransaction:
    """One coalesced sector access: (line address, sector index within line).

    ``line_addr`` is the byte address divided by the line size (i.e. a line
    *number*), so caches at every level with the same line size can share
    transactions directly.
    """

    __slots__ = ("line_addr", "sector", "thread_count")

    def __init__(self, line_addr: int, sector: int, thread_count: int) -> None:
        self.line_addr = line_addr
        self.sector = sector
        self.thread_count = thread_count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SectorTransaction):
            return NotImplemented
        return (
            self.line_addr == other.line_addr
            and self.sector == other.sector
            and self.thread_count == other.thread_count
        )

    def __hash__(self) -> int:
        return hash((self.line_addr, self.sector))

    def __repr__(self) -> str:
        return (
            f"SectorTransaction(line={self.line_addr:#x}, sector={self.sector}, "
            f"threads={self.thread_count})"
        )


def coalesce(
    addresses: Sequence[int], line_bytes: int = 128, sector_bytes: int = 32
) -> List[SectorTransaction]:
    """Coalesce per-thread byte addresses into sector transactions.

    Transactions are returned in first-touch order (the order the hardware
    generates them while walking lanes), each annotated with how many
    threads it serves.  Both sizes are powers of two with
    ``sector_bytes <= line_bytes`` (:class:`~repro.frontend.config.CacheConfig`
    enforces it), so a global sector number splits exactly into
    (line, sector within line).
    """
    sectors_per_line = line_bytes // sector_bytes
    return [
        SectorTransaction(
            sector // sectors_per_line, sector % sectors_per_line, count
        )
        for sector, count in Counter(
            addr // sector_bytes for addr in addresses
        ).items()
    ]
