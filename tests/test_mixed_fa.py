"""Translation-span cases of the fully-associative TLB (Section 4.4).

The SPARC/AMD-style mixed-page-size L1 and the L0 filter fill each
translation over its page, ``[vpn, vpn + page_size)``, so one masked CAM
search matches 4 KB and huge-page entries alike.
"""

import pytest

from repro.mmu.translation import PAGES_PER_2MB, PageSize, Translation
from repro.tlb.fully_assoc import FullyAssociativeTLB


def t4k(vpn, pfn=None):
    return Translation(vpn, pfn if pfn is not None else vpn + 1000, PageSize.SIZE_4KB)


def t2m(chunk, pfn_chunk=None):
    return Translation(
        chunk * PAGES_PER_2MB,
        (pfn_chunk if pfn_chunk is not None else chunk + 8) * PAGES_PER_2MB,
        PageSize.SIZE_2MB,
    )


def fill(tlb, translation):
    tlb.fill(translation.vpn, translation, int(translation.page_size))


class TestMaskedLookup:
    def test_4kb_hit(self):
        tlb = FullyAssociativeTLB("fa", 4)
        fill(tlb, t4k(5))
        assert tlb.lookup(5) is not None
        assert tlb.lookup(6) is None

    def test_2mb_entry_covers_whole_page(self):
        tlb = FullyAssociativeTLB("fa", 4)
        fill(tlb, t2m(3))
        base = 3 * PAGES_PER_2MB
        assert tlb.lookup(base) is not None
        assert tlb.lookup(base + 511) is not None
        assert tlb.lookup(base + 512) is None

    def test_mixed_residency(self):
        tlb = FullyAssociativeTLB("fa", 4)
        fill(tlb, t4k(5))
        fill(tlb, t2m(3))
        assert tlb.lookup(5) is not None
        assert tlb.lookup(3 * PAGES_PER_2MB + 7) is not None
        assert tlb.occupancy() == 2

    def test_lru_eviction(self):
        tlb = FullyAssociativeTLB("fa", 2)
        fill(tlb, t4k(1))
        fill(tlb, t4k(2))
        tlb.lookup(1)
        fill(tlb, t4k(3))  # evicts 2
        assert tlb.peek(2) is None
        assert tlb.peek(1) is not None

    def test_overlapping_fill_replaces(self):
        tlb = FullyAssociativeTLB("fa", 4)
        fill(tlb, t4k(PAGES_PER_2MB + 3))
        fill(tlb, t2m(1))  # huge page covering the same region
        assert tlb.occupancy() == 1
        assert tlb.lookup(PAGES_PER_2MB + 3).page_size is PageSize.SIZE_2MB

    def test_rank_counters(self):
        tlb = FullyAssociativeTLB("fa", 4)
        counters = [0] * 3
        tlb.hit_rank_counters = counters
        for vpn in range(4):
            fill(tlb, t4k(vpn))
        tlb.lookup(3)  # rank 0
        tlb.lookup(0)  # rank 3 -> group 2
        assert counters == [1, 0, 1]

    def test_resize(self):
        tlb = FullyAssociativeTLB("fa", 4)
        for vpn in range(4):
            fill(tlb, t4k(vpn))
        tlb.set_active_entries(2)
        assert tlb.occupancy() == 2
        with pytest.raises(ValueError):
            tlb.set_active_entries(0)

    def test_stats(self):
        tlb = FullyAssociativeTLB("fa", 4)
        tlb.lookup(1)
        fill(tlb, t4k(1))
        tlb.lookup(1)
        tlb.sync_stats()
        assert tlb.stats.hits == 1
        assert tlb.stats.misses == 1
        assert tlb.stats.lookups_by_ways == {4: 2}

    def test_flush(self):
        tlb = FullyAssociativeTLB("fa", 4)
        fill(tlb, t4k(1))
        tlb.flush()
        assert tlb.occupancy() == 0

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            FullyAssociativeTLB("fa", 0)
