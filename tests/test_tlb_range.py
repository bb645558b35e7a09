"""Range-span cases of the fully-associative TLB (RMM range TLBs).

A range TLB fills each range translation over ``[base_vpn, limit_vpn)``,
so a probe is the hardware's double comparison (containment hits, LRU,
overlap handling).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mmu.translation import RangeTranslation
from repro.tlb.fully_assoc import FullyAssociativeTLB


def rng(base, limit, pfn=None):
    return RangeTranslation(base, limit, pfn if pfn is not None else base + 1000)


def fill(tlb, rng_entry):
    tlb.fill(rng_entry.base_vpn, rng_entry, rng_entry.num_pages)


class TestContainment:
    def test_hit_inside_range(self):
        tlb = FullyAssociativeTLB("r", 4)
        fill(tlb, rng(100, 200))
        assert tlb.lookup(100) is not None
        assert tlb.lookup(199) is not None

    def test_limit_is_exclusive(self):
        tlb = FullyAssociativeTLB("r", 4)
        fill(tlb, rng(100, 200))
        assert tlb.lookup(200) is None
        assert tlb.lookup(99) is None

    def test_translation_offset(self):
        tlb = FullyAssociativeTLB("r", 4)
        fill(tlb, RangeTranslation(100, 200, 5000))
        entry = tlb.lookup(150)
        assert entry.translate(150) == 5050

    def test_miss_counts(self):
        tlb = FullyAssociativeTLB("r", 4)
        tlb.lookup(1)
        fill(tlb, rng(0, 10))
        tlb.lookup(5)
        tlb.sync_stats()
        assert tlb.stats.misses == 1
        assert tlb.stats.hits == 1


class TestReplacement:
    def test_lru_eviction(self):
        tlb = FullyAssociativeTLB("r", 2)
        a, b, c = rng(0, 10), rng(20, 30), rng(40, 50)
        fill(tlb, a)
        fill(tlb, b)
        tlb.lookup(5)  # refresh a
        fill(tlb, c)  # evicts b
        assert tlb.peek(25) is None
        assert tlb.peek(5) is not None

    def test_hit_moves_to_mru(self):
        tlb = FullyAssociativeTLB("r", 3)
        parts = [rng(i * 100, i * 100 + 10) for i in range(3)]
        for part in parts:
            fill(tlb, part)
        tlb.lookup(5)  # range 0 to MRU
        assert tlb.resident()[0] == parts[0]

    def test_fill_invalidates_overlapping(self):
        tlb = FullyAssociativeTLB("r", 4)
        fill(tlb, rng(100, 200))
        fill(tlb, rng(150, 250, 9000))  # overlaps -> old dropped
        assert tlb.occupancy() == 1
        assert tlb.lookup(120) is None or tlb.lookup(120).base_pfn == 9000

    def test_invalidate_overlap(self):
        tlb = FullyAssociativeTLB("r", 4)
        fill(tlb, rng(0, 10))
        fill(tlb, rng(20, 30))
        dropped = tlb.invalidate(5, 20)  # pages [5, 25)
        assert dropped == 2
        assert tlb.occupancy() == 0

    def test_resize(self):
        tlb = FullyAssociativeTLB("r", 4)
        for i in range(4):
            fill(tlb, rng(i * 100, i * 100 + 10))
        tlb.set_active_entries(2)
        assert tlb.occupancy() == 2
        with pytest.raises(ValueError):
            tlb.set_active_entries(5)

    def test_rank_counters(self):
        tlb = FullyAssociativeTLB("r", 4)
        counters = [0] * 3
        tlb.hit_rank_counters = counters
        for i in range(4):
            fill(tlb, rng(i * 100, i * 100 + 10))
        tlb.lookup(305)  # MRU, rank 0
        tlb.lookup(5)  # rank 3 -> group 2
        assert counters == [1, 0, 1]


@settings(max_examples=50, deadline=None)
@given(
    queries=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=100),
    bases=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=8, unique=True),
)
def test_containment_matches_linear_scan(queries, bases):
    """Lookups agree with a brute-force containment check over residents."""
    tlb = FullyAssociativeTLB("r", 8)
    for base in bases:
        fill(tlb, rng(base * 100, base * 100 + 60))
    for query in queries:
        resident = tlb.resident()
        expected = next((r for r in resident if r.covers(query)), None)
        assert tlb.peek(query) == expected
