"""Unit tests for the fully-associative, interval-keyed LRU structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mmu.translation import PAGES_PER_2MB, PageSize, RangeTranslation, Translation
from repro.tlb.fully_assoc import FullyAssociativeTLB


class TestBasics:
    def test_miss_then_hit(self):
        tlb = FullyAssociativeTLB("t", 4)
        assert tlb.lookup(1) is None
        tlb.fill(1, "a")
        assert tlb.lookup(1) == "a"

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            FullyAssociativeTLB("t", 0)

    def test_lru_eviction(self):
        tlb = FullyAssociativeTLB("t", 2)
        tlb.fill(1, "a")
        tlb.fill(2, "b")
        tlb.lookup(1)
        tlb.fill(3, "c")  # evicts 2 (LRU)
        assert tlb.peek(2) is None
        assert tlb.peek(1) == "a"

    def test_fill_refreshes_existing(self):
        tlb = FullyAssociativeTLB("t", 2)
        tlb.fill(1, "a")
        tlb.fill(2, "b")
        tlb.fill(1, "A")
        tlb.fill(3, "c")  # evicts 2
        assert tlb.peek(1) == "A"
        assert tlb.peek(2) is None

    def test_recency_order(self):
        tlb = FullyAssociativeTLB("t", 3)
        for key in (1, 2, 3):
            tlb.fill(key, key)
        tlb.lookup(1)
        assert tlb.resident() == [1, 3, 2]

    def test_invalidate_and_flush(self):
        tlb = FullyAssociativeTLB("t", 3)
        tlb.fill(1, "a")
        assert tlb.invalidate(1) == 1
        assert tlb.invalidate(1) == 0
        tlb.fill(2, "b")
        tlb.flush()
        assert tlb.occupancy() == 0

    def test_stats_counting(self):
        tlb = FullyAssociativeTLB("t", 2)
        tlb.lookup(7)
        tlb.fill(7, 1)
        tlb.lookup(7)
        tlb.sync_stats()
        assert tlb.stats.misses == 1
        assert tlb.stats.hits == 1
        assert tlb.stats.lookups_by_ways == {2: 2}
        assert tlb.stats.fills_by_ways == {2: 1}


class TestResizing:
    def test_shrink_drops_lru(self):
        tlb = FullyAssociativeTLB("t", 4)
        for key in (1, 2, 3, 4):
            tlb.fill(key, key)
        tlb.set_active_entries(2)
        assert tlb.resident() == [4, 3]

    def test_grow_restores_capacity_without_stale(self):
        tlb = FullyAssociativeTLB("t", 4)
        for key in (1, 2, 3, 4):
            tlb.fill(key, key)
        tlb.set_active_entries(1)
        tlb.set_active_entries(4)
        assert tlb.resident() == [4]
        for key in (5, 6, 7, 8):
            tlb.fill(key, key)
        assert tlb.occupancy() == 4

    def test_out_of_range_rejected(self):
        tlb = FullyAssociativeTLB("t", 4)
        with pytest.raises(ValueError):
            tlb.set_active_entries(0)
        with pytest.raises(ValueError):
            tlb.set_active_entries(5)

    def test_lookups_histogrammed_by_capacity(self):
        tlb = FullyAssociativeTLB("t", 4)
        tlb.lookup(1)
        tlb.set_active_entries(2)
        tlb.lookup(1)
        tlb.sync_stats()
        assert tlb.stats.lookups_by_ways == {4: 1, 2: 1}

    def test_rank_counters(self):
        tlb = FullyAssociativeTLB("t", 8)
        counters = [0] * 4
        tlb.hit_rank_counters = counters
        for key in range(8):
            tlb.fill(key, key)
        tlb.lookup(7)  # rank 0
        tlb.lookup(0)  # rank 7 -> group 3
        assert counters == [1, 0, 0, 1]


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=200),
    entries=st.integers(min_value=1, max_value=8),
)
def test_matches_reference_lru_stack(keys, entries):
    tlb = FullyAssociativeTLB("t", entries)
    stack: list[int] = []
    for key in keys:
        expect_hit = key in stack
        assert (tlb.lookup(key) is not None) == expect_hit
        if expect_hit:
            stack.remove(key)
        else:
            tlb.fill(key, key)
        stack.insert(0, key)
        del stack[entries:]
    assert tlb.resident() == stack


# ----------------------------------------------------------------------
# The interval contract, once per span kind the hierarchies use.  Each
# kind maps an index to the disjoint ``(key, value, span)`` fill of entry i.
# ----------------------------------------------------------------------
def _keyed(i):
    """An L1-1GB / paging-structure-cache tag: one page at its granularity."""
    return i, i, 1


def _translation(i):
    """Masked-CAM entries (L1-FA, L0 filter): alternating 4 KB and 2 MB pages."""
    size = PageSize.SIZE_2MB if i % 2 else PageSize.SIZE_4KB
    translation = Translation(i * PAGES_PER_2MB, (i + 8) * PAGES_PER_2MB, size)
    return translation.vpn, translation, int(size)


def _range(i):
    """RMM range-TLB entries: 60-page ranges."""
    rng = RangeTranslation(i * 100, i * 100 + 60, 5000 + i * 100)
    return rng.base_vpn, rng, rng.num_pages


SPAN_KINDS = {"keyed": _keyed, "translation": _translation, "range": _range}


@pytest.fixture(params=list(SPAN_KINDS))
def kind(request):
    return SPAN_KINDS[request.param]


class TestSpanKinds:
    def test_every_page_of_the_interval_hits(self, kind):
        tlb = FullyAssociativeTLB("t", 4)
        key, value, span = kind(3)
        tlb.fill(key, value, span)
        assert tlb.lookup(key) == value
        assert tlb.lookup(key + span - 1) == value
        assert tlb.lookup(key + span) is None
        assert tlb.lookup(key - 1) is None
        assert tlb.intervals() == [(key, key + span)]

    def test_fill_drops_every_overlapping_entry(self, kind):
        tlb = FullyAssociativeTLB("t", 8)
        for i in range(4):
            tlb.fill(*kind(i))
        lo = kind(1)[0]
        key, _, span = kind(2)
        tlb.fill(lo, "cover", key + span - lo)  # overlaps entries 1 and 2
        assert tlb.resident() == ["cover", kind(3)[1], kind(0)[1]]
        tlb.sync_stats()
        assert tlb.stats.fills == 5

    def test_invalidate_counts_dropped_entries(self, kind):
        tlb = FullyAssociativeTLB("t", 8)
        for i in range(4):
            tlb.fill(*kind(i))
        lo = kind(1)[0]
        key, _, span = kind(2)
        assert tlb.invalidate(lo, key + span - lo) == 2
        assert tlb.invalidate(lo) == 0
        assert tlb.resident() == [kind(3)[1], kind(0)[1]]

    def test_state_round_trip(self, kind):
        tlb = FullyAssociativeTLB("t", 4)
        for i in range(5):
            tlb.fill(*kind(i))
        tlb.lookup(kind(2)[0])
        tlb.set_active_entries(2)
        clone = FullyAssociativeTLB("t", 4)
        clone.load_state_dict(tlb.state_dict())
        assert clone.state_dict() == tlb.state_dict()
        assert clone.resident() == tlb.resident()
        assert clone.intervals() == tlb.intervals()
