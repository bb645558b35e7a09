"""Tests for the TLB hierarchy translation paths and static enabling."""

import pytest

from repro.core.hierarchy import L1Slot, MixedTLBHierarchy, TLBHierarchy
from repro.errors import ConfigurationError
from repro.mem.range_table import RangeTable
from repro.mmu.page_table import PageTable
from repro.mmu.translation import (
    PAGES_PER_2MB,
    PageSize,
    RangeTranslation,
    Translation,
)
from repro.mmu.walker import PageWalker
from repro.tlb.fully_assoc import FullyAssociativeTLB
from repro.tlb.set_assoc import SetAssociativeTLB


def build_page_table():
    pt = PageTable()
    for vpn in range(0, 64):
        pt.map(Translation(vpn, 10_000 + vpn, PageSize.SIZE_4KB))
    pt.map(Translation(PAGES_PER_2MB, 20_480, PageSize.SIZE_2MB))
    return pt


def build_hierarchy(pt=None, with_ranges=False, with_l1_range=False, range_table=None):
    pt = pt or build_page_table()
    slots = [
        L1Slot(SetAssociativeTLB("L1-4KB", 64, 4), PageSize.SIZE_4KB),
        L1Slot(SetAssociativeTLB("L1-2MB", 32, 4), PageSize.SIZE_2MB),
        L1Slot(FullyAssociativeTLB("L1-1GB", 4), PageSize.SIZE_1GB),
    ]
    kwargs = {}
    if with_ranges:
        kwargs["l2_range"] = FullyAssociativeTLB("L2-range", 32)
        kwargs["range_table"] = range_table
        if with_l1_range:
            kwargs["l1_range"] = FullyAssociativeTLB("L1-range", 4)
    return TLBHierarchy(
        slots, SetAssociativeTLB("L2-4KB", 512, 4), PageWalker(pt), **kwargs
    )


class TestBasicFlow:
    def test_cold_access_misses_everywhere_and_walks(self):
        h = build_hierarchy()
        h.access(0)
        assert h.l1_misses == 1
        assert h.l2_misses == 1
        assert h.walker.stats.walks == 1

    def test_second_access_hits_l1(self):
        h = build_hierarchy()
        h.access(0)
        h.access(0)
        assert h.l1_misses == 1
        assert h.accesses == 2

    def test_l2_hit_after_l1_eviction(self):
        h = build_hierarchy()
        # Fill set 0 of the L1-4KB TLB (keys 0,16,32,48) plus one more.
        for vpn in (0, 16, 32, 48):
            h.access(vpn)
        h.access(0)  # refresh
        # Evict 16 from L1 by touching a 5th key in set 0... need key%16==0
        # beyond 48: not mapped; instead touch 0,32,48 then a new set-0 key.
        h.access(16)
        assert h.l2_misses == 4  # only the four compulsory walks

    def test_2mb_page_enables_its_slot(self):
        h = build_hierarchy()
        slot_2mb = h.l1_slots[1]
        assert not slot_2mb.enabled
        h.access(PAGES_PER_2MB + 3)  # walk returns a 2MB leaf
        assert slot_2mb.enabled
        h.access(PAGES_PER_2MB + 7)  # now hits the L1-2MB TLB
        assert h.l1_misses == 1

    def test_disabled_slots_burn_no_lookups(self):
        h = build_hierarchy()
        for vpn in range(8):
            h.access(vpn)
        h.sync_stats()
        assert h.l1_slots[1].tlb.stats.lookups == 0
        assert h.l1_slots[2].tlb.stats.lookups == 0

    def test_2mb_translations_never_enter_l2(self):
        h = build_hierarchy()
        h.access(PAGES_PER_2MB)
        h.access(PAGES_PER_2MB)
        h.sync_stats()
        assert h.l2_page.stats.fills == 0

    def test_4kb_miss_in_l2_fills_l1_from_l2(self):
        h = build_hierarchy()
        h.access(0)
        # Evict vpn 0 from L1 set 0 with 4 other set-0 keys (16,32,48 + ...).
        for vpn in (16, 32, 48):
            h.access(vpn)
        h.access(PAGES_PER_2MB)  # unrelated
        # Push vpn 0 out of L1: one more set-0 fill needed; reuse eviction
        # by downsizing instead (invalidate).
        h.l1_slots[0].tlb.set_active_ways(1)
        h.l1_slots[0].tlb.set_active_ways(4)
        walks_before = h.walker.stats.walks
        h.access(16)  # L1 miss (invalidated), L2 hit -> no walk
        assert h.walker.stats.walks == walks_before

    def test_missing_4kb_slot_rejected(self):
        slots = [L1Slot(SetAssociativeTLB("L1-2MB", 32, 4), PageSize.SIZE_2MB)]
        with pytest.raises(ConfigurationError):
            TLBHierarchy(slots, SetAssociativeTLB("L2", 512, 4), PageWalker(PageTable()))

    def test_walk_size_without_slot_rejected(self):
        pt = build_page_table()
        slots = [L1Slot(SetAssociativeTLB("L1-4KB", 64, 4), PageSize.SIZE_4KB)]
        h = TLBHierarchy(slots, SetAssociativeTLB("L2", 512, 4), PageWalker(pt))
        with pytest.raises(ConfigurationError):
            h.access(PAGES_PER_2MB)  # 2MB leaf, no 2MB slot


class TestAttribution:
    def test_page_hits_attributed_per_slot(self):
        h = build_hierarchy()
        h.access(0)
        h.access(0)
        h.access(PAGES_PER_2MB)
        h.access(PAGES_PER_2MB + 1)
        attribution = h.hit_attribution()
        assert attribution["L1-4KB"] == 1
        assert attribution["L1-2MB"] == 1

    def test_reset_measurement_clears_counters_keeps_contents(self):
        h = build_hierarchy()
        h.access(0)
        h.access(0)
        h.reset_measurement()
        assert h.l1_misses == 0
        assert h.hit_attribution()["L1-4KB"] == 0
        h.access(0)  # still resident -> hit, no walk
        assert h.l1_misses == 0
        assert h.walker.stats.walks == 0


class TestRangePath:
    def build_with_ranges(self, l1=False):
        pt = PageTable()
        table = RangeTable()
        base = 0
        for vpn in range(64):
            pt.map(Translation(vpn, 5000 + vpn, PageSize.SIZE_4KB))
        table.insert(RangeTranslation(0, 64, 5000))
        return build_hierarchy(pt, with_ranges=True, with_l1_range=l1, range_table=table)

    def test_range_walk_fills_l2_range(self):
        h = self.build_with_ranges()
        h.access(5)  # walk + background range walk
        assert h.range_walk_refs >= 1
        assert h.l2_range.occupancy() == 1

    def test_l2_range_hit_avoids_walk(self):
        h = self.build_with_ranges()
        h.access(5)
        # Invalidate L1 so the next access reaches L2.
        h.l1_slots[0].tlb.flush()
        h.l2_page.flush()
        walks_before = h.walker.stats.walks
        h.access(6)
        assert h.walker.stats.walks == walks_before  # L2-range hit
        assert h.l2_misses == 1  # only the first access

    def test_l2_range_hit_synthesizes_l1_4kb_entry(self):
        h = self.build_with_ranges()
        h.access(5)
        h.l1_slots[0].tlb.flush()
        h.l2_page.flush()
        h.access(6)
        entry = h.l1_slots[0].tlb.peek(6)
        assert entry is not None
        assert entry.translate(6) == 5006

    def test_l1_range_filled_from_l2_range_hit(self):
        h = self.build_with_ranges(l1=True)
        h.access(5)  # walk; fills L2-range
        assert h.l1_range.occupancy() == 0  # not yet promoted
        h.l1_slots[0].tlb.flush()
        h.access(6)  # L1 miss -> L2-range hit -> promote to L1-range
        assert h.l1_range.occupancy() == 1
        h.access(7)  # L1-range hit now
        assert h.hit_attribution()["L1-range"] == 1

    def test_range_hit_takes_attribution_precedence(self):
        h = self.build_with_ranges(l1=True)
        h.access(5)
        h.l1_slots[0].tlb.flush()
        h.access(6)  # promotes range to L1
        h.access(6)  # hits both L1-4KB (synth) and L1-range
        assert h.hit_attribution()["L1-range"] == 1

    def test_l1_range_requires_l2_range(self):
        with pytest.raises(ConfigurationError):
            TLBHierarchy(
                [L1Slot(SetAssociativeTLB("L1-4KB", 64, 4), PageSize.SIZE_4KB)],
                SetAssociativeTLB("L2", 512, 4),
                PageWalker(PageTable()),
                l1_range=FullyAssociativeTLB("L1-range", 4),
            )

    def test_range_tlbs_require_range_table(self):
        with pytest.raises(ConfigurationError):
            TLBHierarchy(
                [L1Slot(SetAssociativeTLB("L1-4KB", 64, 4), PageSize.SIZE_4KB)],
                SetAssociativeTLB("L2", 512, 4),
                PageWalker(PageTable()),
                l2_range=FullyAssociativeTLB("L2-range", 32),
            )


class TestMixedHierarchy:
    def build_mixed(self):
        pt = build_page_table()
        huge_chunks = frozenset({PAGES_PER_2MB >> 9})
        return MixedTLBHierarchy(
            SetAssociativeTLB("L1-mixed", 64, 4),
            SetAssociativeTLB("L2-mixed", 512, 4),
            PageWalker(pt),
            huge_chunks,
        )

    def test_4kb_and_2mb_keys_do_not_alias(self):
        key_4k = MixedTLBHierarchy.oracle_key(512, False)
        key_2m = MixedTLBHierarchy.oracle_key(512, True)
        assert key_4k != key_2m

    def test_mixed_hits_by_size(self):
        h = self.build_mixed()
        h.access(3)
        h.access(3)
        h.access(PAGES_PER_2MB + 1)
        h.access(PAGES_PER_2MB + 2)  # same huge page -> hit
        assert h.attributed_hits_4kb == 1
        assert h.attributed_hits_2mb == 1

    def test_2mb_entries_cached_in_mixed_l2(self):
        h = self.build_mixed()
        h.access(PAGES_PER_2MB)
        h.l1_mixed.flush()
        walks_before = h.walker.stats.walks
        h.access(PAGES_PER_2MB + 9)  # L2-mixed hit
        assert h.walker.stats.walks == walks_before

    def test_structures_listed(self):
        h = self.build_mixed()
        names = {s.name for s in h.all_structures()}
        assert {"L1-mixed", "L2-mixed"} <= names

    def test_reset_measurement(self):
        h = self.build_mixed()
        h.access(3)
        h.access(3)
        h.reset_measurement()
        assert h.attributed_hits_4kb == 0
        assert h.l1_misses == 0
