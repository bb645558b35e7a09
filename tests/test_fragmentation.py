"""Robustness under physical-memory fragmentation.

Real systems age: huge-page allocations fail and policies must degrade
gracefully.  THP falls back to 4 KB pages per chunk; eager paging splits
the request into smaller ranges (the RMM design's demotion path).
"""

import pytest

from repro.mem.paging import EagerPaging, TransparentHugePaging
from repro.mem.physical import OutOfMemoryError, PhysicalMemory
from repro.mem.process import Process
from repro.mmu.translation import PAGES_PER_2MB, PageSize


def fragmented_memory(total_bytes=1 << 28, pin_stride=1, seed=9):
    """Memory with one frame pinned every ``pin_stride`` frames.

    Drains the whole arena through the scatter pool, then frees every
    frame except those at multiples of ``pin_stride`` — deterministic
    fragmentation: free runs never exceed ``pin_stride - 1`` frames, so
    no 2 MB block exists for ``pin_stride <= 512`` while plenty of total
    memory stays free.  ``pin_stride=1`` pins nothing back (keeps all).
    """
    memory = PhysicalMemory(total_bytes, seed=seed)
    frames = []
    while True:
        try:
            frames.append(memory.alloc_frame())
        except OutOfMemoryError:
            break
    for pfn in frames:
        if pin_stride == 1 or pfn % pin_stride != 0:
            memory.free_frame(pfn)
    return memory


class TestTHPDegradation:
    def test_thp_falls_back_to_4kb(self):
        # One pinned frame per 2 MB chunk: no order-9 block anywhere.
        process = Process(fragmented_memory(pin_stride=256), TransparentHugePaging())
        process.mmap(PAGES_PER_2MB * 4, name="heap")
        histogram = process.page_size_histogram()
        # No 2 MB blocks available: every chunk degraded, nothing crashed.
        assert histogram[PageSize.SIZE_2MB] == 0
        assert histogram[PageSize.SIZE_4KB] == PAGES_PER_2MB * 4

    def test_partial_fragmentation_mixes_sizes(self):
        memory = PhysicalMemory(1 << 28, seed=4)
        # Pin one order-9 block's worth of scattered frames to break some
        # contiguity but leave other blocks whole.
        memory.fragment(0.3, seed=4)
        process = Process(memory, TransparentHugePaging())
        process.mmap(PAGES_PER_2MB * 8, name="heap")
        histogram = process.page_size_histogram()
        assert histogram[PageSize.SIZE_2MB] >= 1  # some chunks survive
        for vpn in range(0x10000, 0x10000 + 64):
            process.translate(vpn)  # everything mapped either way

    def test_true_exhaustion_still_raises(self):
        tiny = PhysicalMemory(1 << 20, seed=1)  # 256 frames
        process = Process(tiny, TransparentHugePaging())
        with pytest.raises(OutOfMemoryError):
            process.mmap(PAGES_PER_2MB * 2, name="heap")


class TestEagerRangeSplitting:
    def test_split_into_multiple_ranges(self):
        memory = fragmented_memory(pin_stride=256, seed=7)
        process = Process(memory, EagerPaging("4kb"))
        vma = process.mmap(12_000, name="heap")
        assert len(process.range_table) >= 2  # demoted into smaller ranges
        # Redundancy invariant holds per range.
        for vpn in range(vma.start_vpn, vma.end_vpn, 997):
            rng = process.range_table.lookup(vpn)
            assert rng is not None
            assert process.translate(vpn) == rng.translate(vpn)

    def test_ranges_tile_the_vma_exactly(self):
        memory = fragmented_memory(pin_stride=256, seed=8)
        process = Process(memory, EagerPaging("4kb"))
        vma = process.mmap(10_000, name="heap")
        covered = sorted(
            (rng.base_vpn, rng.limit_vpn)
            for rng in process.range_table
            if vma.start_vpn <= rng.base_vpn < vma.end_vpn
        )
        assert covered[0][0] == vma.start_vpn
        assert covered[-1][1] == vma.end_vpn
        for (a_start, a_end), (b_start, b_end) in zip(covered, covered[1:]):
            assert a_end == b_start  # no gaps, no overlaps

    def test_munmap_removes_all_split_ranges(self):
        memory = fragmented_memory(pin_stride=256, seed=8)
        process = Process(memory, EagerPaging("4kb"))
        vma = process.mmap(10_000, name="heap")
        assert len(process.range_table) >= 2
        process.munmap(vma)
        assert len(process.range_table) == 0

    def test_min_range_pages_floor(self):
        # Pin every 32nd frame: no run can host even a 64-page range.
        tiny = fragmented_memory(total_bytes=1 << 22, pin_stride=32, seed=1)
        process = Process(tiny, EagerPaging("4kb", min_range_pages=64))
        with pytest.raises(OutOfMemoryError):
            process.mmap(4_096, name="heap")

    def test_invalid_min_range(self):
        with pytest.raises(ValueError):
            EagerPaging("4kb", min_range_pages=0)


class TestRMMUnderFragmentation:
    @staticmethod
    def run_rmm_lite(pin_stride, seed):
        from repro.core.organizations import build_organization
        from repro.core.simulator import Simulator
        import numpy as np

        memory = fragmented_memory(pin_stride=pin_stride, seed=seed)
        process = Process(memory, EagerPaging("4kb"))
        vma = process.mmap(12_000, name="heap")
        org = build_organization("RMM_Lite", process)
        rng = np.random.default_rng(0)
        trace = vma.start_vpn + rng.integers(vma.num_pages, size=20_000)
        result = Simulator(org).run(
            trace.astype(np.int64), fast_forward_accesses=2_000
        )
        return result, len(process.range_table)

    def test_mild_fragmentation_few_ranges_still_covered(self):
        """A handful of demoted ranges still fits the 32-entry L2-range
        TLB: walks stay near zero."""
        result, num_ranges = self.run_rmm_lite(pin_stride=4_096, seed=11)
        assert 2 <= num_ranges <= 32
        assert result.l2_mpki < 0.5

    def test_severe_fragmentation_defeats_the_range_tlb(self):
        """RMM's known limit: once demotion produces more ranges than the
        L2-range TLB holds, random access brings the walks back — the
        robustness of range translations depends on eager paging keeping
        ranges large."""
        result, num_ranges = self.run_rmm_lite(pin_stride=256, seed=11)
        assert num_ranges > 32
        assert result.l2_mpki > 10
