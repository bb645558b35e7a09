"""Tests for the L0-filter related-work baseline (paper Section 7)."""

import pytest

from repro.analysis.experiments import ExperimentSettings, run_workload_config
from repro.core.organizations import build_organization, paging_policy_for
from repro.core.params import TLB_LITE_PARAMS
from repro.mem.paging import TransparentHugePaging
from repro.mem.physical import PhysicalMemory
from repro.mem.process import Process
from repro.mmu.translation import PAGES_PER_2MB, PageSize
from repro.workloads.base import VMASpec, Workload
from repro.workloads.patterns import Zipf

SETTINGS = ExperimentSettings(trace_accesses=30_000, physical_bytes=1 << 28)


def tight_workload():
    return Workload(
        "l0-tight",
        "TEST",
        [VMASpec("heap", 8), VMASpec("stack", 1, thp_eligible=False)],
        lambda regions: Zipf(regions["heap"].subregion(0, 6), alpha=1.2, burst=4),
        instructions_per_access=3.0,
    )


def make_process():
    process = Process(PhysicalMemory(1 << 29, seed=3), TransparentHugePaging())
    process.mmap(PAGES_PER_2MB * 2, name="heap")
    process.mmap(64, name="stack", thp_eligible=False)
    return process


class TestL0Hierarchy:
    def test_l0_hit_skips_l1_probes(self):
        org = build_organization("L0_Filter", make_process())
        h = org.hierarchy
        heap_vpn = 0x10000
        h.access(heap_vpn)  # cold: L0 miss, walk, promote to L0
        h.access(heap_vpn)  # L0 hit
        h.sync_stats()
        stats = {s.name: s.stats for s in h.all_structures()}
        assert stats["L0-filter"].lookups == 2
        assert stats["L0-filter"].hits == 1
        # The L1 probe happened only on the L0 miss.
        assert stats["L1-4KB"].lookups == 1

    def test_huge_entry_promoted_covers_whole_page(self):
        org = build_organization("L0_Filter", make_process())
        h = org.hierarchy
        h.access(0x10000)  # 2MB page
        assert h.l0.peek(0x10000).page_size is PageSize.SIZE_2MB
        h.access(0x10000 + 37)  # same huge page: L0 hit
        assert h.l0_attributed_hits == 1

    def test_attribution_includes_l0(self):
        result = run_workload_config(tight_workload(), "L0_Filter", SETTINGS)
        shares = result.hit_shares()
        assert shares.get("L0-filter", 0) > 0.7

    def test_shootdown_clears_l0(self):
        process = make_process()
        org = build_organization("L0_Filter", process)
        h = org.hierarchy
        h.access(0x10000)
        process.break_huge_page(0x10000)
        h.shootdown_huge_page(0x10000)
        assert h.l0.peek(0x10000) is None


class TestL0Configs:
    def test_filter_saves_energy_on_tight_workloads(self):
        workload = tight_workload()
        thp = run_workload_config(workload, "THP", SETTINGS)
        filtered = run_workload_config(workload, "L0_Filter", SETTINGS)
        assert filtered.total_energy_pj < 0.7 * thp.total_energy_pj
        # Filtering does not change what hits/misses overall.
        assert filtered.l2_misses == thp.l2_misses

    def test_l0_lite_runs_and_keeps_misses_bounded(self):
        workload = tight_workload()
        filtered = run_workload_config(workload, "L0_Filter", SETTINGS)
        combined = run_workload_config(workload, "L0_Lite", SETTINGS)
        assert combined.l1_mpki <= filtered.l1_mpki * 1.5 + 0.5

    def test_dispatch(self):
        policy = paging_policy_for("L0_Filter")
        assert isinstance(policy, TransparentHugePaging)
        org = build_organization("L0_Filter", make_process())
        assert org.name == "L0_Filter"
        assert org.lite is None
        org = build_organization("L0_Lite", make_process(), lite_params=TLB_LITE_PARAMS)
        assert org.name == "L0_Lite"
        assert org.lite is not None

    def test_every_structure_bound(self):
        org = build_organization("L0_Filter", make_process())
        bound = {binding.name for binding in org.bindings}
        structures = {s.name for s in org.hierarchy.all_structures()}
        assert bound == structures
