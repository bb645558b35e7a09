"""Tests for the extension configurations: FA_Lite and RMM_PP_Lite.

FA_Lite implements the paper's Section 4.4 discussion (single fully-
associative mixed L1 TLB, Lite resizing its capacity); RMM_PP_Lite the
Section 6.1 combined future-work design (TLB_PP pages + L1-range TLB +
Lite).
"""

import pytest

from repro.analysis.experiments import ExperimentSettings, run_workload_config
from repro.core.organizations import (
    EXTENDED_CONFIG_NAMES,
    build_organization,
    paging_policy_for,
)
from repro.mem.paging import EagerPaging, TransparentHugePaging
from repro.mem.physical import PhysicalMemory
from repro.mem.process import Process
from repro.mmu.translation import PAGES_PER_2MB
from repro.workloads.base import VMASpec, Workload
from repro.workloads.patterns import Mixture, UniformRandom, Zipf


def make_process(policy):
    process = Process(PhysicalMemory(1 << 30, seed=3), policy)
    process.mmap(PAGES_PER_2MB * 2 + 64, name="heap")
    process.mmap(64, name="stack", thp_eligible=False)
    return process


def tiny_workload():
    def pattern(regions):
        return Mixture(
            [
                (Zipf(regions["heap"].subregion(0, 48), alpha=1.2, burst=4), 0.7),
                (UniformRandom(regions["heap"], burst=3), 0.3),
            ]
        )

    return Workload(
        "tiny-ext",
        "TEST",
        [VMASpec("heap", 24), VMASpec("stack", 1, thp_eligible=False)],
        pattern,
        instructions_per_access=3.0,
    )


SETTINGS = ExperimentSettings(trace_accesses=25_000, physical_bytes=1 << 28)


class TestFALite:
    def test_structures(self):
        org = build_organization("FA_Lite", make_process(TransparentHugePaging()))
        names = {s.name for s in org.hierarchy.all_structures()}
        assert "L1-FA" in names and "L2-4KB" in names
        assert org.lite is not None
        assert org.lite.units[0].max_units == 64

    def test_single_l1_probe_per_access(self):
        result = run_workload_config(tiny_workload(), "FA_Lite", SETTINGS)
        assert result.structure_stats["L1-FA"].lookups == result.accesses

    def test_holds_both_page_sizes(self):
        org = build_organization("FA_Lite", make_process(TransparentHugePaging()))
        h = org.hierarchy
        process_heap_vpn = 0x10000  # first auto-placed VMA
        h.access(process_heap_vpn)  # 2MB page
        entry = h.l1_fa.peek(process_heap_vpn)
        assert entry is not None and int(entry.page_size) == PAGES_PER_2MB

    def test_registered_in_dispatch(self):
        assert "FA_Lite" in EXTENDED_CONFIG_NAMES
        policy = paging_policy_for("FA_Lite")
        assert isinstance(policy, TransparentHugePaging)
        org = build_organization("FA_Lite", make_process(policy))
        assert org.name == "FA_Lite"

    def test_saves_energy_vs_thp(self):
        workload = tiny_workload()
        thp = run_workload_config(workload, "THP", SETTINGS)
        fa = run_workload_config(workload, "FA_Lite", SETTINGS)
        # One (pricier) structure vs two structures probed per access —
        # plus Lite resizing: the FA organization costs less here.
        assert fa.total_energy_pj < thp.total_energy_pj


class TestRMMPPLite:
    def test_structures(self):
        org = build_organization("RMM_PP_Lite", make_process(EagerPaging("thp")))
        names = {s.name for s in org.hierarchy.all_structures()}
        assert {"L1-mixed", "L2-mixed", "L1-range", "L2-range"} <= names
        assert org.lite is not None

    def test_requires_ranges(self):
        with pytest.raises(ValueError):
            build_organization("RMM_PP_Lite", make_process(TransparentHugePaging()))

    def test_range_tlb_serves_hits(self):
        result = run_workload_config(tiny_workload(), "RMM_PP_Lite", SETTINGS)
        shares = result.hit_shares()
        assert shares.get("L1-range", 0) > 0.5
        assert result.l2_mpki < 0.1

    def test_beats_tlb_pp_and_matches_rmm_lite(self):
        workload = tiny_workload()
        pp = run_workload_config(workload, "TLB_PP", SETTINGS)
        rmm_lite = run_workload_config(workload, "RMM_Lite", SETTINGS)
        combined = run_workload_config(workload, "RMM_PP_Lite", SETTINGS)
        assert combined.total_energy_pj < pp.total_energy_pj
        # The combined design lands in RMM_Lite's energy ballpark.
        assert combined.total_energy_pj < 1.3 * rmm_lite.total_energy_pj

    def test_mixed_l1_downsizes_under_range_cover(self):
        result = run_workload_config(tiny_workload(), "RMM_PP_Lite", SETTINGS)
        shares = result.way_lookup_shares("L1-mixed")
        assert shares.get(1, 0) > 0.5


class TestExtendedDispatch:
    def test_all_extended_configs_run(self):
        workload = tiny_workload()
        for config in EXTENDED_CONFIG_NAMES:
            result = run_workload_config(workload, config, SETTINGS)
            assert result.total_energy_pj > 0, config
