"""Tests for the organization catalogue, its builder and its energy bindings."""

import dataclasses

import pytest

from repro.core.organizations import (
    CONFIG_NAMES,
    EXTENDED_CONFIG_NAMES,
    build_organization,
    paging_policy_for,
)
from repro.core.params import HierarchyParams, LiteParams
from repro.energy.cacti import TABLE2_PAGE_TLB
from repro.mem.paging import DemandPaging, EagerPaging, TransparentHugePaging
from repro.mem.physical import PhysicalMemory
from repro.mem.process import Process
from repro.mmu.translation import PAGES_PER_2MB


def make_process(policy):
    process = Process(PhysicalMemory(1 << 30, seed=3), policy)
    process.mmap(PAGES_PER_2MB * 2 + 64, name="heap")
    process.mmap(64, name="stack", thp_eligible=False)
    return process


class TestBuilders:
    def test_4kb_structures(self):
        org = build_organization("4KB", make_process(DemandPaging()))
        names = {s.name for s in org.hierarchy.all_structures()}
        assert {"L1-4KB", "L1-2MB", "L1-1GB", "L2-4KB"} <= names
        assert org.lite is None
        assert org.hierarchy.l2_range is None

    def test_thp_same_structures_as_4kb(self):
        org = build_organization("THP", make_process(TransparentHugePaging()))
        assert org.name == "THP"
        assert org.hierarchy.l1_range is None

    def test_tlb_lite_monitors_all_l1_page_tlbs(self):
        """Paper Section 4.2.2: Lite resizes the 4KB, 2MB, *and* 1GB TLBs."""
        org = build_organization("TLB_Lite", make_process(TransparentHugePaging()))
        monitored = {unit.name for unit in org.lite.units}
        assert monitored == {"L1-4KB", "L1-2MB", "L1-1GB"}

    def test_rmm_has_l2_range_only(self):
        org = build_organization("RMM", make_process(EagerPaging("thp")))
        assert org.hierarchy.l2_range is not None
        assert org.hierarchy.l1_range is None

    def test_rmm_requires_ranges(self):
        with pytest.raises(ValueError):
            build_organization("RMM", make_process(DemandPaging()))

    def test_rmm_lite_shape(self):
        org = build_organization("RMM_Lite", make_process(EagerPaging("4kb")))
        assert org.hierarchy.l1_range is not None
        assert org.hierarchy.l1_range.entries == 4
        assert org.hierarchy.l2_range.entries == 32
        # The huge-page L1 TLBs are replaced by the L1-range TLB.
        assert len(org.hierarchy.l1_slots) == 1
        assert org.lite is not None
        assert org.lite.params.threshold_mode == "absolute"

    def test_tlb_pp_oracle_covers_huge_chunks(self):
        process = make_process(TransparentHugePaging())
        org = build_organization("TLB_PP", process)
        heap = next(iter(process.address_space))
        assert (heap.start_vpn >> 9) in org.hierarchy._huge_chunks
        assert org.hierarchy.l1_mixed.entries == 64

    def test_custom_hierarchy_params(self):
        params = HierarchyParams().with_l1_4kb(16, 1)
        org = build_organization("THP", make_process(TransparentHugePaging()), params)
        l1 = org.hierarchy.l1_slots[0].tlb
        assert l1.entries == 16
        assert l1.ways == 1

    def test_build_organization_dispatch(self):
        for name in CONFIG_NAMES:
            policy = paging_policy_for(name)
            org = build_organization(name, make_process(policy))
            assert org.name == name
        with pytest.raises(KeyError):
            build_organization("bogus", make_process(DemandPaging()))

    def test_summary_renders(self):
        org = build_organization("RMM_Lite", make_process(EagerPaging("4kb")))
        text = org.summary.render()
        assert "L1-range" in text
        assert "Lite" in text


class TestPolicies:
    def test_policy_mapping(self):
        assert isinstance(paging_policy_for("4KB"), DemandPaging)
        assert isinstance(paging_policy_for("THP"), TransparentHugePaging)
        assert isinstance(paging_policy_for("TLB_Lite"), TransparentHugePaging)
        assert isinstance(paging_policy_for("TLB_PP"), TransparentHugePaging)
        rmm = paging_policy_for("RMM")
        assert isinstance(rmm, EagerPaging) and rmm.page_layout == "thp"
        rmm_lite = paging_policy_for("RMM_Lite")
        assert isinstance(rmm_lite, EagerPaging) and rmm_lite.page_layout == "4kb"
        with pytest.raises(KeyError):
            paging_policy_for("nope")

    def test_thp_coverage_forwarded(self):
        policy = paging_policy_for("THP", thp_coverage=0.5)
        assert policy.coverage == 0.5


class TestEnergyBindings:
    def test_every_structure_has_a_binding(self):
        org = build_organization("RMM_Lite", make_process(EagerPaging("4kb")))
        bound = {binding.name for binding in org.bindings}
        structures = {s.name for s in org.hierarchy.all_structures()}
        assert bound == structures

    def test_l1_4kb_binding_follows_table2(self):
        org = build_organization("THP", make_process(TransparentHugePaging()))
        binding = next(b for b in org.bindings if b.name == "L1-4KB")
        for ways, key in ((4, (64, 4)), (2, (32, 2)), (1, (16, 1))):
            assert binding.params_for_ways(ways) == TABLE2_PAGE_TLB[key]

    def test_l1_2mb_binding_follows_table2(self):
        org = build_organization("THP", make_process(TransparentHugePaging()))
        binding = next(b for b in org.bindings if b.name == "L1-2MB")
        assert binding.params_for_ways(4) == TABLE2_PAGE_TLB[(32, 4)]
        assert binding.params_for_ways(1) == TABLE2_PAGE_TLB[(8, 1)]

    def test_components_labelled(self):
        org = build_organization("RMM_Lite", make_process(EagerPaging("4kb")))
        components = {binding.component for binding in org.bindings}
        assert {"l1_page_tlbs", "l1_range_tlb", "l2_page_tlb", "l2_range_tlb", "mmu_cache"} == components

    def test_lite_params_override(self):
        lite_params = LiteParams(interval_instructions=5_000, seed=9)
        org = build_organization(
            "TLB_Lite", make_process(TransparentHugePaging()), lite_params=lite_params
        )
        assert org.lite.params.interval_instructions == 5_000


# ----------------------------------------------------------------------
# Catalogue pin: each organization's observable wiring.  Energy sums in
# binding order, so the binding order is pinned too.
# ----------------------------------------------------------------------
MMU_STRUCTURES = ["MMU-cache-PDE", "MMU-cache-PDPTE", "MMU-cache-PML4"]
MMU_BINDINGS = [(name, "mmu_cache") for name in MMU_STRUCTURES]
PAPER_TLB_LITE = LiteParams(
    interval_instructions=1_000_000,
    threshold_mode="relative",
    epsilon_relative=0.125,
    epsilon_absolute=0.1,
    reactivate_probability=1 / 64,
    min_ways=1,
    seed=0,
)
PAPER_RMM_LITE = dataclasses.replace(PAPER_TLB_LITE, threshold_mode="absolute")

#: name -> (hierarchy type, sorted structure names, bindings in energy-sum
#: order, Lite params or None, rendered summary, paging policy).
PINNED = {
    "4KB": (
        "TLBHierarchy",
        ["L1-1GB", "L1-2MB", "L1-4KB", "L2-4KB"] + MMU_STRUCTURES,
        [
            ("L1-4KB", "l1_page_tlbs"),
            ("L1-2MB", "l1_page_tlbs"),
            ("L1-1GB", "l1_page_tlbs"),
            ("L2-4KB", "l2_page_tlb"),
        ]
        + MMU_BINDINGS,
        None,
        (
            "4KB: pages 4KB\n"
            "  - L1-4KB 64e/4w\n"
            "  - L2-4KB 512e/4w\n"
            "  (huge-page L1 TLBs statically disabled)"
        ),
        "4KB demand paging",
    ),
    "THP": (
        "TLBHierarchy",
        ["L1-1GB", "L1-2MB", "L1-4KB", "L2-4KB"] + MMU_STRUCTURES,
        [
            ("L1-4KB", "l1_page_tlbs"),
            ("L1-2MB", "l1_page_tlbs"),
            ("L1-1GB", "l1_page_tlbs"),
            ("L2-4KB", "l2_page_tlb"),
        ]
        + MMU_BINDINGS,
        None,
        (
            "THP: pages 4KB+2MB\n"
            "  - L1-4KB 64e/4w\n"
            "  - L1-2MB 32e/4w\n"
            "  - L2-4KB 512e/4w"
        ),
        "THP (coverage=1)",
    ),
    "TLB_Lite": (
        "TLBHierarchy",
        ["L1-1GB", "L1-2MB", "L1-4KB", "L2-4KB"] + MMU_STRUCTURES,
        [
            ("L1-4KB", "l1_page_tlbs"),
            ("L1-2MB", "l1_page_tlbs"),
            ("L1-1GB", "l1_page_tlbs"),
            ("L2-4KB", "l2_page_tlb"),
        ]
        + MMU_BINDINGS,
        PAPER_TLB_LITE,
        (
            "TLB_Lite: pages 4KB+2MB\n"
            "  - L1-4KB 64e/4w\n"
            "  - L1-2MB 32e/4w\n"
            "  - L2-4KB 512e/4w\n"
            "  - Lite: interval 1000000 instr, ε relative"
        ),
        "THP (coverage=1)",
    ),
    "RMM": (
        "TLBHierarchy",
        ["L1-1GB", "L1-2MB", "L1-4KB", "L2-4KB", "L2-range"] + MMU_STRUCTURES,
        [
            ("L1-4KB", "l1_page_tlbs"),
            ("L1-2MB", "l1_page_tlbs"),
            ("L1-1GB", "l1_page_tlbs"),
            ("L2-4KB", "l2_page_tlb"),
            ("L2-range", "l2_range_tlb"),
        ]
        + MMU_BINDINGS,
        None,
        (
            "RMM: pages 4KB+2MB+range\n"
            "  - L1-4KB 64e/4w\n"
            "  - L1-2MB 32e/4w\n"
            "  - L2-4KB 512e/4w\n"
            "  - L2-range 32e fully assoc\n"
            "  (perfect eager paging)"
        ),
        "eager paging (thp pages)",
    ),
    "TLB_PP": (
        "MixedTLBHierarchy",
        ["L1-mixed", "L2-mixed"] + MMU_STRUCTURES,
        [
            ("L1-mixed", "l1_page_tlbs"),
            ("L2-mixed", "l2_page_tlb"),
        ]
        + MMU_BINDINGS,
        None,
        (
            "TLB_PP: pages 4KB+2MB\n"
            "  - L1-mixed 64e/4w\n"
            "  - L2-mixed 512e/4w\n"
            "  (perfect, zero-energy page-size predictor)"
        ),
        "THP (coverage=1)",
    ),
    "RMM_Lite": (
        "TLBHierarchy",
        ["L1-4KB", "L1-range", "L2-4KB", "L2-range"] + MMU_STRUCTURES,
        [
            ("L1-4KB", "l1_page_tlbs"),
            ("L2-4KB", "l2_page_tlb"),
            ("L1-range", "l1_range_tlb"),
            ("L2-range", "l2_range_tlb"),
        ]
        + MMU_BINDINGS,
        PAPER_RMM_LITE,
        (
            "RMM_Lite: pages 4KB+range\n"
            "  - L1-4KB 64e/4w\n"
            "  - L1-range 4e fully assoc\n"
            "  - L2-4KB 512e/4w\n"
            "  - L2-range 32e fully assoc\n"
            "  - Lite: absolute ε 0.1 MPKI\n"
            "  (perfect eager paging; L1 huge-page TLBs replaced by L1-range)"
        ),
        "eager paging (4kb pages)",
    ),
    "FA_Lite": (
        "FullyAssociativeL1Hierarchy",
        ["L1-FA", "L2-4KB"] + MMU_STRUCTURES,
        [
            ("L1-FA", "l1_page_tlbs"),
            ("L2-4KB", "l2_page_tlb"),
        ]
        + MMU_BINDINGS,
        PAPER_TLB_LITE,
        (
            "FA_Lite: pages 4KB+2MB\n"
            "  - L1-FA 64e fully assoc (all page sizes)\n"
            "  - L2-4KB 512e/4w\n"
            "  - Lite: capacity resizing in powers of two (Section 4.4)"
        ),
        "THP (coverage=1)",
    ),
    "RMM_PP_Lite": (
        "MixedTLBHierarchy",
        ["L1-mixed", "L1-range", "L2-mixed", "L2-range"] + MMU_STRUCTURES,
        [
            ("L1-mixed", "l1_page_tlbs"),
            ("L2-mixed", "l2_page_tlb"),
            ("L1-range", "l1_range_tlb"),
            ("L2-range", "l2_range_tlb"),
        ]
        + MMU_BINDINGS,
        PAPER_RMM_LITE,
        (
            "RMM_PP_Lite: pages 4KB+2MB+range\n"
            "  - L1-mixed 64e/4w (perfect predictor)\n"
            "  - L1-range 4e fully assoc\n"
            "  - L2-mixed 512e/4w\n"
            "  - L2-range 32e fully assoc\n"
            "  - Lite: absolute ε 0.1 MPKI\n"
            "  (combined TLB_PP + RMM_Lite (paper Section 6.1 future work))"
        ),
        "eager paging (thp pages)",
    ),
    "L0_Filter": (
        "L0FilterHierarchy",
        ["L0-filter", "L1-1GB", "L1-2MB", "L1-4KB", "L2-4KB"] + MMU_STRUCTURES,
        [
            ("L0-filter", "l1_page_tlbs"),
            ("L1-4KB", "l1_page_tlbs"),
            ("L1-2MB", "l1_page_tlbs"),
            ("L1-1GB", "l1_page_tlbs"),
            ("L2-4KB", "l2_page_tlb"),
        ]
        + MMU_BINDINGS,
        None,
        (
            "L0_Filter: pages 4KB+2MB\n"
            "  - L0-filter 8e fully assoc (all page sizes)\n"
            "  - L1-4KB 64e/4w\n"
            "  - L1-2MB 32e/4w\n"
            "  - L2-4KB 512e/4w\n"
            "  (TLB filtering baseline (Xue et al. / filtering line of work))"
        ),
        "THP (coverage=1)",
    ),
    "L0_Lite": (
        "L0FilterHierarchy",
        ["L0-filter", "L1-1GB", "L1-2MB", "L1-4KB", "L2-4KB"] + MMU_STRUCTURES,
        [
            ("L0-filter", "l1_page_tlbs"),
            ("L1-4KB", "l1_page_tlbs"),
            ("L1-2MB", "l1_page_tlbs"),
            ("L1-1GB", "l1_page_tlbs"),
            ("L2-4KB", "l2_page_tlb"),
        ]
        + MMU_BINDINGS,
        PAPER_TLB_LITE,
        (
            "L0_Lite: pages 4KB+2MB\n"
            "  - L0-filter 8e fully assoc (all page sizes)\n"
            "  - L1-4KB 64e/4w\n"
            "  - L1-2MB 32e/4w\n"
            "  - L2-4KB 512e/4w\n"
            "  - Lite: on the L1-page TLBs behind the filter\n"
            "  (TLB filtering baseline (Xue et al. / filtering line of work))"
        ),
        "THP (coverage=1)",
    ),
    "TLB_Pred": (
        "PredictedMixedHierarchy",
        ["L1-mixed", "L2-mixed"] + MMU_STRUCTURES,
        [
            ("L1-mixed", "l1_page_tlbs"),
            ("L2-mixed", "l2_page_tlb"),
        ]
        + MMU_BINDINGS,
        None,
        (
            "TLB_Pred: pages 4KB+2MB\n"
            "  - L1-mixed 64e/4w\n"
            "  - L2-mixed 512e/4w\n"
            "  - size predictor 512e direct-mapped\n"
            "  (realistic (fallible) page-size predictor)"
        ),
        "THP (coverage=1)",
    ),
    "Banked": (
        "TLBHierarchy",
        ["L1-1GB", "L1-2MB", "L1-4KB", "L2-4KB"] + MMU_STRUCTURES,
        [
            ("L1-4KB", "l1_page_tlbs"),
            ("L1-2MB", "l1_page_tlbs"),
            ("L1-1GB", "l1_page_tlbs"),
            ("L2-4KB", "l2_page_tlb"),
        ]
        + MMU_BINDINGS,
        None,
        (
            "Banked: pages 4KB+2MB\n"
            "  - L1-4KB 64e/4w in 4 banks (16e probed per access)\n"
            "  - L1-2MB 32e/4w\n"
            "  - L2-4KB 512e/4w\n"
            "  (banked-TLB baseline (Section 7 related work))"
        ),
        "THP (coverage=1)",
    ),
    "Semantic": (
        "TLBHierarchy",
        ["L1-1GB", "L1-2MB", "L1-4KB", "L2-4KB"] + MMU_STRUCTURES,
        [
            ("L1-4KB-stack", "l1_page_tlbs"),
            ("L1-4KB-globals", "l1_page_tlbs"),
            ("L1-4KB-heap", "l1_page_tlbs"),
            ("L1-2MB", "l1_page_tlbs"),
            ("L1-1GB", "l1_page_tlbs"),
            ("L2-4KB", "l2_page_tlb"),
        ]
        + MMU_BINDINGS,
        None,
        (
            "Semantic: pages 4KB+2MB\n"
            "  - L1-4KB partitioned: stack 16e + globals 16e + heap 32e (4-way each, one partition probed per access)\n"
            "  - L1-2MB 32e/4w\n"
            "  - L2-4KB 512e/4w\n"
            "  (semantic-region partitioning baseline (Section 7 related work))"
        ),
        "THP (coverage=1)",
    ),
}


# Each binding's Table 2 pricing at every power-of-two unit count (active
# ways, or active entries of a fully-associative structure) up to its
# capacity, as (units, read pJ, write pJ, leakage mW) rows.
_L1_4KB_ENERGY = (
    (1, 0.697, 0.945, 0.0636),
    (2, 1.881, 2.377, 0.1491),
    (4, 5.865, 6.858, 0.3632),
)
# Eight 4-way sets: the L1-2MB and the 32-entry heap partition.
_L1_2MB_ENERGY = (
    (1, 0.568, 0.764, 0.0295),
    (2, 1.536, 1.924, 0.0703),
    (4, 4.801, 5.562, 0.1715),
)
# Four 4-way sets: one L1-4KB bank and the 16-entry partitions.
_BANK_ENERGY = (
    (1, 0.4039170940385201, 0.4723040802926122, 0.025013246130399062),
    (2, 1.2588715711768566, 1.4720104407725287, 0.07795774162854804),
    (4, 3.9234725544102735, 4.587753585361578, 0.24296764394915796),
)
_L2_ENERGY = (
    (1, 0.8316210296859318, 1.2744041503444108, 0.1715437140091196),
    (2, 2.5918786001282843, 3.9718822964827973, 0.5346431432772667),
    (4, 8.078, 12.379, 1.6663),
)
_PDE_ENERGY = ((1, 1.824, 2.281, 0.1402), (2, 1.824, 2.281, 0.1402))
# Plain CAM: the L1-1GB TLB and the PDPTE / PML4 caches.
_FA_ENERGY = (
    (1, 0.2911656537560727, 0.09726040865424838, 0.01822093731750476),
    (2, 0.473, 0.158, 0.0296),
    (4, 0.766, 0.279, 0.05),
)
# Range-tagged CAM (double comparison).
_RANGE_ENERGY = (
    (1, 0.6843460297794448, 0.4441049539875466, 0.052860615257050145),
    (2, 1.1117234052504594, 0.7214506262201209, 0.08587232283080792),
    (4, 1.806, 1.172, 0.1395),
    (8, 2.9338556556387227, 1.9039196170590158, 0.2266184185833897),
    (16, 4.766062573711694, 3.092926542851664, 0.3681427071056375),
    (32, 3.306, 1.568, 0.2401),
)
# Masked CAM: the L1-FA and the L0 filter.
_MIXED_FA_ENERGY = (
    (1, 0.436748480634109, 0.14589061298137257, 0.02733140597625714),
    (2, 0.7095, 0.237, 0.0444),
    (4, 1.149, 0.41850000000000004, 0.07500000000000001),
    (8, 1.8665560068266291, 0.6798552557501691, 0.12183785945343534),
    (16, 3.0322291789561113, 1.1044281213169125, 0.19792618661593414),
    (32, 4.925870833816803, 1.794148776285755, 0.321532038760888),
    (64, 8.002100777817972, 2.9146032859154234, 0.5223303379776745),
)

#: binding name -> pricing rows, in every organization that has it.
BINDING_ENERGY = {
    "L1-4KB": _L1_4KB_ENERGY,
    "L1-mixed": _L1_4KB_ENERGY,
    "L1-2MB": _L1_2MB_ENERGY,
    "L1-4KB-heap": _L1_2MB_ENERGY,
    "L1-4KB-stack": _BANK_ENERGY,
    "L1-4KB-globals": _BANK_ENERGY,
    "L2-4KB": _L2_ENERGY,
    "L2-mixed": _L2_ENERGY,
    "MMU-cache-PDE": _PDE_ENERGY,
    "L1-1GB": _FA_ENERGY,
    "MMU-cache-PDPTE": _FA_ENERGY,
    "MMU-cache-PML4": _FA_ENERGY[:2],
    "L1-range": _RANGE_ENERGY[:3],
    "L2-range": _RANGE_ENERGY,
    "L1-FA": _MIXED_FA_ENERGY,
    "L0-filter": _MIXED_FA_ENERGY[:4],
}
#: Per-organization exceptions: the banked L1-4KB is charged one bank.
ENERGY_OVERRIDES = {"Banked": {"L1-4KB": _BANK_ENERGY}}


def binding_energy(org) -> dict:
    """Each binding's pricing rows, up to its structure's capacity."""
    structures = {}
    for structure in org.hierarchy.all_structures():
        structures[structure.name] = structure
        structures.update((p.name, p) for p in getattr(structure, "partitions", ()))
    rows = {}
    for binding in org.bindings:
        structure = structures[binding.name]
        capacity = getattr(structure, "ways", structure.entries)
        units, table = 1, []
        while units <= capacity:
            params = binding.params_for_ways(units)
            table.append((units, params.read_pj, params.write_pj, params.leakage_mw))
            units *= 2
        rows[binding.name] = tuple(table)
    return rows


def test_pinned_names_are_the_catalogue():
    assert tuple(PINNED) == EXTENDED_CONFIG_NAMES


@pytest.mark.parametrize("name", list(PINNED))
def test_catalogue_pin(name):
    hierarchy_type, structures, bindings, lite, summary, policy = PINNED[name]
    org = build_organization(name, make_process(paging_policy_for(name)))
    assert org.name == name
    assert type(org.hierarchy).__name__ == hierarchy_type
    assert sorted(s.name for s in org.hierarchy.all_structures()) == structures
    assert [(b.name, b.component) for b in org.bindings] == bindings
    assert (org.lite and org.lite.params) == lite
    assert org.summary.render() == summary
    assert paging_policy_for(name).describe() == policy
    overrides = ENERGY_OVERRIDES.get(name, {})
    assert binding_energy(org) == {
        b.name: overrides.get(b.name, BINDING_ENERGY[b.name]) for b in org.bindings
    }
