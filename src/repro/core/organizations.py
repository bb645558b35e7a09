"""The organization catalogue: every named configuration as one table row.

The paper evaluates six configurations (Section 5, Fig. 9); the
catalogue lists them first, then the Section 4.4, 6.1 and 7 extensions.

==========  =====================================  ==========================
Name        TLB organization                       OS paging policy
==========  =====================================  ==========================
4KB         L1-4KB ∥ (L1-2MB, L1-1GB: off), L2     demand 4 KB paging
THP         + L1-2MB enabled                       transparent huge pages
TLB_Lite    THP + Lite on the L1-page TLBs         transparent huge pages
RMM         THP + 32-entry L2-range TLB            eager paging (THP layout)
TLB_PP      single mixed L1/L2, perfect predictor  transparent huge pages
RMM_Lite    L1-4KB (Lite) ∥ 4-entry L1-range,      eager paging (4 KB layout)
            L2-4KB ∥ L2-range
==========  =====================================  ==========================

A row (:class:`OrganizationSpec`) records what distinguishes its
configuration: paging policy, hierarchy shape, L1-4KB variant, which
huge-page L1 slots, range levels and L0 filter exist, the Lite base
parameters and the summary text.  :func:`build_organization` interprets a
row against a populated :class:`repro.mem.Process`, and one binding pass
maps every structure's per-way access histogram onto Table 2 parameters.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import partial

from ..energy.cacti import (
    MMU_CACHE_PDE,
    fully_assoc_params,
    mixed_fa_tlb_params,
    page_tlb_params,
)
from ..energy.model import EnergyBinding
from ..errors import ConfigurationError, UnknownConfigError
from ..mem.paging import DemandPaging, EagerPaging, PagingPolicy, TransparentHugePaging
from ..mem.process import Process
from ..mmu.translation import PageSize
from ..mmu.walker import PageWalker
from ..tlb.banked import BankedSetAssociativeTLB
from ..tlb.fully_assoc import FullyAssociativeTLB
from ..tlb.semantic import CLASS_NAMES, SemanticPartitionedTLB, classify_by_vma
from ..tlb.set_assoc import SetAssociativeTLB
from .hierarchy import (
    BaseHierarchy,
    FullyAssociativeL1Hierarchy,
    L0FilterHierarchy,
    L1Slot,
    MixedTLBHierarchy,
    PredictedMixedHierarchy,
    TLBHierarchy,
)
from .lite import LiteController
from .params import (
    RMM_LITE_PARAMS,
    TLB_LITE_PARAMS,
    ConfigurationSummary,
    HierarchyParams,
    LiteParams,
)


@dataclass(frozen=True, slots=True)
class OrganizationSpec:
    """One catalogue row.

    ``lines`` are the summary's structure lines and ``lite_text`` its Lite
    line, as ``str.format`` templates: ``lines`` over the geometry fields
    of :func:`_summary_fields`, ``lite_text`` over the Lite parameters.
    """

    #: ``"demand"``, ``"thp"``, ``"eager-thp"`` or ``"eager-4kb"``.
    policy: str
    #: ``"paged"`` (one L1 per page size), ``"mixed"`` (one L1/L2 for
    #: 4 KB and 2 MB behind a page-size predictor) or ``"fa"`` (one
    #: fully-associative L1 for every page size).
    shape: str
    page_sizes: tuple[str, ...]
    lines: tuple[str, ...]
    #: Paged shape: the L1-2MB and L1-1GB slots exist.
    huge_l1: bool = True
    #: Paged shape: split the L1-4KB into this many banks (0: unbanked).
    banks: int = 0
    #: Paged shape: split the L1-4KB into stack/globals/heap partitions
    #: of these sizes (empty: unpartitioned).
    partitions: tuple[int, ...] = ()
    #: Range-TLB levels: ``()``, ``(2,)`` or ``(1, 2)``.
    range_levels: tuple[int, ...] = ()
    #: Paged shape: entries of an L0 filter probed before the L1s (0: none).
    l0_entries: int = 0
    #: Fa shape: entries of the fully-associative L1.
    fa_entries: int = 0
    #: Mixed shape: entries of a realistic size predictor (0: perfect).
    predictor_entries: int = 0
    #: Lite base parameters (None: no Lite controller).
    lite: LiteParams | None = None
    lite_text: str = ""
    notes: str = ""


_L1_4KB = "L1-4KB {l1_4kb}"
_L1_2MB = "L1-2MB {l1_2mb}"
_L2_4KB = "L2-4KB {l2_page}"
_L1_MIXED = "L1-mixed {l1_4kb}"
_L2_MIXED = "L2-mixed {l2_page}"
_L1_RANGE = "L1-range {l1_range}e fully assoc"
_L2_RANGE = "L2-range {l2_range}e fully assoc"
_THP_LINES = (_L1_4KB, _L1_2MB, _L2_4KB)
_L0_LINES = ("L0-filter {l0_entries}e fully assoc (all page sizes)", *_THP_LINES)
_L0_NOTES = "TLB filtering baseline (Xue et al. / filtering line of work)"
_ABSOLUTE_EPSILON = "absolute ε {epsilon_absolute} MPKI"

#: Every named configuration, in canonical figure/table order.
CATALOGUE: dict[str, OrganizationSpec] = {
    # Baseline: 4 KB pages only; huge-page L1 TLBs never enable.
    "4KB": OrganizationSpec(
        "demand", "paged", ("4KB",), (_L1_4KB, _L2_4KB),
        notes="huge-page L1 TLBs statically disabled",
    ),
    # Transparent huge pages: the state of the practice (Section 5).
    "THP": OrganizationSpec("thp", "paged", ("4KB", "2MB"), _THP_LINES),
    # THP + Lite on every L1-page TLB, the 1 GB one included (Section 4.2.2).
    "TLB_Lite": OrganizationSpec(
        "thp", "paged", ("4KB", "2MB"), _THP_LINES, lite=TLB_LITE_PARAMS,
        lite_text="interval {interval_instructions} instr, ε {threshold_mode}",
    ),
    # THP + a 32-entry fully-associative L2-range TLB.
    "RMM": OrganizationSpec(
        "eager-thp", "paged", ("4KB", "2MB", "range"),
        (*_THP_LINES, _L2_RANGE), range_levels=(2,), notes="perfect eager paging",
    ),
    # Mixed-size L1/L2 with a free perfect predictor; the L1 keeps the
    # L1-4KB geometry and energy, so TLB_Pred's true cost is under-reported.
    "TLB_PP": OrganizationSpec(
        "thp", "mixed", ("4KB", "2MB"), (_L1_MIXED, _L2_MIXED),
        notes="perfect, zero-energy page-size predictor",
    ),
    # 4 KB pages + ranges at both levels; the L1-range TLB replaces the
    # huge-page L1 TLBs (Section 4.3); Lite on the L1-4KB.
    "RMM_Lite": OrganizationSpec(
        "eager-4kb", "paged", ("4KB", "range"),
        (_L1_4KB, _L1_RANGE, _L2_4KB, _L2_RANGE),
        huge_l1=False, range_levels=(1, 2),
        lite=RMM_LITE_PARAMS, lite_text=_ABSOLUTE_EPSILON,
        notes="perfect eager paging; L1 huge-page TLBs replaced by L1-range",
    ),
    # Section 4.4: one SPARC/AMD-style masked-CAM L1 for all page sizes,
    # Lite resizing its capacity in powers of two.
    "FA_Lite": OrganizationSpec(
        "thp", "fa", ("4KB", "2MB"),
        ("L1-FA {fa_entries}e fully assoc (all page sizes)", _L2_4KB),
        fa_entries=64, lite=TLB_LITE_PARAMS,
        lite_text="capacity resizing in powers of two (Section 4.4)",
    ),
    # Section 6.1's "orthogonal, combined" design: TLB_PP for pages, the
    # L1-range TLB for ranges, Lite disabling ways opportunistically.
    "RMM_PP_Lite": OrganizationSpec(
        "eager-thp", "mixed", ("4KB", "2MB", "range"),
        (_L1_MIXED + " (perfect predictor)", _L1_RANGE, _L2_MIXED, _L2_RANGE),
        range_levels=(1, 2), lite=RMM_LITE_PARAMS, lite_text=_ABSOLUTE_EPSILON,
        notes="combined TLB_PP + RMM_Lite (paper Section 6.1 future work)",
    ),
    # Section 7 related work: a tiny mixed-size L0 TLB filters the L1
    # probes; only L0 misses pay the parallel L1 probe energy.
    "L0_Filter": OrganizationSpec(
        "thp", "paged", ("4KB", "2MB"), _L0_LINES, l0_entries=8, notes=_L0_NOTES
    ),
    # The filter with Lite resizing the L1-page TLBs behind it.
    "L0_Lite": OrganizationSpec(
        "thp", "paged", ("4KB", "2MB"), _L0_LINES, l0_entries=8,
        lite=TLB_LITE_PARAMS, lite_text="on the L1-page TLBs behind the filter",
        notes=_L0_NOTES,
    ),
    # TLB_PP with a realistic direct-mapped last-size predictor:
    # mispredictions cost a second L1 probe and a retry (Section 6.1 caveat).
    "TLB_Pred": OrganizationSpec(
        "thp", "mixed", ("4KB", "2MB"),
        (_L1_MIXED, _L2_MIXED, "size predictor {predictor_entries}e direct-mapped"),
        predictor_entries=512, notes="realistic (fallible) page-size predictor",
    ),
    # Section 7 banked baseline: each lookup probes (and pays for) one bank.
    "Banked": OrganizationSpec(
        "thp", "paged", ("4KB", "2MB"),
        (
            "L1-4KB {l1_4kb} in {banks} banks ({bank_entries}e probed per access)",
            _L1_2MB,
            _L2_4KB,
        ),
        banks=4, notes="banked-TLB baseline (Section 7 related work)",
    ),
    # Section 7 semantic baseline (Lee/Ballapuram): each access probes
    # only the partition of its region; the class needs no prediction.
    "Semantic": OrganizationSpec(
        "thp", "paged", ("4KB", "2MB"),
        (
            "L1-4KB partitioned: {partitions} "
            "({l1_ways}-way each, one partition probed per access)",
            _L1_2MB,
            _L2_4KB,
        ),
        partitions=(16, 16, 32),
        notes="semantic-region partitioning baseline (Section 7 related work)",
    ),
}

#: Every configuration, in canonical order.
EXTENDED_CONFIG_NAMES = tuple(CATALOGUE)

#: The paper's six evaluated configurations (the catalogue lists them first).
CONFIG_NAMES = EXTENDED_CONFIG_NAMES[:6]


@dataclass(slots=True)
class Organization:
    """A fully wired configuration ready to simulate."""

    name: str
    hierarchy: BaseHierarchy
    bindings: list[EnergyBinding]
    lite: LiteController | None
    summary: ConfigurationSummary


def _spec(config_name: str) -> OrganizationSpec:
    spec = CATALOGUE.get(config_name)
    if spec is None:
        raise UnknownConfigError(config_name, EXTENDED_CONFIG_NAMES)
    return spec


def paging_policy_for(config_name: str, thp_coverage: float = 1.0) -> PagingPolicy:
    """The OS allocation policy a configuration assumes (Section 5)."""
    policy = _spec(config_name).policy
    if policy == "demand":
        return DemandPaging()
    if policy == "thp":
        return TransparentHugePaging(coverage=thp_coverage)
    return EagerPaging(page_layout=policy.removeprefix("eager-"))


def scaled_lite_interval(trace_accesses: int) -> int:
    """Lite interval matched to a scaled-down trace of ``trace_accesses``.

    The paper pairs a 1 M-instruction interval with 50 G simulated
    instructions (50 000 intervals).  At bench-scale traces we keep
    ~150 intervals: enough decisions per phase for Lite to adapt,
    while keeping each interval long enough that the fixed cost of a
    reconfiguration (refilling invalidated ways) stays small relative
    to the interval, as it is at the paper's scale.
    """
    approx_instructions = trace_accesses * 3
    return max(10_000, approx_instructions // 150)


def lite_defaults(config_name: str, trace_accesses: int) -> LiteParams | None:
    """The row's Lite parameters with the interval scaled to the run.

    ``None`` for configurations without a Lite controller.
    """
    base = _spec(config_name).lite
    if base is None:
        return None
    return replace(base, interval_instructions=scaled_lite_interval(trace_accesses))


# ----------------------------------------------------------------------
# Interpreting a row
# ----------------------------------------------------------------------
def build_organization(
    config_name: str,
    process: Process,
    params: HierarchyParams | None = None,
    lite_params: LiteParams | None = None,
    record_history: bool = False,
) -> Organization:
    """Build any named configuration against a populated process.

    ``lite_params`` overrides the row's paper-scale Lite parameters; rows
    without Lite ignore it.
    """
    spec = _spec(config_name)
    params = params or HierarchyParams()
    walker = PageWalker(process.page_table)
    # Table 2 pricing of each fully-associative structure, by name, chosen
    # where the structure is created (the class itself carries no kind).
    tables = {}
    range_tlbs = {}
    if spec.range_levels:
        if len(process.range_table) == 0:
            raise ConfigurationError(
                f"{config_name} needs an eager-paged process (empty range table)"
            )
        entries = {1: params.l1_range_entries, 2: params.l2_range_entries}
        range_tlbs = {
            f"l{level}_range": _fully_assoc(
                f"L{level}-range", entries[level], _RANGE_TLB_PARAMS, tables
            )
            for level in spec.range_levels
        }
    ranges = dict(range_tlbs, range_table=process.range_table) if range_tlbs else {}

    front = []
    if spec.shape == "fa":
        l1 = [_fully_assoc("L1-FA", spec.fa_entries, mixed_fa_tlb_params, tables)]
        l2 = _page_tlb("L2-4KB", params.l2_page)
        hierarchy = FullyAssociativeL1Hierarchy(l1[0], l2, walker)
    elif spec.shape == "mixed":
        l1 = [_page_tlb("L1-mixed", params.l1_4kb)]
        l2 = _page_tlb("L2-mixed", params.l2_page)
        args = (l1[0], l2, walker, _huge_chunks(config_name, process))
        if spec.predictor_entries:
            hierarchy = PredictedMixedHierarchy(
                *args, predictor_entries=spec.predictor_entries, **ranges
            )
        else:
            hierarchy = MixedTLBHierarchy(*args, **ranges)
    else:
        slots = _paged_l1_slots(spec, params, process, tables)
        l1 = [slot.tlb for slot in slots]
        l2 = _page_tlb("L2-4KB", params.l2_page)
        if spec.l0_entries:
            front = [_fully_assoc("L0-filter", spec.l0_entries, mixed_fa_tlb_params, tables)]
            hierarchy = L0FilterHierarchy(slots, l2, walker, l0=front[0], **ranges)
        else:
            hierarchy = TLBHierarchy(slots, l2, walker, **ranges)

    components = [(tlb, "l1_page_tlbs") for tlb in front + l1]
    components.append((l2, "l2_page_tlb"))
    components.extend((tlb, f"{key}_tlb") for key, tlb in range_tlbs.items())
    bindings = [
        binding
        for tlb, component in components
        for binding in _bind(tlb, component, tables.get(tlb.name))
    ]
    mmu_cache = walker.mmu_cache
    bindings += [
        EnergyBinding(mmu_cache.pde.name, "mmu_cache", mmu_cache.pde.stats,
                      lambda _units: MMU_CACHE_PDE),
        *_bind(mmu_cache.pdpte, "mmu_cache", fully_assoc_params),
        *_bind(mmu_cache.pml4, "mmu_cache", fully_assoc_params),
    ]

    lite = None
    if spec.lite is not None:
        lite = LiteController(l1, lite_params or spec.lite, record_history=record_history)
    summary = ConfigurationSummary(
        config_name,
        spec.page_sizes,
        tuple(line.format(**_summary_fields(spec, params)) for line in spec.lines),
        lite=None if lite is None else spec.lite_text.format(**asdict(lite.params)),
        notes=spec.notes,
    )
    return Organization(config_name, hierarchy, bindings, lite, summary)


def _page_tlb(name: str, geometry) -> SetAssociativeTLB:
    return SetAssociativeTLB(name, geometry.entries, geometry.ways)


#: Table 2 prices a range TLB as a fully-associative TLB with twice the
#: tag bits (its hit is a double comparison).
_RANGE_TLB_PARAMS = partial(fully_assoc_params, range_tags=True)


def _fully_assoc(name: str, entries: int, params_for, tables: dict) -> FullyAssociativeTLB:
    """A fully-associative structure, recording its Table 2 pricing in ``tables``."""
    tables[name] = params_for
    return FullyAssociativeTLB(name, entries)


def _paged_l1_slots(
    spec: OrganizationSpec, params: HierarchyParams, process: Process, tables: dict
) -> list[L1Slot]:
    """The Figure 1 L1s: the row's L1-4KB variant, then L1-2MB and L1-1GB."""
    geometry = params.l1_4kb
    if spec.banks:
        l1_4kb = BankedSetAssociativeTLB(
            "L1-4KB", geometry.entries, geometry.ways, spec.banks
        )
    elif spec.partitions:
        partitions = [
            SetAssociativeTLB(f"L1-4KB-{name}", entries, geometry.ways)
            for name, entries in zip(CLASS_NAMES, spec.partitions)
        ]
        l1_4kb = SemanticPartitionedTLB(
            "L1-4KB", partitions, classify_by_vma(process.address_space)
        )
    else:
        l1_4kb = _page_tlb("L1-4KB", geometry)
    slots = [L1Slot(l1_4kb, PageSize.SIZE_4KB)]
    if spec.huge_l1:
        slots.append(L1Slot(_page_tlb("L1-2MB", params.l1_2mb), PageSize.SIZE_2MB))
        l1_1gb = _fully_assoc("L1-1GB", params.l1_1gb_entries, fully_assoc_params, tables)
        slots.append(L1Slot(l1_1gb, PageSize.SIZE_1GB))
    return slots


def _huge_chunks(config_name: str, process: Process) -> frozenset[int]:
    """The 2 MB chunks a mixed hierarchy's size predictor sees as huge."""
    chunks = set()
    for translation in process.page_table.iter_translations():
        if translation.page_size is PageSize.SIZE_1GB:
            raise ConfigurationError(f"{config_name} models 4KB and 2MB pages only")
        if translation.page_size is PageSize.SIZE_2MB:
            chunks.add(translation.vpn >> 9)
    return frozenset(chunks)


def _bind(structure, component: str, params_for=None) -> list[EnergyBinding]:
    """Energy bindings of one structure (a partitioned TLB binds each part).

    ``params_for`` is the pricing a fully-associative structure was
    created with; it scales by active entries.  Set-associative TLBs keep
    their set count as Lite disables ways (Table 2); a banked TLB is
    charged one bank's read.
    """
    if params_for is not None:
        return [EnergyBinding(structure.name, component, structure.stats, params_for)]
    if isinstance(structure, SemanticPartitionedTLB):
        return [
            binding
            for partition in structure.partitions
            for binding in _bind(partition, component)
        ]
    if isinstance(structure, BankedSetAssociativeTLB):
        params_for = partial(_way_params, structure.bank_entries // structure.ways)
    else:
        params_for = partial(_way_params, structure.num_sets)
    return [EnergyBinding(structure.name, component, structure.stats, params_for)]


def _way_params(sets: int, ways: int):
    """Table 2 energy of a set-associative TLB with ``ways`` ways enabled."""
    return page_tlb_params(sets * ways, ways)


def _summary_fields(spec: OrganizationSpec, params: HierarchyParams) -> dict:
    """The geometry a row's summary ``lines`` may name."""
    l1, l1_2mb, l2 = params.l1_4kb, params.l1_2mb, params.l2_page
    return {
        "l1_4kb": f"{l1.entries}e/{l1.ways}w",
        "l1_2mb": f"{l1_2mb.entries}e/{l1_2mb.ways}w",
        "l2_page": f"{l2.entries}e/{l2.ways}w",
        "l1_ways": l1.ways,
        "l1_range": params.l1_range_entries,
        "l2_range": params.l2_range_entries,
        "l0_entries": spec.l0_entries,
        "fa_entries": spec.fa_entries,
        "predictor_entries": spec.predictor_entries,
        "banks": spec.banks,
        "bank_entries": l1.entries // max(spec.banks, 1),
        "partitions": " + ".join(
            f"{name} {entries}e" for name, entries in zip(CLASS_NAMES, spec.partitions)
        ),
    }
