"""Differential fuzzing: generative cases through a pluggable oracle stack.

PR 8 proved the reference and fast drain engines equivalent on 13
hand-picked configurations and two trace regimes.  The space the paper's
TLB_Lite/RMM_Lite claims actually live in — arbitrary hierarchy
geometries, Lite intervals and thresholds, page-size mixes, adversarial
OS-event schedules, checkpoint boundaries — is combinatorially larger
than any hand-written test matrix.  This module earns trust at that
scale the way mature simulators do: a **seeded generative fuzzer** whose
every case is a pure-JSON description (so any failure is a self-contained
reproducer), run through an **oracle stack**:

``engines``
    Reference-vs-fast digest equality: both engines must produce
    byte-identical ``SimulationResult``s *and* identical per-component
    sha256 state digests at every recorded interval boundary
    (:func:`repro.resilience.bisect.first_divergence` localizes splits).
``resume``
    Kill-and-resume round-trip identity: the run is killed after K
    boundaries with a snapshot on disk, rebuilt from scratch, resumed,
    and its stitched digest trail plus final result must match the
    uninterrupted run's exactly.
``auditor``
    :class:`repro.resilience.auditor.InvariantAuditor` rides along on the
    reference run, checking the accounting/energy/Lite/LRU identities at
    every timeline boundary and once more on the finished result.
``observability``
    Telemetry inertness: the case re-runs with a live
    :class:`repro.observability.Observability` hub attached to the
    simulator and the checkpointer (engine and a mid-run
    Prometheus-export toggle drawn from the case's own seed), and its
    digest trail plus final result must match the bare reference run's
    exactly — the fuzzed generalization of the hand-written inertness
    matrix in ``tests/test_observability.py``.
``taxonomy``
    No non-taxonomy exception may escape: anything that is not a
    :class:`repro.errors.ReproError` is a bug by definition.

Failures are bucketed by a **stable fingerprint** (oracle + failure kind
+ exception type + diverging components) and handed to the
delta-debugging minimizer (:mod:`repro.resilience.minimize`), which
shrinks the trace and the configuration while the same oracle keeps
failing.  Minimized reproducers land in a versioned ``corpus/``
directory that ``python -m repro fuzz replay`` re-runs deterministically
— the regression corpus that keeps every future fast-path or
organization PR honest.

Randomness discipline: every random draw comes from :func:`rng_stream`,
a seeded named-stream helper (recognized by reprolint's RL001), so a
fuzz campaign is exactly reproducible from ``(seed, case index)`` alone.
"""

from __future__ import annotations

import hashlib
import time
import zlib
from dataclasses import dataclass, fields, replace
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

from ..core.organizations import (
    EXTENDED_CONFIG_NAMES,
    build_organization,
    lite_defaults,
    paging_policy_for,
)
from ..core.params import (
    HierarchyParams,
    LiteParams,
    SetAssocParams,
    SimulationParams,
)
from ..core.simulator import Simulator
from ..core.stats import SimulationResult
from ..errors import ConfigurationError, FuzzError, InvariantViolation, ReproError
from ..ioutils import atomic_write_json
from ..mem.physical import PhysicalMemory
from ..observability import Observability
from ..workloads.base import VMASpec, Workload
from ..workloads.patterns import (
    Mixture,
    Phased,
    SequentialScan,
    ShuffledScan,
    StridedSet,
    UniformRandom,
    Zipf,
)
from .auditor import InvariantAuditor
from .checkpoint import (
    AbortSimulation,
    DigestTrail,
    SimulationCheckpointer,
    first_divergence,
    resume_from_snapshot,
)
from .faults import TRACE_FAULTS, adversarial_events, dataclass_from_json

#: Bump when the JSON layout of a fuzz case changes incompatibly.
FUZZ_CASE_VERSION = 1

#: Bump when the reproducer envelope layout changes incompatibly.
CORPUS_VERSION = 1

#: Oracle stack, in evaluation order.  ``taxonomy`` has no run of its
#: own: every oracle's runs are wrapped, and any non-taxonomy exception
#: escaping one of them is attributed to it.
ORACLE_NAMES = ("engines", "resume", "auditor", "observability", "taxonomy")


# ----------------------------------------------------------------------
# Seeded RNG streams (the RL001-blessed idiom for fuzz code)
# ----------------------------------------------------------------------
def rng_stream(seed: int, *path) -> np.random.Generator:
    """Independent, deterministic RNG stream named by ``(seed, *path)``.

    Seed material is the root seed followed by a crc32 of each path
    element, so streams for different purposes (``("case", 7)`` vs
    ``("trace", 7)``) never collide and never share state.  reprolint's
    RL001 recognizes this helper as a seeded RNG constructor: calling it
    with no arguments, or with wall-clock-derived seed material, is a
    determinism finding.
    """
    material = [int(seed)] + [zlib.crc32(str(part).encode()) for part in path]
    return np.random.default_rng(material)


# ----------------------------------------------------------------------
# Pattern specs: JSON-describable trace generators
# ----------------------------------------------------------------------
def build_pattern(spec: dict, regions: dict):
    """Instantiate a :mod:`repro.workloads.patterns` tree from a spec."""
    kind = spec.get("kind")
    if kind == "sequential":
        return SequentialScan(
            regions[spec["region"]],
            stride_pages=spec["stride_pages"],
            burst=spec["burst"],
        )
    if kind == "shuffled":
        return ShuffledScan(regions[spec["region"]], burst=spec["burst"])
    if kind == "uniform":
        return UniformRandom(regions[spec["region"]], burst=spec["burst"])
    if kind == "zipf":
        return Zipf(regions[spec["region"]], alpha=spec["alpha"], burst=spec["burst"])
    if kind == "strided":
        return StridedSet(
            regions[spec["region"]],
            num_pages=spec["num_pages"],
            stride_pages=spec["stride_pages"],
            burst=spec["burst"],
        )
    if kind == "mixture":
        return Mixture(
            [(build_pattern(sub, regions), weight) for sub, weight in spec["components"]]
        )
    if kind == "phased":
        return Phased(
            [(build_pattern(sub, regions), frac) for sub, frac in spec["phases"]]
        )
    raise ConfigurationError(f"unknown pattern kind {kind!r} in fuzz case")


# ----------------------------------------------------------------------
# The case: one pure-JSON simulation scenario
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzCase:
    """One generated scenario, fully described by JSON-serializable data.

    ``trace`` is either ``{"kind": "generated", "accesses": N, "seed": S,
    "faults": [[name, kwargs], ...]}`` (rebuilt through the workload's
    pattern plus :data:`repro.resilience.faults.TRACE_FAULTS`
    perturbations) or ``{"kind": "literal", "vpns": [...]}`` (what the
    minimizer produces).  Everything else maps one-to-one onto the
    canonical pipeline's knobs.
    """

    seed: int
    config: str
    thp_coverage: float
    physical_mb: int
    hierarchy: dict
    lite: dict | None
    sim: dict
    workload: dict
    trace: dict
    events: dict | None
    on_fault: str
    resume_frac: float
    digest_every: int
    oracles: tuple[str, ...]

    # -- JSON round trip ------------------------------------------------
    def to_json(self) -> dict:
        payload = {
            "case_version": FUZZ_CASE_VERSION,
            "seed": self.seed,
            "config": self.config,
            "thp_coverage": self.thp_coverage,
            "physical_mb": self.physical_mb,
            "hierarchy": dict(self.hierarchy),
            "lite": dict(self.lite) if self.lite is not None else None,
            "sim": dict(self.sim),
            "workload": dict(self.workload),
            "trace": dict(self.trace),
            "events": dict(self.events) if self.events is not None else None,
            "on_fault": self.on_fault,
            "resume_frac": self.resume_frac,
            "digest_every": self.digest_every,
            "oracles": list(self.oracles),
        }
        return payload

    @classmethod
    def from_json(cls, data: dict) -> "FuzzCase":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"fuzz case: expected an object, got {type(data).__name__}"
            )
        version = data.get("case_version")
        if version != FUZZ_CASE_VERSION:
            raise ConfigurationError(
                f"fuzz case version {version!r} unsupported "
                f"(this build reads version {FUZZ_CASE_VERSION})"
            )
        body = {key: value for key, value in data.items() if key != "case_version"}
        expected = {field.name for field in fields(cls)}
        unknown = sorted(set(body) - expected)
        missing = sorted(expected - set(body))
        if unknown or missing:
            raise ConfigurationError(
                "fuzz case does not match this build's schema"
                + (f"; unknown keys: {', '.join(unknown)}" if unknown else "")
                + (f"; missing keys: {', '.join(missing)}" if missing else "")
            )
        body["oracles"] = tuple(body["oracles"])
        for oracle in body["oracles"]:
            if oracle not in ORACLE_NAMES:
                raise ConfigurationError(
                    f"fuzz case names unknown oracle {oracle!r} "
                    f"(known: {', '.join(ORACLE_NAMES)})"
                )
        return cls(**body)

    # -- parameter builders ---------------------------------------------
    def hierarchy_params(self) -> HierarchyParams:
        h = self.hierarchy
        return HierarchyParams(
            l1_4kb=SetAssocParams(*h["l1_4kb"]),
            l1_2mb=SetAssocParams(*h["l1_2mb"]),
            l1_1gb_entries=h["l1_1gb_entries"],
            l2_page=SetAssocParams(*h["l2_page"]),
            l1_range_entries=h["l1_range_entries"],
            l2_range_entries=h["l2_range_entries"],
        )

    def lite_params(self) -> LiteParams | None:
        if self.lite is None:
            return None
        return dataclass_from_json(LiteParams, self.lite, "fuzz case lite params")

    def sim_params(self) -> SimulationParams:
        return dataclass_from_json(
            SimulationParams, self.sim, "fuzz case sim params"
        )

    # -- pipeline builders ----------------------------------------------
    def build_workload(self) -> Workload:
        specs = [
            VMASpec(name, mb, thp_eligible)
            for name, mb, thp_eligible in self.workload["regions"]
        ]
        pattern_spec = self.workload["pattern"]
        return Workload(
            f"fuzz-{self.seed}",
            "FUZZ",
            specs,
            lambda regions: build_pattern(pattern_spec, regions),
            instructions_per_access=self.workload["instructions_per_access"],
        )

    def build_trace(self, workload: Workload) -> np.ndarray:
        spec = self.trace
        if spec["kind"] == "literal":
            return np.asarray(spec["vpns"], dtype=np.int64)
        if spec["kind"] != "generated":
            raise ConfigurationError(
                f"unknown trace kind {spec.get('kind')!r} in fuzz case"
            )
        vpns = workload.trace(spec["accesses"], seed=spec["seed"])
        for name, kwargs in spec["faults"]:
            try:
                inject = TRACE_FAULTS[name]
            except KeyError:
                raise ConfigurationError(
                    f"unknown trace fault {name!r} in fuzz case "
                    f"(known: {', '.join(sorted(TRACE_FAULTS))})"
                ) from None
            vpns = inject(vpns, **kwargs)
        return vpns

    def build_events(self, process, num_accesses: int):
        if self.events is None:
            return None
        e = self.events
        return adversarial_events(
            process,
            num_accesses,
            shootdowns=e["shootdowns"],
            demotion_storms=e["demotion_storms"],
            demotion_fraction=e["demotion_fraction"],
            seed=e["seed"],
        )

    def trace_entries(self) -> int:
        """Number of accesses this case drives (literal length or spec)."""
        if self.trace["kind"] == "literal":
            return len(self.trace["vpns"])
        return self.trace["accesses"]

    def with_literal_trace(self, vpns) -> "FuzzCase":
        """Copy of this case with the trace pinned to explicit entries."""
        return replace(
            self, trace={"kind": "literal", "vpns": [int(v) for v in vpns]}
        )


# ----------------------------------------------------------------------
# Building and running one case
# ----------------------------------------------------------------------
@dataclass(slots=True)
class BuiltCase:
    """A case instantiated into live pipeline objects, ready to run."""

    case: FuzzCase
    workload: Workload
    process: object
    organization: object
    trace: np.ndarray
    simulator: Simulator
    events: list | None

    def run(self, checkpoint_hook=None, resume_state=None) -> SimulationResult:
        return self.simulator.run(
            self.trace,
            events=self.events,
            checkpoint_hook=checkpoint_hook,
            resume_state=resume_state,
        )


def build_case(
    case: FuzzCase,
    engine: str = "reference",
    auditor: InvariantAuditor | None = None,
    observability: Observability | None = None,
) -> BuiltCase:
    """Instantiate the canonical pipeline for one fuzz case."""
    workload = case.build_workload()
    policy = paging_policy_for(case.config, case.thp_coverage)
    process = workload.build_process(
        policy, physical=PhysicalMemory(case.physical_mb << 20, seed=case.seed)
    )
    organization = build_organization(
        case.config,
        process,
        params=case.hierarchy_params(),
        lite_params=case.lite_params(),
    )
    trace = case.build_trace(workload)
    simulator = Simulator(
        organization,
        workload_name=workload.name,
        instructions_per_access=workload.instructions_per_access,
        sim_params=case.sim_params(),
        on_fault=case.on_fault,
        auditor=auditor,
        engine=engine,
        observability=observability,
    )
    events = case.build_events(process, len(trace))
    return BuiltCase(case, workload, process, organization, trace, simulator, events)


# ----------------------------------------------------------------------
# Failures, fingerprints, outcomes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzFailure:
    """One oracle's verdict on one case.

    ``kind`` distinguishes failure shapes within an oracle:
    ``divergence`` (digest trails split), ``result-mismatch`` (identical
    trails, different final results), ``boundary-mismatch`` (the two
    runs disagree about the boundary schedule itself), ``invariant``
    (an auditor identity broke), ``structured-error`` (a taxonomy error
    escaped a run that should have completed), and ``escape`` (a
    non-taxonomy exception — the hard taxonomy-oracle failure).
    """

    oracle: str
    kind: str
    detail: str
    components: tuple[str, ...] = ()
    exception_type: str | None = None

    @property
    def fingerprint(self) -> str:
        """Stable bucket key: oracle + kind + exception type + components."""
        material = "|".join(
            [self.oracle, self.kind, self.exception_type or "-",
             ",".join(self.components)]
        )
        return hashlib.sha256(material.encode()).hexdigest()[:16]

    def to_json(self) -> dict:
        return {
            "oracle": self.oracle,
            "kind": self.kind,
            "detail": self.detail,
            "components": list(self.components),
            "exception_type": self.exception_type,
            "fingerprint": self.fingerprint,
        }

    def same_bucket_shape(self, other: "FuzzFailure") -> bool:
        """Loose match the minimizer preserves while shrinking."""
        return (self.oracle, self.kind) == (other.oracle, other.kind)


@dataclass(slots=True)
class CaseOutcome:
    """What running the oracle stack over one case produced."""

    failure: FuzzFailure | None
    boundaries: int = 0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failure is None


def _classify_exception(oracle: str, exc: BaseException) -> FuzzFailure:
    """Map an escaped exception onto the oracle stack's failure shapes."""
    if isinstance(exc, InvariantViolation):
        return FuzzFailure(
            "auditor", "invariant", str(exc), exception_type=type(exc).__name__
        )
    if isinstance(exc, ReproError):
        return FuzzFailure(
            oracle, "structured-error", str(exc), exception_type=type(exc).__name__
        )
    return FuzzFailure(
        "taxonomy",
        "escape",
        f"{type(exc).__name__}: {exc}",
        exception_type=type(exc).__name__,
    )


def _result_mismatch_fields(a: SimulationResult, b: SimulationResult) -> tuple[str, ...]:
    return tuple(
        field.name
        for field in fields(SimulationResult)
        if getattr(a, field.name) != getattr(b, field.name)
    )


def _compare_runs(
    oracle: str,
    trail_a: DigestTrail,
    trail_b: DigestTrail,
    result_a: SimulationResult,
    result_b: SimulationResult,
) -> FuzzFailure | None:
    """Digest-trail plus final-result equality, localized on mismatch."""
    if trail_a.boundaries != trail_b.boundaries:
        return FuzzFailure(
            oracle,
            "boundary-mismatch",
            f"{len(trail_a.boundaries)} vs {len(trail_b.boundaries)} digested "
            "boundaries (the runs disagree about the boundary schedule)",
        )
    divergence = first_divergence(trail_a, trail_b)
    if divergence is not None:
        return FuzzFailure(
            oracle,
            "divergence",
            f"first divergence at boundary {divergence.boundary}: "
            + ", ".join(divergence.components),
            components=divergence.components,
        )
    if result_a != result_b:
        mismatched = _result_mismatch_fields(result_a, result_b)
        return FuzzFailure(
            oracle,
            "result-mismatch",
            "identical digest trails but different results; fields: "
            + ", ".join(mismatched),
            components=mismatched,
        )
    return None


def run_case(case: FuzzCase) -> CaseOutcome:
    """Run one case through its oracle stack; first failure wins.

    One plain reference run supplies the golden digest trail the
    ``engines`` and ``resume`` oracles compare against.  The ``auditor``
    oracle gets a run of its own: ``audit_hierarchy`` forces a
    ``sync_stats`` at every timeline boundary, which flushes pending
    counters into stats — state-*representation* churn that is
    digest-visible even though it is semantically idempotent, so an
    audited run can never serve as a digest baseline.  Riding separately
    also lets the oracle check the repo's standing guarantee that
    enabling the auditor changes no result.  The ``observability``
    oracle likewise gets a run of its own — a live hub attached to
    simulator and checkpointer, with the engine and a mid-run
    Prometheus-export toggle coined from ``rng_stream(case.seed,
    "observability")`` — whose trail and result must match the bare
    reference run's.  A full stack costs roughly five simulations plus
    one killed prefix.
    """
    started = time.perf_counter()
    want = set(case.oracles)

    def outcome(failure: FuzzFailure | None, boundaries: int = 0) -> CaseOutcome:
        return CaseOutcome(failure, boundaries, time.perf_counter() - started)

    try:
        reference = build_case(case, engine="reference")
        ref_checkpointer = SimulationCheckpointer(
            reference.simulator, reference.process, digest_every=case.digest_every
        )
        ref_result = reference.run(checkpoint_hook=ref_checkpointer)
    except Exception as exc:  # noqa: BLE001 — the stack classifies everything
        return outcome(_classify_exception("taxonomy", exc))
    boundaries = ref_checkpointer.boundaries_seen

    if "auditor" in want:
        try:
            audited = build_case(case, engine="reference", auditor=InvariantAuditor())
            audited_result = audited.run()
        except Exception as exc:  # noqa: BLE001 — the stack classifies everything
            return outcome(_classify_exception("auditor", exc), boundaries)
        if audited_result != ref_result:
            mismatched = _result_mismatch_fields(ref_result, audited_result)
            return outcome(
                FuzzFailure(
                    "auditor",
                    "result-mismatch",
                    "enabling the auditor changed the result; fields: "
                    + ", ".join(mismatched),
                    components=mismatched,
                ),
                boundaries,
            )

    if "engines" in want:
        try:
            fast = build_case(case, engine="fast")
            fast_checkpointer = SimulationCheckpointer(
                fast.simulator, fast.process, digest_every=case.digest_every
            )
            fast_result = fast.run(checkpoint_hook=fast_checkpointer)
        except Exception as exc:  # noqa: BLE001 — the stack classifies everything
            return outcome(_classify_exception("engines", exc), boundaries)
        failure = _compare_runs(
            "engines",
            ref_checkpointer.trail,
            fast_checkpointer.trail,
            ref_result,
            fast_result,
        )
        if failure is not None:
            return outcome(failure, boundaries)

    if "resume" in want and boundaries >= 2:
        abort_after = max(1, min(boundaries - 1, round(case.resume_frac * boundaries)))
        with TemporaryDirectory(prefix="repro-fuzz-") as tmp:
            snapshot_path = Path(tmp) / "case.ckpt"
            try:
                first = build_case(case, engine="reference")
                first_checkpointer = SimulationCheckpointer(
                    first.simulator,
                    first.process,
                    path=snapshot_path,
                    checkpoint_every=1,
                    digest_every=case.digest_every,
                    abort_after=abort_after,
                )
                aborted = False
                try:
                    first.run(checkpoint_hook=first_checkpointer)
                except AbortSimulation:
                    aborted = True
                if not aborted:
                    return outcome(
                        FuzzFailure(
                            "resume",
                            "boundary-mismatch",
                            f"killed run finished in "
                            f"{first_checkpointer.boundaries_seen} boundaries, "
                            f"before the abort point ({abort_after}) the "
                            f"uninterrupted run's {boundaries} boundaries imply",
                        ),
                        boundaries,
                    )
                resumed = build_case(case, engine="reference")
                loop_state = resume_from_snapshot(resumed, snapshot_path)
                resumed_checkpointer = SimulationCheckpointer(
                    resumed.simulator, resumed.process, digest_every=case.digest_every
                )
                resumed_result = resumed.run(
                    checkpoint_hook=resumed_checkpointer, resume_state=loop_state
                )
            except Exception as exc:  # noqa: BLE001 — the stack classifies everything
                return outcome(_classify_exception("resume", exc), boundaries)
            stitched = DigestTrail()
            resume_boundary = loop_state["boundary"]
            for rec_boundary, digest_map in zip(
                first_checkpointer.trail.boundaries, first_checkpointer.trail.digests
            ):
                if rec_boundary <= resume_boundary:
                    stitched.record(rec_boundary, digest_map)
            for rec_boundary, digest_map in zip(
                resumed_checkpointer.trail.boundaries,
                resumed_checkpointer.trail.digests,
            ):
                stitched.record(rec_boundary, digest_map)
            failure = _compare_runs(
                "resume", ref_checkpointer.trail, stitched, ref_result, resumed_result
            )
            if failure is not None:
                return outcome(failure, boundaries)

    if "observability" in want:
        # Telemetry must be inert under *either* engine, and exporting
        # metrics mid-run must not perturb the simulation — coin both
        # from the case's own seed so replays are deterministic.
        obs_rng = rng_stream(case.seed, "observability")
        obs_engine = "fast" if obs_rng.random() < 0.5 else "reference"
        export_per_boundary = bool(obs_rng.random() < 0.5)
        try:
            hub = Observability()
            observed = build_case(case, engine=obs_engine, observability=hub)
            obs_checkpointer = SimulationCheckpointer(
                observed.simulator,
                observed.process,
                digest_every=case.digest_every,
                observability=hub,
            )
            hook = obs_checkpointer
            if export_per_boundary:

                def hook(state):
                    obs_checkpointer(state)
                    hub.render_prometheus()

            obs_result = observed.run(checkpoint_hook=hook)
        except Exception as exc:  # noqa: BLE001 — the stack classifies everything
            return outcome(_classify_exception("observability", exc), boundaries)
        failure = _compare_runs(
            "observability",
            ref_checkpointer.trail,
            obs_checkpointer.trail,
            ref_result,
            obs_result,
        )
        if failure is not None:
            return outcome(failure, boundaries)

    return outcome(None, boundaries)


# ----------------------------------------------------------------------
# Case generation
# ----------------------------------------------------------------------
_REGION_SIZES_MB = (0.5, 1.0, 2.0, 4.0, 6.0)
_TRACE_ACCESSES = (400, 800, 1600, 3200)
_BURSTS = (1, 2, 4, 8)


def _choice(rng: np.random.Generator, options):
    return options[int(rng.integers(len(options)))]


def _sample_leaf_pattern(rng: np.random.Generator, regions: list[str], pages: dict) -> dict:
    region = _choice(rng, regions)
    kind = _choice(rng, ("sequential", "shuffled", "uniform", "zipf", "strided"))
    burst = int(_choice(rng, _BURSTS))
    if kind == "sequential":
        return {
            "kind": kind,
            "region": region,
            "stride_pages": int(_choice(rng, (1, 1, 3, 7))),
            "burst": burst,
        }
    if kind == "shuffled":
        return {"kind": kind, "region": region, "burst": burst}
    if kind == "uniform":
        return {"kind": kind, "region": region, "burst": burst}
    if kind == "zipf":
        return {
            "kind": kind,
            "region": region,
            "alpha": float(_choice(rng, (0.5, 0.8, 1.1))),
            "burst": burst,
        }
    # strided: keep the span inside the region.
    region_pages = pages[region]
    stride = int(_choice(rng, (2, 5, 9, 17)))
    num_pages = max(1, min(64, (region_pages - 1) // stride + 1))
    return {
        "kind": "strided",
        "region": region,
        "num_pages": int(num_pages),
        "stride_pages": stride,
        "burst": burst,
    }


def _sample_pattern(rng: np.random.Generator, regions: list[str], pages: dict) -> dict:
    shape = rng.random()
    if shape < 0.25:
        return {
            "kind": "mixture",
            "components": [
                [_sample_leaf_pattern(rng, regions, pages), float(_choice(rng, (1.0, 2.0)))]
                for _ in range(2)
            ],
        }
    if shape < 0.45:
        return {
            "kind": "phased",
            "phases": [
                [_sample_leaf_pattern(rng, regions, pages), float(_choice(rng, (1.0, 2.0)))]
                for _ in range(int(_choice(rng, (2, 3))))
            ],
        }
    return _sample_leaf_pattern(rng, regions, pages)


def _sample_workload(rng: np.random.Generator) -> dict:
    num_regions = int(_choice(rng, (1, 2, 2, 3)))
    regions = []
    pages = {}
    for index in range(num_regions):
        name = f"r{index}"
        mb = float(_choice(rng, _REGION_SIZES_MB))
        thp_eligible = bool(rng.random() < 0.85)
        regions.append([name, mb, thp_eligible])
        pages[name] = max(1, round(mb * 256))
    return {
        "regions": regions,
        "pattern": _sample_pattern(rng, [r[0] for r in regions], pages),
        "instructions_per_access": float(_choice(rng, (1.0, 2.0, 3.0, 4.5))),
    }


def _sample_hierarchy(rng: np.random.Generator) -> dict:
    l1_ways = int(_choice(rng, (2, 4, 8)))
    l1_sets = int(_choice(rng, (8, 16, 32, 64)))
    l1_2mb_ways = int(_choice(rng, (2, 4)))
    l1_2mb_sets = int(_choice(rng, (4, 8, 16)))
    l2_ways = int(_choice(rng, (4, 8)))
    l2_sets = int(_choice(rng, (32, 64, 128)))
    return {
        "l1_4kb": [l1_sets * l1_ways, l1_ways],
        "l1_2mb": [l1_2mb_sets * l1_2mb_ways, l1_2mb_ways],
        "l1_1gb_entries": int(_choice(rng, (2, 4, 8))),
        "l2_page": [l2_sets * l2_ways, l2_ways],
        "l1_range_entries": int(_choice(rng, (2, 4, 8, 16))),
        "l2_range_entries": int(_choice(rng, (8, 16, 32, 64))),
    }


def _sample_lite(rng: np.random.Generator, config: str, accesses: int, ipa: float) -> dict | None:
    base = lite_defaults(config, accesses)
    if base is None:
        return None
    intervals = int(_choice(rng, (4, 8, 12, 20)))
    interval_instructions = max(30, round(accesses * ipa / intervals))
    threshold_mode = _choice(rng, (base.threshold_mode, "relative", "absolute"))
    return {
        "interval_instructions": interval_instructions,
        "threshold_mode": threshold_mode,
        "epsilon_relative": float(_choice(rng, (0.05, 0.125, 0.25))),
        "epsilon_absolute": float(_choice(rng, (0.05, 0.1, 0.5))),
        "reactivate_probability": float(_choice(rng, (0.0, 1 / 8, 1 / 64, 1 / 128, 1.0))),
        "min_ways": int(_choice(rng, (1, 1, 2))),
        "seed": int(rng.integers(1 << 16)),
    }


def _sample_trace(rng: np.random.Generator, accesses: int) -> tuple[dict, str]:
    faults = []
    on_fault = "raise"
    if rng.random() < 0.25:
        on_fault = "record"
        name = _choice(rng, sorted(TRACE_FAULTS))
        seed = int(rng.integers(1 << 16))
        kwargs = {
            "out_of_range": {"fraction": 0.01, "seed": seed},
            "negative": {"fraction": 0.01, "seed": seed},
            "truncate": {"keep_fraction": 0.5, "seed": seed},
            "duplicate_burst": {"bursts": 2, "burst_length": 64, "seed": seed},
        }[name]
        faults.append([name, kwargs])
    spec = {
        "kind": "generated",
        "accesses": accesses,
        "seed": int(rng.integers(1 << 16)),
        "faults": faults,
    }
    return spec, on_fault


def generate_case(seed: int, index: int) -> FuzzCase:
    """Deterministically sample case ``index`` of campaign ``seed``."""
    rng = rng_stream(seed, "case", index)
    # The observability oracle toggles on a stream of its own so that
    # adding it left every pre-existing ``case`` draw — and hence the
    # committed corpus — byte-stable.
    oracle_rng = rng_stream(seed, "case-oracles", index)
    oracles = (
        ORACLE_NAMES
        if oracle_rng.random() < 0.5
        else tuple(name for name in ORACLE_NAMES if name != "observability")
    )
    config = _choice(rng, EXTENDED_CONFIG_NAMES)
    workload = _sample_workload(rng)
    accesses = int(_choice(rng, _TRACE_ACCESSES))
    trace, on_fault = _sample_trace(rng, accesses)
    events = None
    if rng.random() < 0.4:
        events = {
            "shootdowns": int(_choice(rng, (1, 2, 3))),
            "demotion_storms": int(_choice(rng, (0, 1, 2))),
            "demotion_fraction": float(_choice(rng, (0.25, 0.5, 1.0))),
            "seed": int(rng.integers(1 << 16)),
        }
    return FuzzCase(
        seed=int(rng.integers(1 << 31)),
        config=config,
        thp_coverage=float(_choice(rng, (0.0, 0.25, 0.5, 0.9, 1.0))),
        physical_mb=1024,
        hierarchy=_sample_hierarchy(rng),
        lite=_sample_lite(
            rng, config, accesses, workload["instructions_per_access"]
        ),
        sim={
            "fast_forward_fraction": float(_choice(rng, (0.0, 0.1, 0.25))),
            "timeline_windows": int(_choice(rng, (3, 5, 8, 12))),
            "walk_l1_hit_ratio": 1.0,
        },
        workload=workload,
        trace=trace,
        events=events,
        on_fault=on_fault,
        resume_frac=float(_choice(rng, (0.2, 0.4, 0.6, 0.8))),
        digest_every=int(_choice(rng, (1, 2, 3))),
        oracles=oracles,
    )


# ----------------------------------------------------------------------
# Reproducers and the corpus
# ----------------------------------------------------------------------
def write_reproducer(
    path, case: FuzzCase, failure: FuzzFailure, found: dict | None = None
) -> Path:
    """Atomically write a self-contained reproducer envelope."""
    envelope = {
        "corpus_version": CORPUS_VERSION,
        "fingerprint": failure.fingerprint,
        "failure": failure.to_json(),
        "case": case.to_json(),
        "found": dict(found or {}),
    }
    return atomic_write_json(path, envelope, indent=2)


def load_reproducer(path) -> tuple[FuzzCase, dict]:
    """Read a reproducer; returns ``(case, envelope)``.

    Rejects envelopes from other corpus versions, and envelopes whose
    key set does not match this build's schema, with
    :class:`repro.errors.ConfigurationError` — corpus files written by a
    newer build must fail loudly, never half-load.
    """
    import json

    path = Path(path)
    try:
        envelope = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ConfigurationError(f"no reproducer at {path}") from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"unreadable reproducer {path}: {exc}") from exc
    if not isinstance(envelope, dict):
        raise ConfigurationError(f"{path} is not a reproducer envelope")
    version = envelope.get("corpus_version")
    if version != CORPUS_VERSION:
        raise ConfigurationError(
            f"{path}: corpus version {version!r} unsupported "
            f"(this build reads version {CORPUS_VERSION})"
        )
    expected = {"corpus_version", "fingerprint", "failure", "case", "found"}
    unknown = sorted(set(envelope) - expected)
    missing = sorted(expected - set(envelope))
    if unknown or missing:
        raise ConfigurationError(
            f"{path} does not match this build's reproducer schema"
            + (f"; unknown keys: {', '.join(unknown)}" if unknown else "")
            + (f"; missing keys: {', '.join(missing)}" if missing else "")
        )
    return FuzzCase.from_json(envelope["case"]), envelope


def corpus_paths(corpus_dir) -> list[Path]:
    """Reproducer files in a corpus directory, deterministically ordered."""
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        return []
    return sorted(p for p in corpus_dir.glob("*.json"))


@dataclass(slots=True)
class ReplayedCase:
    """Outcome of re-running one corpus reproducer."""

    path: Path
    fingerprint: str  # the stored bucket fingerprint
    outcome: CaseOutcome

    @property
    def status(self) -> str:
        if self.outcome.ok:
            return "pass"
        if self.outcome.failure.fingerprint == self.fingerprint:
            return "fail"
        return "fail-other"


def replay_corpus(paths) -> list[ReplayedCase]:
    """Deterministically re-run reproducers; a clean corpus is all-pass."""
    replayed = []
    for path in paths:
        case, envelope = load_reproducer(path)
        replayed.append(
            ReplayedCase(Path(path), envelope["fingerprint"], run_case(case))
        )
    return replayed


# ----------------------------------------------------------------------
# The campaign driver
# ----------------------------------------------------------------------
@dataclass(slots=True)
class FuzzReport:
    """Summary of one ``fuzz run`` campaign."""

    seed: int
    cases_run: int = 0
    cases_requested: int = 0
    failures: list[dict] = None  # type: ignore[assignment]
    new_reproducers: list[Path] = None  # type: ignore[assignment]
    seconds: float = 0.0
    budget_exhausted: bool = False

    def __post_init__(self) -> None:
        if self.failures is None:
            self.failures = []
        if self.new_reproducers is None:
            self.new_reproducers = []

    @property
    def ok(self) -> bool:
        return not self.failures


def run_fuzz(
    seed: int = 0,
    cases: int = 100,
    max_seconds: float | None = None,
    corpus_dir=None,
    minimize: bool = True,
    minimize_evaluations: int = 160,
    log=None,
) -> FuzzReport:
    """Generate-and-check ``cases`` scenarios; minimize and bucket failures.

    ``corpus_dir`` (when given) receives one minimized reproducer per new
    bucket fingerprint; fingerprints that already have a file are not
    rewritten, so an existing corpus is append-only.  ``max_seconds``
    time-boxes the campaign (the CI mode): generation stops once the
    budget is spent, and the report says so.
    """
    from .minimize import minimize_case

    report = FuzzReport(seed=seed, cases_requested=cases)
    started = time.perf_counter()
    existing = {path.stem for path in corpus_paths(corpus_dir)} if corpus_dir else set()
    for index in range(cases):
        if max_seconds is not None and time.perf_counter() - started >= max_seconds:
            report.budget_exhausted = True
            break
        case = generate_case(seed, index)
        outcome = run_case(case)
        report.cases_run += 1
        if outcome.ok:
            continue
        failure = outcome.failure
        entry = {
            "index": index,
            "config": case.config,
            "failure": failure,
            "case": case,
            "minimized": None,
        }
        if log is not None:
            log(
                f"case {index} ({case.config}): {failure.oracle}/{failure.kind} "
                f"[{failure.fingerprint}]"
            )
        if minimize:
            result = minimize_case(
                case, failure, max_evaluations=minimize_evaluations
            )
            entry["case"] = result.case
            entry["failure"] = result.failure
            entry["minimized"] = {
                "evaluations": result.evaluations,
                "original_entries": result.original_entries,
                "entries": result.entries,
            }
            failure = result.failure
            case = result.case
        if corpus_dir is not None and failure.fingerprint not in existing:
            path = Path(corpus_dir) / f"{failure.fingerprint}.json"
            write_reproducer(
                path,
                case,
                failure,
                found={
                    "campaign_seed": seed,
                    "case_index": index,
                    "minimized": entry["minimized"],
                },
            )
            existing.add(failure.fingerprint)
            report.new_reproducers.append(path)
        report.failures.append(entry)
    report.seconds = time.perf_counter() - started
    return report


def minimize_reproducer(path, out_path=None, max_evaluations: int = 160) -> Path:
    """Re-minimize an existing reproducer file in place (or to ``out_path``)."""
    from .minimize import minimize_case

    case, envelope = load_reproducer(path)
    outcome = run_case(case)
    if outcome.ok:
        raise FuzzError(
            f"{path}: the case no longer fails on this build; "
            "nothing to minimize (delete it if the bug is fixed "
            "and it is not wanted as a regression guard)"
        )
    result = minimize_case(case, outcome.failure, max_evaluations=max_evaluations)
    destination = Path(out_path) if out_path is not None else Path(path)
    return write_reproducer(
        destination,
        result.case,
        result.failure,
        found={
            **envelope.get("found", {}),
            "reminimized": {
                "evaluations": result.evaluations,
                "original_entries": result.original_entries,
                "entries": result.entries,
            },
        },
    )
