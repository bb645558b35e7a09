"""Fully-associative, true-LRU lookup structure over page intervals.

One class models every fully-associative structure of the paper.  An
entry covers the half-open page interval ``[lo, hi)`` and a probe of key
``k`` hits the first entry, in recency order, with ``lo <= k < hi``:

* **keyed** (``span=1``): the L1-1GB TLB (4 entries in Sandy Bridge) and
  the PDPTE / PML4E paging-structure caches, keyed by a page number at
  their own granularity;
* **translation** (``span=int(page_size)``): the SPARC/AMD-style mixed
  page-size L1 (Section 4.4) and the Section 7 L0 filter, whose entries
  carry a page-size mask so one CAM search matches 4 KB and huge-page
  entries alike;
* **range** (``span=num_pages``): the RMM L1- and L2-range TLBs, whose
  hit is the double comparison ``base <= vpn < limit`` (Section 4.3).

The energy table differs per kind (Table 2 prices the range TLB's double
comparison at twice the tag bits); the organization builder picks it
where it creates each structure, so the class itself carries no kind.

Lite can also resize fully-associative structures: "although there is no
notion of ways in a fully associative TLB, Lite clusters the distance of
TLB hits from the LRU position as if there were ways, and reduces the TLB
size in powers-of-two" (Section 4.4).  ``set_active_entries`` implements
that capacity reduction, and ``hit_rank_counters`` provides the same
Figure 6 grouping as the set-associative TLB (index ``rank.bit_length()``).

Statistics follow the same sync discipline as
:class:`repro.tlb.set_assoc.SetAssociativeTLB`: plain pending integers,
flushed into per-configuration histograms by :meth:`sync_stats`.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..stateful import decode_entry, encode_entry, require
from .base import TranslationStructure


class FullyAssociativeTLB(TranslationStructure):
    """A fully-associative cache of ``[lo, hi, value]`` interval entries.

    Maintains a single recency list (MRU first).  Resident intervals are
    pairwise disjoint: a fill first drops every entry it overlaps, since
    overlapping entries would make hits ambiguous (the OS never maps one
    page twice, so a stale overlap means the mapping changed).
    """

    __slots__ = (
        "entries",
        "active_entries",
        "_stack",
        "hit_rank_counters",
        "_pending_hits",
        "_pending_misses",
        "_pending_fills",
    )

    def __init__(self, name: str, entries: int) -> None:
        super().__init__(name)
        if entries < 1:
            raise ConfigurationError("entries must be >= 1")
        self.entries = entries
        self.active_entries = entries
        self._stack: list[list] = []  # [lo, hi, value] entries, MRU first
        self.hit_rank_counters: list[int] | None = None
        self._pending_hits = 0
        self._pending_misses = 0
        self._pending_fills = 0

    def lookup(self, key: int):
        """Probe the structure; return the value or ``None`` on a miss."""
        stack = self._stack
        for rank, entry in enumerate(stack):
            if entry[0] <= key < entry[1]:
                self._pending_hits += 1
                counters = self.hit_rank_counters
                if counters is not None:
                    counters[rank.bit_length()] += 1
                if rank:
                    stack.pop(rank)
                    stack.insert(0, entry)
                return entry[2]
        self._pending_misses += 1
        return None

    def peek(self, key: int):
        """Check containment without touching LRU state or statistics."""
        for entry in self._stack:
            if entry[0] <= key < entry[1]:
                return entry[2]
        return None

    def fill(self, key: int, value, span: int = 1) -> None:
        """Insert ``[key, key + span)`` at MRU, evicting the LRU if full.

        Every entry overlapping the new interval is dropped first.
        """
        self._pending_fills += 1
        self.invalidate(key, span)
        stack = self._stack
        stack.insert(0, [key, key + span, value])
        if len(stack) > self.active_entries:
            stack.pop()

    def invalidate(self, key: int, span: int = 1) -> int:
        """Drop every entry overlapping ``[key, key + span)``; returns the count.

        With the default span this is a shootdown of the entry covering
        ``key``.  Fills run per miss, not per access, and the filter
        keeps the stack's identity (the fast engine holds it).
        """
        stack = self._stack
        before = len(stack)
        limit = key + span
        stack[:] = [  # reprolint: disable=RL008
            entry for entry in stack if not (entry[0] < limit and key < entry[1])
        ]
        return before - len(stack)

    def flush(self) -> None:
        """Invalidate all entries."""
        self._stack.clear()

    def sync_stats(self) -> None:
        """Flush pending access counts into the per-configuration stats."""
        pending_lookups = self._pending_hits + self._pending_misses
        if pending_lookups:
            self.stats.hits += self._pending_hits
            self.stats.misses += self._pending_misses
            self.stats.lookups_by_ways[self.active_entries] += pending_lookups
            self._pending_hits = 0
            self._pending_misses = 0
        if self._pending_fills:
            self.stats.fills_by_ways[self.active_entries] += self._pending_fills
            self._pending_fills = 0

    @property
    def interval_misses(self) -> int:
        """Misses since the last :meth:`sync_stats`."""
        return self._pending_misses

    def set_active_entries(self, entries: int) -> None:
        """Resize the structure in the Lite fashion (Section 4.4).

        Shrinking drops the least-recently-used entries; growing raises
        the capacity with the new slots starting invalid.
        """
        if entries < 1 or entries > self.entries:
            raise ConfigurationError(
                f"active entries {entries} outside [1, {self.entries}]"
            )
        self.sync_stats()
        if entries < self.active_entries:
            del self._stack[entries:]
        self.active_entries = entries

    def occupancy(self) -> int:
        """Number of valid entries currently held."""
        return len(self._stack)

    def intervals(self) -> list[tuple[int, int]]:
        """Resident ``(lo, hi)`` intervals in recency order (MRU first)."""
        return [(entry[0], entry[1]) for entry in self._stack]

    def resident(self) -> list:
        """Resident values in recency order (MRU first)."""
        return [entry[2] for entry in self._stack]

    def state_dict(self) -> dict:
        """Pure-JSON mutable state: recency stack, pending counts, stats."""
        return {
            "entries": self.entries,
            "active_entries": self.active_entries,
            "stack": [
                [entry[0], entry[1], encode_entry(entry[2])] for entry in self._stack
            ],
            "pending": [self._pending_hits, self._pending_misses, self._pending_fills],
            "stats": self.stats.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot onto a canonically constructed structure."""
        require(
            state["entries"] == self.entries,
            f"{self.name}: snapshot capacity {state['entries']} does not "
            f"match {self.entries}",
        )
        self.active_entries = state["active_entries"]
        self._stack[:] = [[lo, hi, decode_entry(value)] for lo, hi, value in state["stack"]]
        self._pending_hits, self._pending_misses, self._pending_fills = state["pending"]
        self.stats.load_state_dict(state["stats"])
