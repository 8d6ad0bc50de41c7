"""The spec-keyed result cache over the versioned snapshot sequence.

Entries are keyed on the frozen :class:`~repro.session.spec.QuerySpec` and
valid for exactly one snapshot version at a time.  On every published commit
the cache *advances*: entries provably untouched by the commit are carried to
the new version (they stay hits), everything else is invalidated.

Invalidation reads the one delta every commit carries,
:attr:`~repro.live.engine.CommitResult.touched` — each offer id an event
named, mapped to its committed version (``None`` once withdrawn).  The rule
is offer-exact: an entry is dropped if and only if

* it held a touched id (the offer changed or left), or
* a touched offer's committed version matches its spec (an offer entered).

No other offer changed, so the entry's selection is the same set of the same
offers, and a result is a deterministic function of its selection — carrying
the entry is sound.  An entry whose offers no event named therefore survives
arbitrarily many commits as a cache hit, which is what makes the concurrent
read path pay off.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any

from repro.obs import get_registry, get_tracer
from repro.obs.metrics import COUNT_BUCKETS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.live.engine import CommitResult
    from repro.readpath.snapshot import AggregateSnapshot
    from repro.session.spec import QuerySpec, ResultSet

_OBS = get_registry()
_TRACER = get_tracer()
_CACHE_HITS = _OBS.counter("repro.readpath.cache.hits", "result-cache hits")
_CACHE_MISSES = _OBS.counter("repro.readpath.cache.misses", "result-cache misses")
_CACHE_INVALIDATIONS = _OBS.counter(
    "repro.readpath.cache.invalidations", "entries dropped by commit invalidation"
)
_CACHE_ENTRIES = _OBS.gauge("repro.readpath.cache.entries", "live result-cache entries")
_CACHE_ADVANCE_SCANNED = _OBS.histogram(
    "repro.readpath.cache.advance.scanned", "entries examined per advance", COUNT_BUCKETS
)


class _CacheEntry:
    __slots__ = ("version", "result", "ids")

    def __init__(self, version: int, result: "ResultSet", ids: frozenset[int]) -> None:
        self.version = version
        self.result = result
        #: Ids the spec matched (pre-limit, passthroughs included) — the
        #: entry's read set, intersected with each commit's touched ids.
        self.ids = ids


class ResultCache:
    """LRU-bounded memo of ``ResultSet``s keyed on (spec, snapshot version).

    The plain integer counters are always maintained (they cost one add under
    a lock already being held) so hit ratios are measurable with
    observability disabled; the :mod:`repro.obs` instruments mirror them when
    the registry is enabled.
    """

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[QuerySpec, _CacheEntry]" = OrderedDict()
        #: The version the cache is coherent with; puts at any other version
        #: are dropped (they raced a publication and would poison advance()).
        self._version = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.carried = 0

    @property
    def version(self) -> int:
        return self._version

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # The read side
    # ------------------------------------------------------------------
    def get(self, spec: "QuerySpec", version: int) -> "ResultSet | None":
        with self._lock:
            entry = self._entries.get(spec)
            if entry is not None and entry.version == version:
                self._entries.move_to_end(spec)
                self.hits += 1
                _CACHE_HITS.inc()
                return entry.result
            self.misses += 1
        _CACHE_MISSES.inc()
        return None

    def put(
        self,
        spec: "QuerySpec",
        version: int,
        result: "ResultSet",
        ids: frozenset[int],
    ) -> None:
        with self._lock:
            if version != self._version:
                # The fill raced a commit: the result is for a superseded
                # version and must not be carried forward by advance().
                return
            self._entries[spec] = _CacheEntry(version, result, ids)
            self._entries.move_to_end(spec)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            _CACHE_ENTRIES.set(len(self._entries))

    # ------------------------------------------------------------------
    # The commit side
    # ------------------------------------------------------------------
    def rebase(self, version: int) -> None:
        """Drop everything and align with ``version`` (seed / restore)."""
        with self._lock:
            self._entries.clear()
            self._version = version
            _CACHE_ENTRIES.set(0)

    def advance(self, snapshot: "AggregateSnapshot", result: "CommitResult") -> None:
        """Move to ``snapshot.version``: carry untouched entries, drop the rest.

        ``result`` is the commit that produced ``snapshot``; its ``touched``
        map decides every entry with the offer-exact rule above.
        """
        with _TRACER.span("readpath.cache.advance"), self._lock:
            self._version = snapshot.version
            _CACHE_ADVANCE_SCANNED.observe(len(self._entries))
            if not self._entries:
                return
            touched = result.touched.keys()
            live = [offer for offer in result.touched.values() if offer is not None]
            grid = snapshot.grid
            survivors: "OrderedDict[QuerySpec, _CacheEntry]" = OrderedDict()
            dropped = 0
            for spec, entry in self._entries.items():
                if not touched.isdisjoint(entry.ids) or any(
                    spec.matches(offer, grid) for offer in live
                ):
                    dropped += 1
                    continue
                entry.version = snapshot.version
                # Re-stamp the carried result too: it is provably identical at
                # the new version, and readers' observed versions must never
                # go backwards (the monotonic-reads half of the checker).
                entry.result.version = snapshot.version
                survivors[spec] = entry
            self._entries = survivors
            self.invalidations += dropped
            self.carried += len(survivors)
            _CACHE_INVALIDATIONS.inc(dropped)
            _CACHE_ENTRIES.set(len(survivors))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Plain counters (always maintained, observability on or off)."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "version": self._version,
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "carried": self.carried,
                "hit_ratio": self.hits / total if total else 0.0,
            }
