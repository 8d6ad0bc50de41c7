"""The dependency-free metrics registry: counters, gauges, histograms.

Every instrument belongs to one :class:`MetricsRegistry` and is identified by
a dotted name (``repro.live.commit.seconds``).  Instruments are created on
demand and cached by name, so any module can say
``get_registry().counter("x")`` and always receive the same object — the hot
paths bind instruments once at import time and never pay the lookup again.

An instrument is one unlabeled series: the name is the whole identity.
Stage latencies are not declared here at all — each
:meth:`~repro.obs.trace.Tracer.span` owns its ``repro.<stage>.seconds``
histogram, so instrumented code never reads a clock of its own.

**Disabled is the default, and disabled is cheap.**  A registry starts with
``enabled = False``; every instrument mutator early-returns on that single
attribute check, and so does the span factory.  Enabling observability is a
runtime switch (:meth:`MetricsRegistry.enable`), not a rebuild — the
instrumented-vs-uninstrumented differential test in ``tests/test_obs.py``
proves the switch never changes engine outputs, and the benchmark trajectory
gate (``benchmarks/check_bench_trajectory.py``) bounds the enabled-mode
overhead on the commit path.

Histograms use **fixed bucket boundaries** (Prometheus ``le`` semantics: a
bucket counts observations ``<=`` its upper bound), so two processes with the
same boundaries can be aggregated by addition, and the text exporter
(:mod:`repro.obs.export`) emits them without re-binning.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterable, Sequence

from repro.errors import ObservabilityError

#: Default histogram boundaries for sub-second latencies, in seconds.  Spans
#: five decades (100 ns .. 10 s) with a 1-2.5-5 ladder — commit drains sit in
#: the middle, kernel calls near the bottom, restores near the top.
LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6,
    2.5e-6,
    5e-6,
    1e-5,
    2.5e-5,
    5e-5,
    1e-4,
    2.5e-4,
    5e-4,
    1e-3,
    2.5e-3,
    5e-3,
    1e-2,
    2.5e-2,
    5e-2,
    1e-1,
    2.5e-1,
    5e-1,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Default boundaries for event/row counts (batch sizes, rows scanned).
COUNT_BUCKETS: tuple[float, ...] = (
    1.0,
    2.0,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
    10000.0,
)


class Counter:
    """A monotonically increasing total (events applied, chunks skipped...)."""

    __slots__ = ("name", "help", "_registry", "_lock", "_value")

    kind = "counter"

    def __init__(self, name: str, help: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.help = help
        self._registry = registry
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (no-op while the registry is disabled)."""
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ObservabilityError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def snapshot(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "value": self._value,
        }


class Gauge:
    """A point-in-time level (queue depth, views, segment count).

    ``track`` is the hot-path setter (no-op while disabled); ``set`` always
    writes — read-side refreshes like :meth:`FlexSession.summary` use it so
    backlog figures stay truthful even with observability off.
    """

    __slots__ = ("name", "help", "_registry", "_value")

    kind = "gauge"

    def __init__(self, name: str, help: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.help = help
        self._registry = registry
        self._value = 0.0

    def track(self, value: float) -> None:
        """Hot-path set: one attribute check, then a plain store."""
        if not self._registry.enabled:
            return
        self._value = float(value)

    def set(self, value: float) -> None:
        """Unconditional set (read-side refresh paths)."""
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0

    def snapshot(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "value": self._value,
        }


class Histogram:
    """A distribution over fixed bucket boundaries (Prometheus ``le`` style).

    ``boundaries`` are the finite upper bounds, strictly increasing; an
    implicit ``+Inf`` bucket catches the overflow.  ``observe`` is a bisect
    plus three adds, under one lock — cheap enough for per-commit (not
    per-event) call sites.  ``min``/``max``/``sum``/``count`` ride along so
    the ``flexviz stats`` table can print exact means and true extremes next
    to the bucketed p95 estimate.
    """

    __slots__ = (
        "name",
        "help",
        "boundaries",
        "_registry",
        "_lock",
        "_bucket_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        registry: "MetricsRegistry",
        boundaries: Sequence[float] = LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ObservabilityError(f"histogram {name} needs at least one boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                f"histogram {name} boundaries must be strictly increasing"
            )
        self.name = name
        self.help = help
        self.boundaries = bounds
        self._registry = registry
        self._lock = threading.Lock()
        # One slot per finite boundary plus the +Inf overflow slot.
        self._bucket_counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation (no-op while the registry is disabled)."""
        if not self._registry.enabled:
            return
        value = float(value)
        index = bisect_left(self.boundaries, value)
        with self._lock:
            self._bucket_counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def bucket_counts(self) -> list[int]:
        """Per-bucket (non-cumulative) counts; the last entry is ``+Inf``."""
        return list(self._bucket_counts)

    def cumulative_counts(self) -> list[int]:
        """Cumulative counts per boundary (Prometheus ``le`` semantics)."""
        total = 0
        cumulative = []
        for count in self._bucket_counts:
            total += count
            cumulative.append(total)
        return cumulative

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the buckets (linear within a bucket).

        Exact at the recorded extremes: quantiles that land in the first or
        the overflow bucket are clamped to the true ``min``/``max``.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError("quantile must be within [0, 1]")
        if not self._count:
            return 0.0
        rank = q * self._count
        total = 0
        for index, count in enumerate(self._bucket_counts):
            previous = total
            total += count
            if total >= rank and count:
                lower = self.boundaries[index - 1] if index > 0 else self._min
                upper = (
                    self.boundaries[index]
                    if index < len(self.boundaries)
                    else self._max
                )
                lower = max(lower, self._min)
                upper = min(upper, self._max)
                if upper <= lower:
                    return upper
                fraction = (rank - previous) / count
                return lower + (upper - lower) * fraction
        return self._max

    def reset(self) -> None:
        with self._lock:
            self._bucket_counts = [0] * (len(self.boundaries) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = float("inf")
            self._max = float("-inf")

    def snapshot(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "boundaries": list(self.boundaries),
            "bucket_counts": self.bucket_counts(),
            "count": self._count,
            "sum": self._sum,
            "min": self._min if self._count else 0.0,
            "max": self._max if self._count else 0.0,
        }


Instrument = Counter | Gauge | Histogram


class MetricsRegistry:
    """Creates, caches and snapshots instruments; owns the enabled switch.

    Instruments are singletons per (registry, name): asking twice returns the
    same object, asking with a different kind (or different histogram
    boundaries) raises — silent redefinition would split a series in two.
    """

    def __init__(self, enabled: bool = False) -> None:
        #: THE fast-path switch — instrument mutators and instrumented code
        #: check this one attribute and go around the whole layer when False.
        self.enabled = enabled
        self._lock = threading.Lock()
        self._instruments: dict[str, Instrument] = {}

    # ------------------------------------------------------------------
    # The switch
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------------
    # Instrument factories (idempotent by name)
    # ------------------------------------------------------------------
    def _get(self, name: str, kind: type, factory) -> Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ObservabilityError(
                        f"metric {name!r} is a {existing.kind}, not a {kind.kind}"
                    )
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, lambda: Counter(name, help, self))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name, help, self))

    def histogram(
        self,
        name: str,
        help: str = "",
        boundaries: Sequence[float] = LATENCY_BUCKETS,
    ) -> Histogram:
        instrument = self._get(
            name, Histogram, lambda: Histogram(name, help, self, boundaries)
        )
        if tuple(float(b) for b in boundaries) != instrument.boundaries:
            raise ObservabilityError(
                f"histogram {name!r} already exists with different boundaries"
            )
        return instrument

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, name: str) -> Instrument | None:
        """The instrument registered under ``name`` (``None`` when absent)."""
        return self._instruments.get(name)

    def instruments(self) -> list[Instrument]:
        """Every registered instrument, sorted by name."""
        with self._lock:
            return [self._instruments[name] for name in sorted(self._instruments)]

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Every instrument's state as plain data, keyed by name."""
        return {
            instrument.name: instrument.snapshot() for instrument in self.instruments()
        }

    def reset(self, names: Iterable[str] | None = None) -> None:
        """Zero the named instruments (all of them by default).

        Instruments stay registered — the module-level bindings the hot paths
        hold keep pointing at live objects.
        """
        targets = (
            self.instruments()
            if names is None
            else [i for n in names if (i := self._instruments.get(n)) is not None]
        )
        for instrument in targets:
            instrument.reset()
