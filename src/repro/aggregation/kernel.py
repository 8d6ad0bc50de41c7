"""The profile-summation kernel behind :func:`~repro.aggregation.aggregate.aggregate_group`.

Summing the per-slot energy bounds of a flex-offer group is the hottest loop
of the whole system — the batch pipeline runs it for every group, and the
live engines run it for every re-aggregated chunk of every commit.  This
module provides two interchangeable implementations:

* :func:`profile_bounds_scalar` — the pure-Python reference (the seed code of
  ``aggregate_group``, unchanged), always available;
* :func:`profile_bounds_numpy` — a vectorized path that expands every
  offer's profile once into cached index/weight arrays and folds the whole
  group through :func:`numpy.bincount`, whose C accumulation loop releases
  the GIL, so other threads (the async commit worker's producer, concurrent
  readers) keep running while a commit folds its chunks.

**Bit-identity is part of the contract.**  ``bincount`` adds its weights in
input order, and the weights are concatenated offer-major exactly as the
scalar loops iterate, so every output slot sees the same IEEE-754 additions
in the same order: the two kernels agree bit for bit, not just within a
tolerance (property-tested in ``tests/test_aggregation.py``).

:func:`profile_bounds` dispatches: numpy when it is importable and the group
is big enough to amortize the array round-trip, the scalar loops otherwise —
so environments without numpy lose nothing but speed.  "Big enough" is the
constant :data:`NUMPY_MIN_SLOTS`.  Tests pin a path with :func:`force_kernel`.

Dispatch is observable: :mod:`repro.obs` counts and times every call per
path (``repro.aggregation.kernel.{numpy,scalar}.*``), which is where the
``flexviz stats`` kernel rows come from.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from functools import lru_cache
from typing import Iterator, Sequence, TYPE_CHECKING

from repro.errors import AggregationError
from repro.obs import get_registry

try:  # Optional dependency: every caller falls back to the scalar loops.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatch in tests
    _np = None

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flexoffer.model import FlexOffer, ProfileSlice

#: Minimum total profile pieces in a group before the numpy path pays for
#: the Python->array round-trip (tiny groups stay on the scalar loops).
NUMPY_MIN_SLOTS = 128

#: Test hook: ``None`` auto-dispatches, ``"numpy"``/``"scalar"`` pin a path.
_forced: str | None = None

#: Which path the most recent :func:`profile_bounds` call took (debug/tests).
_last_used: str = ""

# ----------------------------------------------------------------------
# Observability: dispatch counts and per-path latency (disabled-mode cost is
# one attribute check inside profile_bounds; see repro.obs).
# ----------------------------------------------------------------------
_OBS = get_registry()
_KERNEL_CALLS = {
    "numpy": _OBS.counter(
        "repro.aggregation.kernel.numpy.calls", "profile_bounds calls on the numpy path"
    ),
    "scalar": _OBS.counter(
        "repro.aggregation.kernel.scalar.calls", "profile_bounds calls on the scalar path"
    ),
}
_KERNEL_SECONDS = {
    "numpy": _OBS.histogram(
        "repro.aggregation.kernel.numpy.seconds", "numpy profile-summation latency"
    ),
    "scalar": _OBS.histogram(
        "repro.aggregation.kernel.scalar.seconds", "scalar profile-summation latency"
    ),
}


def numpy_available() -> bool:
    """Whether the vectorized path can run in this environment."""
    return _np is not None


def last_kernel_used() -> str:
    """The path the most recent dispatch took (``"numpy"``/``"scalar"``)."""
    return _last_used


@contextmanager
def force_kernel(mode: str | None) -> Iterator[None]:
    """Pin the kernel dispatch for the duration of the block (tests only)."""
    global _forced
    if mode not in (None, "numpy", "scalar"):
        raise AggregationError(f"unknown kernel mode {mode!r}")
    previous, _forced = _forced, mode
    try:
        yield
    finally:
        _forced = previous


def profile_bounds_scalar(
    group: Sequence["FlexOffer"], offsets: Sequence[int], length: int
) -> tuple[list[float], list[float]]:
    """Summed per-slot (min, max) energy bounds — the pure-Python reference."""
    min_energy = [0.0] * length
    max_energy = [0.0] * length
    for offset, offer in zip(offsets, group):
        position = offset
        for piece in offer.profile:
            share_min = piece.min_energy / piece.duration_slots
            share_max = piece.max_energy / piece.duration_slots
            for extra in range(piece.duration_slots):
                min_energy[position + extra] += share_min
                max_energy[position + extra] += share_max
            position += piece.duration_slots
    return min_energy, max_energy


@lru_cache(maxsize=8192)
def _expanded_profile(profile: tuple["ProfileSlice", ...]):
    """One offer's profile expanded to (relative indices, min/max shares).

    Profiles are frozen tuples, so they key an LRU cache: the live engines
    re-aggregate the same offers commit after commit, and the expansion —
    the only per-piece Python loop left on the numpy path — is paid once
    per distinct profile, not once per commit.
    """
    indices: list[int] = []
    mins: list[float] = []
    maxs: list[float] = []
    position = 0
    for piece in profile:
        duration = piece.duration_slots
        # The share divisions happen here, in Python floats, exactly as the
        # scalar path computes them — the arrays only carry the results.
        share_min = piece.min_energy / duration
        share_max = piece.max_energy / duration
        indices.extend(range(position, position + duration))
        mins.extend([share_min] * duration)
        maxs.extend([share_max] * duration)
        position += duration
    return (
        _np.asarray(indices, dtype=_np.intp),
        _np.asarray(mins, dtype=_np.float64),
        _np.asarray(maxs, dtype=_np.float64),
    )


def profile_bounds_numpy(
    group: Sequence["FlexOffer"], offsets: Sequence[int], length: int
) -> tuple[list[float], list[float]]:
    """Summed per-slot bounds via :func:`numpy.bincount` (bit-identical).

    ``bincount`` accumulates ``out[index[i]] += weight[i]`` strictly in input
    order; the index/weight arrays are concatenated offer-major, so repeated
    slots receive their additions in exactly the scalar loops' order.
    """
    if _np is None:
        raise AggregationError("the numpy kernel was requested but numpy is unavailable")
    index_parts = []
    min_parts = []
    max_parts = []
    for offset, offer in zip(offsets, group):
        indices, mins, maxs = _expanded_profile(offer.profile)
        index_parts.append(indices + offset if offset else indices)
        min_parts.append(mins)
        max_parts.append(maxs)
    indices = _np.concatenate(index_parts)
    min_energy = _np.bincount(
        indices, weights=_np.concatenate(min_parts), minlength=length
    )
    max_energy = _np.bincount(
        indices, weights=_np.concatenate(max_parts), minlength=length
    )
    return min_energy.tolist(), max_energy.tolist()


def profile_bounds(
    group: Sequence["FlexOffer"], offsets: Sequence[int], length: int
) -> tuple[list[float], list[float]]:
    """Dispatch to the numpy kernel or the scalar loops (identical outputs).

    Auto mode picks numpy when it is importable and the group carries at
    least :data:`NUMPY_MIN_SLOTS` profile pieces; tiny groups stay
    scalar — the array round-trip would cost more than the loops it replaces.
    """
    global _last_used
    if _forced == "scalar":
        use_numpy = False
    elif _forced == "numpy":
        use_numpy = True
    else:
        use_numpy = (
            _np is not None
            and sum(len(offer.profile) for offer in group) >= NUMPY_MIN_SLOTS
        )
    path = "numpy" if use_numpy else "scalar"
    implementation = profile_bounds_numpy if use_numpy else profile_bounds_scalar
    _last_used = path
    if not _OBS.enabled:
        return implementation(group, offsets, length)
    started = time.perf_counter()
    result = implementation(group, offsets, length)
    _KERNEL_SECONDS[path].observe(time.perf_counter() - started)
    _KERNEL_CALLS[path].inc()
    return result

