"""The profile-summation kernel behind :func:`~repro.aggregation.aggregate.aggregate_group`.

Summing the per-slot energy bounds of a flex-offer group is the hottest loop
of the whole system — the batch pipeline runs it for every group, and the
live engines run it for every re-aggregated chunk of every commit.

:func:`profile_bounds` is a unit-slice loop: when every slice of every offer
spans one slot, slice ``i`` of an offer at ``offset`` lands in slot
``offset + i``, so each bound is added straight into its slot (``x / 1 ==
x``: no share division) and the output is exactly ``max(offset +
len(offer.profile))`` slots long.  A group holding any multi-slot slice goes
whole to :func:`profile_bounds_scalar` — the seed code of
``aggregate_group``, unchanged — which spreads each slice evenly over the
slots it spans.  The seed loops are the general path and the independent
reference: ``tests/test_aggregation.py`` property-tests the unit-slice loop
against them on raw bits.

**Bit-identity is part of the contract.**  Both loops start every slot at
``0.0`` and add the offers' shares offer-major, slice by slice, so every
output slot sees the same IEEE-754 additions in the same order.

:mod:`repro.obs` times calls into ``repro.aggregation.kernel.scalar.seconds``,
which is where the ``flexviz stats`` kernel row comes from.  The kernel runs
below every stage boundary (one call per re-aggregated chunk), so it is a
probe, not a span, and it records only where a span would keep its record:
never inside a sampled-out trace.  It is the one instrument sampling thins.
"""

from __future__ import annotations

import time
from typing import Sequence, TYPE_CHECKING

from repro.obs import get_registry, get_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flexoffer.model import FlexOffer

# ----------------------------------------------------------------------
# Observability: per-call latency (disabled-mode cost is one attribute
# check inside profile_bounds; see repro.obs).
# ----------------------------------------------------------------------
_OBS = get_registry()
_TRACER = get_tracer()
_KERNEL_SECONDS = _OBS.histogram(
    "repro.aggregation.kernel.scalar.seconds", "profile-summation latency"
)


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


def _unit_slice_bounds(
    group: Sequence["FlexOffer"], offsets: Sequence[int]
) -> tuple[list[float], list[float]]:
    length = max(offset + len(offer.profile) for offset, offer in zip(offsets, group))
    min_energy = [0.0] * length
    max_energy = [0.0] * length
    for offset, offer in zip(offsets, group):
        position = offset
        for piece in offer.profile:
            if piece.duration_slots != 1:
                # Every later position of the group would be off (and the
                # lists too short): restart the whole group on the seed loops.
                length = max(
                    start + member.profile_duration_slots
                    for start, member in zip(offsets, group)
                )
                return profile_bounds_scalar(group, offsets, length)
            min_energy[position] += piece.min_energy
            max_energy[position] += piece.max_energy
            position += 1
    return min_energy, max_energy


def profile_bounds(
    group: Sequence["FlexOffer"], offsets: Sequence[int]
) -> tuple[list[float], list[float]]:
    """Summed per-slot (min, max) energy bounds of ``group`` placed at ``offsets``.

    The lists run from slot ``0`` to the last slot any offer occupies
    (``max(offset + profile_duration_slots)``), bit-identical to
    :func:`profile_bounds_scalar` over that length.
    """
    if not _OBS.enabled or _TRACER.muted():
        return _unit_slice_bounds(group, offsets)
    started = time.perf_counter()
    result = _unit_slice_bounds(group, offsets)
    _KERNEL_SECONDS.observe(time.perf_counter() - started)
    return result
