"""Flex-offer aggregation and disaggregation (MIRABEL-style, start-alignment scheme)."""

from repro.aggregation.aggregate import AggregationResult, aggregate, aggregate_group
from repro.aggregation.disaggregate import disaggregate, disaggregation_error
from repro.aggregation.grouping import (
    cell_for,
    chunk_assignment,
    chunk_count,
    chunk_group,
    chunks_from,
    group_key,
    group_offers,
    reduction_ratio,
)
from repro.aggregation.kernel import profile_bounds, profile_bounds_scalar
from repro.aggregation.metrics import AggregationMetrics, evaluate
from repro.aggregation.parameters import AggregationParameters

__all__ = [
    "AggregationParameters",
    "group_offers",
    "group_key",
    "cell_for",
    "chunk_assignment",
    "chunk_count",
    "chunk_group",
    "chunks_from",
    "reduction_ratio",
    "profile_bounds",
    "profile_bounds_scalar",
    "aggregate",
    "aggregate_group",
    "AggregationResult",
    "disaggregate",
    "disaggregation_error",
    "AggregationMetrics",
    "evaluate",
]
