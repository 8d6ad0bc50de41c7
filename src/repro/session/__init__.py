"""The unified session facade (``repro.session``) — one front door.

* :mod:`repro.session.spec` — :class:`QuerySpec`/:class:`ResultSet`, the
  typed request/response envelopes shared by every engine.
* :mod:`repro.session.engines` — the :class:`AggregationBackend` protocol
  with the :class:`BatchEngine` and :class:`LiveEngine` implementations.
* :mod:`repro.session.query` — the fluent, index-aware :class:`OfferQuery`
  builder.
* :mod:`repro.session.views` — the name → builder :data:`VIEW_REGISTRY`.
* :mod:`repro.session.materialize` — standing specs maintained from commit
  deltas (:class:`MaterializedView`).
* :mod:`repro.session.facade` — :class:`FlexSession`, tying it all together.
"""

from repro.session.engines import AggregationBackend, BatchEngine, LiveEngine
from repro.session.facade import ENGINE_FACTORIES, FlexSession
from repro.session.materialize import MaterializedDelta, MaterializedView
from repro.session.query import OfferQuery, execute
from repro.session.spec import FRAME_COLUMNS, QuerySpec, ResultSet
from repro.session.views import (
    VIEW_REGISTRY,
    build_view,
    register_view,
    registered_views,
)

__all__ = [
    "AggregationBackend",
    "BatchEngine",
    "LiveEngine",
    "ENGINE_FACTORIES",
    "FlexSession",
    "MaterializedDelta",
    "MaterializedView",
    "OfferQuery",
    "execute",
    "FRAME_COLUMNS",
    "QuerySpec",
    "ResultSet",
    "VIEW_REGISTRY",
    "build_view",
    "register_view",
    "registered_views",
]
