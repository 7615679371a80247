"""Streaming sketch analytics (``repro.analytics``).

Sketches (:mod:`~repro.analytics.sketches`) and the
:class:`~repro.analytics.streaming.StreamingAnalytics` consumer that
answers the batch :class:`~repro.core.context.AnalysisContext` headline
queries over a live event stream — see DESIGN.md §6g.
"""

from repro.analytics.sketches import (
    ExactCounter,
    HyperLogLog,
    SpaceSaving,
    hash_key,
    hash_keys,
)
from repro.analytics.streaming import (
    CATEGORY_NAMES,
    AnalyticsConfig,
    StreamingAnalytics,
    iter_session_events,
    replay_store_events,
)

__all__ = [
    "AnalyticsConfig",
    "CATEGORY_NAMES",
    "ExactCounter",
    "HyperLogLog",
    "SpaceSaving",
    "StreamingAnalytics",
    "hash_key",
    "hash_keys",
    "iter_session_events",
    "replay_store_events",
]
