"""The paper's contribution surface: configuration and the full
query / explain / reformulate system facade."""

from repro.core.config import DEFAULT_RADIUS, SystemConfig
from repro.core.system import FeedbackOutcome, ObjectRankSystem

__all__ = [
    "DEFAULT_RADIUS",
    "FeedbackOutcome",
    "ObjectRankSystem",
    "SystemConfig",
]
