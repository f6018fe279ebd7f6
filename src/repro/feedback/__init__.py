"""Relevance feedback substrate: metrics, residual-collection evaluation,
Rocchio baseline, simulated survey users and rate training (Section 6.1)."""

from repro.feedback.metrics import (
    average_precision,
    cosine_similarity,
    kendall_tau,
    precision_at_k,
    recall_at_k,
    reciprocal_rank,
    spearman_footrule,
)
from repro.feedback.residual import ResidualCollection
from repro.feedback.rocchio import RocchioReformulator
from repro.feedback.simulated_user import SimulatedUser
from repro.feedback.survey import (
    SessionTrace,
    average_precision_curve,
    run_feedback_session,
)
from repro.feedback.training import TrainingCurve, train_transfer_rates

__all__ = [
    "ResidualCollection",
    "RocchioReformulator",
    "SessionTrace",
    "SimulatedUser",
    "TrainingCurve",
    "average_precision",
    "average_precision_curve",
    "cosine_similarity",
    "kendall_tau",
    "precision_at_k",
    "recall_at_k",
    "reciprocal_rank",
    "run_feedback_session",
    "spearman_footrule",
    "train_transfer_rates",
]
