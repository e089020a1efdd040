"""Automated feedback: formal verification, empirical evaluation, ranking."""

from repro.feedback.empirical import EmpiricalEvaluator, EmpiricalFeedback, trace_satisfaction
from repro.feedback.formal import FormalFeedback, FormalVerifier
from repro.feedback.ranker import (
    FeedbackRanker,
    PreferencePair,
    canonical_ranking,
    max_pairs,
    rank_to_pairs,
    response_fingerprint,
)

__all__ = [
    "EmpiricalEvaluator",
    "EmpiricalFeedback",
    "trace_satisfaction",
    "FormalFeedback",
    "FormalVerifier",
    "FeedbackRanker",
    "PreferencePair",
    "canonical_ranking",
    "max_pairs",
    "rank_to_pairs",
    "response_fingerprint",
]
