"""Scoring and ranking of candidate items over a session window.

A candidate's score is the sum of stored similarities from the window items
that belong to its neighbor set; everything else contributes zero. Scoring
therefore never touches the full catalog: the inverted neighbor view yields
every candidate that can score above zero in O(window * n_neighbors).

The ranking order is defined in this module only: score descending, then
item identifier ascending, so candidates that score zero rank by identifier.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from .domain import SessionWindow
from .similarity import NeighborIndex


@dataclass(frozen=True)
class ScoredItem:
    item: str
    score: float


def positive_scores(window: SessionWindow, index: NeighborIndex) -> dict[str, float]:
    """Scores for every item that can score above zero for this window,
    via the inverted neighbor view. Items absent from the result score 0.
    """
    reverse = index.reverse
    totals: dict[int, float] = {}
    for item in window.items:
        idx = index.item_index.get(item)
        if idx is None:
            continue
        position = window.window_position[item]
        for target, value, vector in reverse.get(idx, ()):
            # positional measures store one value per window position t; the
            # position-independent measures store a single scalar
            totals[target] = totals.get(target, 0.0) + (vector[position - 1] if vector else value)
    return {index.items[target]: score for target, score in totals.items()}


def recommend_top_k(
    window: SessionWindow, candidates: set[str], index: NeighborIndex, top_k: int
) -> list[ScoredItem]:
    """The top_k highest-scoring candidates in ranking order."""
    if not candidates:
        raise ValueError("empty candidate set")
    scored = positive_scores(window, index)
    ranked = sorted(
        ((item, score) for item, score in scored.items() if item in candidates and score > 0.0),
        key=lambda pair: (-pair[1], pair[0]),
    )[:top_k]
    result = [ScoredItem(item, score) for item, score in ranked]
    if len(result) < top_k:
        # every positive-scoring candidate is already in result
        zeros = heapq.nsmallest(top_k - len(result), (c for c in candidates if scored.get(c, 0.0) <= 0.0))
        result.extend(ScoredItem(item, 0.0) for item in zeros)
    return result


def rank_of_target(
    scores: dict[str, float],
    target: str,
    excluded: frozenset[str],
    universe_pos: dict[str, int],
) -> int:
    """Rank of ``target`` among the candidates (universe minus excluded) in
    ranking order. Candidates absent from ``scores`` score 0, so they never
    need materializing.
    """
    target_score = scores.get(target, 0.0)
    ahead = 0
    if target_score > 0.0:
        for item, s in scores.items():
            if item == target or item in excluded:
                continue
            if s > target_score or (s == target_score and item < target):
                ahead += 1
        return ahead + 1
    target_pos = universe_pos[target]
    smaller_zero = target_pos - sum(1 for item in excluded if universe_pos[item] < target_pos)
    for item, s in scores.items():
        if item == target or item in excluded or s <= 0.0:
            continue
        ahead += 1
        if universe_pos[item] < target_pos:
            smaller_zero -= 1
    return ahead + smaller_zero + 1
