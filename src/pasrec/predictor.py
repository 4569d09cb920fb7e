"""Scoring and ranking of candidate items over a session window.

A candidate's score is the sum of stored similarities from the window items
that belong to its neighbor set; everything else contributes zero. Scoring
fills one dense vector over the index's items from the inverted neighbor
view. The ranking order is defined in this module only: score descending,
then item identifier ascending, so candidates that score zero rank by
identifier.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import SessionWindow
from .similarity import NeighborIndex


@dataclass(frozen=True)
class ScoredItem:
    item: str
    score: float


def positive_scores(window: SessionWindow, index: NeighborIndex) -> np.ndarray:
    """The float64 score of every item of ``index.items`` for this window, in
    index order; an item whose neighbors hold no window item scores 0.
    The window and the index must share k.
    """
    if window.k != index.params.k:
        raise ValueError(f"window of k={window.k} against an index built for k={index.params.k}")
    starts, targets, values = index.inverted
    scores = np.zeros(len(index.items))
    for item in window.items:
        idx = index.item_index.get(item)
        if idx is None:
            continue
        rows = slice(starts[idx], starts[idx + 1])
        # column L holds the value at window position L; bis and cosine read column 0
        column = window.window_position[item] if index.measure in ("pas", "pas_uni") else 0
        # a target appears at most once among one neighbor's rows
        scores[targets[rows]] += values[rows, column]
    return scores


def recommend_top_k(
    window: SessionWindow, candidates: set[str], index: NeighborIndex, top_k: int
) -> list[ScoredItem]:
    """The top_k highest-scoring candidates in ranking order."""
    if not candidates:
        raise ValueError("empty candidate set")
    scores = positive_scores(window, index).tolist()
    scored = {c: scores[index.item_index[c]] if c in index.item_index else 0.0 for c in candidates}
    ranked = sorted(scored, key=lambda c: (-scored[c], c))[:top_k]
    return [ScoredItem(item, scored[item]) for item in ranked]


def rank_of_target(scores: np.ndarray, target_pos: int, excluded_pos: list[int]) -> int:
    """Rank of the item at ``target_pos`` among the items of ``scores`` that
    are not at ``excluded_pos``, in ranking order. Positions must ascend
    with the item identifier.
    """
    target_score = scores[target_pos]
    scores = scores.copy()
    scores[excluded_pos] = -np.inf
    return int(1 + np.count_nonzero(scores > target_score)
               + np.count_nonzero(scores[:target_pos] == target_score))
