"""Scoring and ranking of candidate items over session windows.

A candidate's score is the sum of stored similarities from the window items
that belong to its neighbor set; everything else contributes zero. Scoring
fills one dense row over the index's items per window, for a block of
windows at once, from the inverted neighbor view. The ranking order is
defined in this module only: score descending, then item identifier
ascending, so candidates that score zero rank by identifier.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .domain import SessionWindow
from .similarity import NeighborIndex


@dataclass(frozen=True)
class ScoredItem:
    item: str
    score: float


def positive_scores(windows: Sequence[SessionWindow], index: NeighborIndex) -> np.ndarray:
    """The float64 score of every item of ``index.items`` for each window, as
    a [windows x items] matrix in index order; an item whose neighbors hold no
    item of the window scores 0. Every window must have the index's k.

    The inverted rows of every window item are gathered at once and added
    with one ``np.bincount``, which adds in input order: by window, then
    window order, so each score is the same float as adding the window's
    items one after another.
    """
    for window in windows:
        if window.k != index.params.k:
            raise ValueError(f"window of k={window.k} against an index built for k={index.params.k}")
    positional = index.measure in ("pas", "pas_uni")
    row, nbr, column = [], [], []
    for r, window in enumerate(windows):
        for item in window.items:
            idx = index.item_index.get(item)
            if idx is not None:
                row.append(r)
                nbr.append(idx)
                # column L holds the value at window position L; bis and cosine read column 0
                column.append(window.window_position[item] if positional else 0)
    starts, targets, values = index.inverted
    nbr = np.array(nbr, dtype=np.int64)
    counts = starts[nbr + 1] - starts[nbr]
    # the inverted rows of nbr[j] are starts[nbr[j]] + 0, 1, ..., counts[j] - 1
    rows = np.repeat(starts[nbr] - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    n = len(index.items)
    # a target appears at most once among one neighbor's rows
    cells = np.repeat(np.array(row, dtype=np.int64) * n, counts) + targets[rows]
    weights = values[rows, np.repeat(np.array(column, dtype=np.int64), counts)]
    return np.bincount(cells, weights, minlength=len(windows) * n).reshape(len(windows), n)


def recommend_top_k(
    window: SessionWindow, candidates: set[str], index: NeighborIndex, top_k: int
) -> list[ScoredItem]:
    """The top_k highest-scoring candidates in ranking order."""
    if not candidates:
        raise ValueError("empty candidate set")
    scores = positive_scores([window], index)[0].tolist()
    scored = {c: scores[index.item_index[c]] if c in index.item_index else 0.0 for c in candidates}
    ranked = sorted(scored, key=lambda c: (-scored[c], c))[:top_k]
    return [ScoredItem(item, scored[item]) for item in ranked]


def rank_of_target(scores: np.ndarray, target_pos: np.ndarray, excluded: tuple) -> np.ndarray:
    """Rank of the item at target_pos[r] among the items of row r of
    ``scores``, in ranking order. The cells that ``excluded``, a (rows,
    columns) index, names are left out. Columns must ascend with the item
    identifier.
    """
    target_score = scores[np.arange(len(scores)), target_pos][:, None]
    scores = scores.copy()
    scores[excluded] = -np.inf
    earlier = np.arange(scores.shape[1]) < target_pos[:, None]
    return 1 + (np.count_nonzero(scores > target_score, axis=1)
                + np.count_nonzero((scores == target_score) & earlier, axis=1))
