"""Scoring and ranking of candidate items over session windows.

A candidate's score is the sum of stored similarities from the window items
that belong to its neighbor set; everything else contributes zero. Scoring
fills one dense row over the index's items per window, for a block of
windows at once, from the inverted neighbor view. A block is given as flat
int64 arrays with one element per window item that the index holds: the
window's row, the item's index position and its window position L.
``evaluate``, the one caller, slices them from the ``Dataset``'s arrays of
catalog codes. The ranking order is written in ``rank_of_target`` only:
score descending, then item identifier ascending, so candidates that score
zero rank by identifier.
"""
from __future__ import annotations

import numpy as np

from .similarity import NeighborIndex, _ranges


def positive_scores(
    row: np.ndarray, nbr: np.ndarray, position: np.ndarray, n_rows: int, index: NeighborIndex
) -> np.ndarray:
    """The float64 score of every item of ``index.items`` for each of
    ``n_rows`` windows, as a [windows x items] matrix in index order. Element
    j of the int64 arrays is a window item: ``row[j]`` its window,
    ``nbr[j]`` its position in ``index.items`` and ``position[j]`` its L in
    1..k, which only pas and pas_uni read. An item whose neighbors hold no
    item of the window scores 0.

    The inverted rows of every window item are gathered at once and added
    with one ``np.bincount``, which adds in input order. Given the items by
    window, then window order, each score is the same float as adding the
    window's items one after another.
    """
    starts, targets, values = index.inverted
    if index.measure in ("pas", "pas_uni"):
        # column L holds the value at window position L
        if len(position) and not 1 <= position.min() <= position.max() <= index.params.k:
            raise ValueError(f"window positions outside 1..{index.params.k}")
        column = position
    else:
        # bis and cosine read column 0
        column = np.zeros_like(position)
    counts = starts[nbr + 1] - starts[nbr]
    # the inverted rows of nbr[j] are starts[nbr[j]] + 0, 1, ..., counts[j] - 1
    rows = _ranges(starts[nbr], counts)
    n = len(index.items)
    # a target appears at most once among one neighbor's rows
    cells = np.repeat(row * n, counts) + targets[rows]
    weights = values[rows, np.repeat(column, counts)]
    return np.bincount(cells, weights, minlength=n_rows * n).reshape(n_rows, n)


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
