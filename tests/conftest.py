import random

import numpy as np
import pytest

from pasrec.domain import UserSequence
from pasrec.predictor import positive_scores, rank_of_target


@pytest.fixture
def toy_corpus() -> list[UserSequence]:
    """Three users over items a, b, c with known pair statistics."""
    return [
        UserSequence.from_items("v1", ["a", "b", "c"]),
        UserSequence.from_items("v2", ["a", "c", "b"]),
        UserSequence.from_items("v3", ["b", "a"]),
    ]


def random_corpus(
    rng: random.Random,
    max_users: int = 50,
    max_items: int = 30,
    max_len: int = 20,
) -> list[UserSequence]:
    """A random corpus of deduplicated sequences, sized for oracle checks."""
    n_items = rng.randint(3, max_items)
    items = [f"i{j:03d}" for j in range(n_items)]
    n_users = rng.randint(2, max_users)
    sequences = []
    for u in range(n_users):
        length = rng.randint(1, min(max_len, n_items))
        sequences.append(UserSequence.from_items(f"u{u:03d}", rng.sample(items, length)))
    return sequences


def item_pairs(store, keys) -> list[tuple[int, int]]:
    """(lo, hi) item indices of the pair keys ``store.co`` or ``store.gaps``."""
    return [divmod(key, store.n_items) for key in keys.tolist()]


def predicted_score(window, target, index) -> float:
    """The score ``positive_scores`` gives ``target``; 0 outside the index."""
    idx = index.item_index.get(target)
    return 0.0 if idx is None else float(positive_scores([window], index)[0, idx])


def universe_scores(window, index, universe) -> np.ndarray:
    """``positive_scores`` read out over ``universe``, 0 outside the index."""
    scores = positive_scores([window], index)[0]
    return np.array([scores[index.item_index[c]] if c in index.item_index else 0.0
                     for c in universe])


def rank_in_row(scores, target_pos, excluded_pos) -> int:
    """``rank_of_target`` over the one row ``scores``."""
    rows = np.zeros(len(excluded_pos), dtype=np.int64)
    return int(rank_of_target(scores[None], np.array([target_pos]), (rows, excluded_pos))[0])


def reference_score(window, target, index):
    """Walks the target's own neighbor row, independently of the inverted
    view that ``positive_scores`` reads.
    """
    tgt = index.item_index.get(target)
    if tgt is None:
        return 0.0
    row = {nbr: (value, vector) for nbr, value, vector in index.entries[tgt]}
    total = 0.0
    for item in window.items:
        entry = row.get(index.item_index.get(item))
        if entry is None:
            continue
        value, vector = entry
        total += vector[window.window_position[item] - 1] if vector else value
    return total
