import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from pasrec.domain import MEASURES, UserSequence
from pasrec.evaluation import positive_scores, rank_of_target, window_terms
from pasrec.ingest import Interactions, _intern
from pasrec.oracle import oracle_bis, oracle_cosine, oracle_pas
from pasrec.similarity import _uni_low, build_neighbor_index, count_pairs

# the default settings, and a failing property prints the
# @reproduce_failure line that replays it
settings.register_profile("print-blob", print_blob=True)
settings.load_profile("print-blob")


@pytest.fixture
def toy_corpus() -> list[UserSequence]:
    """Three users over items a, b, c with known pair statistics."""
    return [
        UserSequence.from_items("v1", ["a", "b", "c"]),
        UserSequence.from_items("v2", ["a", "c", "b"]),
        UserSequence.from_items("v3", ["b", "a"]),
    ]


def interactions(rows) -> Interactions:
    """A table of (user, item, rating, timestamp) rows; a rating of None in
    any row makes a table without ratings."""
    rows = list(rows)
    ratings = [rating for _, _, rating, _ in rows]
    return Interactions.from_ids(
        users=[user for user, _, _, _ in rows],
        items=[item for _, item, _, _ in rows],
        ratings=None if None in ratings else ratings,
        timestamps=[timestamp for _, _, _, timestamp in rows],
    )


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


def count_corpus(corpus, ell_max):
    """``count_pairs`` over the ``UserSequence``s ``corpus``, encoded over
    their own catalog as a ``Dataset`` encodes its training items."""
    catalog, codes = _intern([item for seq in corpus for item in seq.items])
    offsets = np.cumsum([0] + [len(seq.items) for seq in corpus])
    return count_pairs(catalog, codes, offsets, ell_max)


def item_pairs(store, keys) -> list[tuple[int, int]]:
    """(lo, hi) item indices of the pair keys ``store.co`` or ``store.gaps``."""
    return [divmod(key, store.n_items) for key in keys.tolist()]


def full_index(store, params, measure):
    """The ``measure`` index of ``store`` with n_neighbors = n_items, so it
    keeps every candidate: each in-band pair (each co-occurring pair for
    cosine), in both directions. Column 0 holds bis or cosine, and column t
    pas or pas_uni at window position t."""
    return build_neighbor_index(store, replace(params, n_neighbors=max(1, store.n_items)), measure)


def pair_rows(index) -> dict[tuple[str, str], np.ndarray]:
    """The ``values`` row of each index entry by directed pair (i_from, i_to):
    the neighbor is i_from, the target i_to."""
    names = index.items
    return {(names[nbr], names[target]): row for target, nbr, row
            in zip(index.targets.tolist(), index.nbrs.tolist(), index.values)}


def row_value(rows, i_from, i_to, column=0) -> float:
    """Column ``column`` of the pair's row in ``pair_rows``; a pair with no row
    (out of band, never co-occurring, or an unobserved item) has value 0."""
    row = rows.get((i_from, i_to))
    return 0.0 if row is None else float(row[column])


def assert_pairs_match_oracle(corpus, store, params, pairs, tolerance) -> None:
    """Every measure of each directed pair of ``pairs``, read from full indexes
    of ``store``, matches the oracle within ``tolerance`` at every t."""
    rows = {measure: pair_rows(full_index(store, params, measure)) for measure in MEASURES}
    uni = replace(params, lam=1.0)
    for i_from, i_to in pairs:
        assert row_value(rows["bis"], i_from, i_to) == pytest.approx(
            oracle_bis(corpus, i_from, i_to, params.ell, params.rho), abs=tolerance)
        assert row_value(rows["cosine"], i_from, i_to) == pytest.approx(
            oracle_cosine(corpus, i_from, i_to), abs=tolerance)
        for t in range(1, params.k + 1):
            assert row_value(rows["pas"], i_from, i_to, t) == pytest.approx(
                oracle_pas(corpus, i_from, i_to, params, t), abs=tolerance)
            assert row_value(rows["pas_uni"], i_from, i_to, t) == pytest.approx(
                oracle_pas(corpus, i_from, i_to, uni, t), abs=tolerance)


def by_pair(index) -> tuple[np.ndarray, np.ndarray]:
    """(target * n_items + neighbor, values) of every entry, in that key order."""
    order = np.lexsort((index.nbrs, index.targets))
    return index.targets[order] * len(index.items) + index.nbrs[order], index.values[order]


def reduction_mismatches(store, params) -> int:
    """Cells of the full pas index at lam=0 that differ from bis, and at lam=1
    from pas_uni, over every in-band pair in both directions and every t."""
    at_zero, at_one = replace(params, lam=0.0), replace(params, lam=1.0)
    keys, bis = by_pair(full_index(store, at_zero, "bis"))
    uni_keys, uni = by_pair(full_index(store, at_one, "pas_uni"))
    assert np.array_equal(uni_keys, keys)
    mismatches = 0
    for lam_params, want in ((at_zero, bis[:, :1]), (at_one, uni[:, 1:])):
        pas_keys, pas = by_pair(full_index(store, lam_params, "pas"))
        assert np.array_equal(pas_keys, keys)
        mismatches += np.count_nonzero(pas[:, 1:] != want)
    return mismatches


def directed_pairs(store) -> tuple[np.ndarray, np.ndarray]:
    """(candidate, target) item indices of both directions of every in-band pair."""
    lo, hi = np.divmod(store.gaps, store.n_items)
    return np.concatenate((lo, hi)), np.concatenate((hi, lo))


def uni_values(store, cand, target, ell, scaling, w) -> np.ndarray:
    """pas_uni of each pair cand -> target at t = 1..k (k = ell), one column per
    t, from ``PairStore.numerators`` and ``PairStore.union``."""
    lows = [_uni_low(ell, t, scaling, w) for t in range(1, ell + 1)]
    return store.numerators(cand, target, ell, lows) / store.union(cand, target)[:, None]


def gap_histogram(store, i_from, i_to) -> dict[int, int]:
    """Users per directed gap p(i_to) - p(i_from) within the band, read through
    ``PairStore.numerators``: the users with gap in [g, ell_max] less those
    with gap in [g + 1, ell_max]."""
    band = store.ell_max
    a, b = (np.array([store.items.index(item)]) for item in (i_from, i_to))
    at_least = store.numerators(a, b, band, range(-band, band + 2))[0]
    return {gap: users for gap, users in zip(range(-band, band + 1),
                                             (at_least[:-1] - at_least[1:]).tolist()) if users}


def window_scores(windows, index) -> np.ndarray:
    """``positive_scores`` of the ``SessionWindow``s ``windows`` over the
    index's items, from the terms ``window_terms`` makes of their int64
    encoding: the row, index position and L of each window item the index
    holds, in window order. The terms check L against the index's k."""
    held = [(r, index.item_index[item], window.window_position[item])
            for r, window in enumerate(windows) for item in window.items if item in index.item_index]
    row, nbr, position = np.array(held, dtype=np.int64).reshape(-1, 3).T
    n = len(index.items)
    cells, value_at = window_terms(index, np.arange(n), n, len(windows))(row, nbr, position)
    return positive_scores(cells, value_at, index.values, len(windows), n)


def predicted_score(window, target, index) -> float:
    """The score ``positive_scores`` gives ``target``; 0 outside the index."""
    idx = index.item_index.get(target)
    return 0.0 if idx is None else float(window_scores([window], index)[0, idx])


def universe_scores(window, index, universe) -> np.ndarray:
    """``positive_scores`` of ``window`` over ``universe``, ascending item
    names that hold every window and index item, with its terms made in
    universe columns as ``evaluate`` makes them in catalog columns; 0
    outside the index."""
    column = {item: pos for pos, item in enumerate(universe)}
    lift = np.array([column[item] for item in index.items], dtype=np.int64)
    code, position = np.array([(column[item], window.window_position[item]) for item in window.items],
                              dtype=np.int64).reshape(-1, 2).T
    cells, value_at = window_terms(index, lift, len(universe), 1)(np.zeros_like(code), code, position)
    return positive_scores(cells, value_at, index.values, 1, len(universe))[0]


def rank_in_row(scores, target_pos, excluded_pos) -> int:
    """``rank_of_target`` over the one row ``scores``, which it leaves as it is."""
    return int(rank_of_target(scores[None].copy(), np.array([target_pos]),
                              np.array(excluded_pos, dtype=np.int64))[0])


def reference_score(window, target, index):
    """Walks the target's own neighbor row, independently of the terms
    that ``window_terms`` makes by neighbor.
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
