import random

import pytest

from conftest import random_corpus
from pasrec.domain import SimilarityParams, UserSequence, make_session_window
from pasrec.predictor import ScoredItem, positive_scores, rank_of_target, recommend_top_k
from pasrec.similarity import NeighborIndex, build_neighbor_index, count_pairs


def window_ab():
    return make_session_window(UserSequence.from_items("u", ["a", "b"]), k=2)


def handmade_index(measure, entries_for_t):
    params = SimilarityParams(ell=2, rho=0.2, lam=0.5, n_neighbors=20)
    items = ("a", "b", "t")
    entries = [[], [], entries_for_t]
    return NeighborIndex(measure, params, items, entries)


def score(window, target, index):
    return positive_scores(window, index).get(target, 0.0)


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


class TestScoreItem:
    def test_position_aware_lookup_at_stored_position(self):
        index = handmade_index("pas", [(0, 0.3, (0.1, 0.3)), (1, 0.5, (0.2, 0.5))])
        # L(a)=1 -> 0.1, L(b)=2 -> 0.5
        assert score(window_ab(), "t", index) == pytest.approx(0.6, abs=1e-15)

    def test_window_disjoint_from_neighborhood_scores_zero(self):
        index = handmade_index("pas", [])
        assert score(window_ab(), "t", index) == 0.0

    def test_position_independent_measure_ignores_window_position(self):
        index = handmade_index("bis", [(0, 0.4, ()), (1, 0.5, ())])
        assert score(window_ab(), "t", index) == pytest.approx(0.9, abs=1e-15)

    def test_unknown_target_scores_zero(self):
        index = handmade_index("bis", [(0, 0.4, ())])
        assert score(window_ab(), "zzz", index) == 0.0


class TestRecommendTopK:
    @pytest.fixture
    def small_index(self, toy_corpus):
        store = count_pairs(toy_corpus, ell_max=2)
        params = SimilarityParams(ell=2, rho=0.2, lam=0.0, n_neighbors=20)
        return build_neighbor_index(store, params, "bis")

    def test_highest_scores_first(self, small_index):
        window = make_session_window(UserSequence.from_items("v3", ["b", "a"]), k=2)
        ranked = recommend_top_k(window, {"b", "c"}, small_index, top_k=2)
        assert [s.item for s in ranked] == ["c", "b"]
        assert ranked[0].score > ranked[1].score >= 0.0

    def test_all_zero_scores_rank_by_identifier(self):
        index = handmade_index("bis", [])
        window = window_ab()
        ranked = recommend_top_k(window, {"z", "y", "x"}, index, top_k=2)
        assert [s.item for s in ranked] == ["x", "y"]
        assert all(s.score == 0.0 for s in ranked)

    def test_top_k_larger_than_candidates_ranks_all(self, small_index):
        window = make_session_window(UserSequence.from_items("v3", ["b", "a"]), k=2)
        ranked = recommend_top_k(window, {"b", "c"}, small_index, top_k=10)
        assert len(ranked) == 2

    def test_empty_candidates_rejected(self, small_index):
        window = make_session_window(UserSequence.from_items("v3", ["b", "a"]), k=2)
        with pytest.raises(ValueError, match="empty"):
            recommend_top_k(window, set(), small_index, top_k=3)

    def test_deterministic(self, small_index):
        window = make_session_window(UserSequence.from_items("v3", ["b", "a"]), k=2)
        first = recommend_top_k(window, {"a", "b", "c"}, small_index, top_k=3)
        second = recommend_top_k(window, {"a", "b", "c"}, small_index, top_k=3)
        assert first == second


class TestInvertedEnumerationEquivalence:
    @pytest.mark.parametrize("measure", ["bis", "pas", "pas_uni", "cosine"])
    def test_matches_exhaustive_scoring(self, measure):
        rng = random.Random(23)
        for trial in range(8):
            corpus = random_corpus(rng, max_users=25, max_items=15, max_len=10)
            store = count_pairs(corpus, ell_max=3)
            params = SimilarityParams(ell=3, rho=0.2, lam=0.5, n_neighbors=4)
            index = build_neighbor_index(store, params, measure)
            items = sorted({i for s in corpus for i in s.items})
            universe_pos = {item: pos for pos, item in enumerate(items)}
            for seq in corpus[:5]:
                window = make_session_window(seq, params.k)
                excluded = frozenset(seq.items)
                candidates = set(items) - excluded
                if not candidates:
                    continue
                scores = positive_scores(window, index)
                want = {c: reference_score(window, c, index) for c in candidates | {"unknown"}}
                assert {c: scores.get(c, 0.0) for c in want} == want
                brute_force = [
                    ScoredItem(c, want[c]) for c in sorted(candidates, key=lambda c: (-want[c], c))
                ]
                ranked = recommend_top_k(window, candidates, index, len(candidates))
                assert ranked == brute_force
                assert recommend_top_k(window, candidates, index, 5) == brute_force[:5]
                for position, scored in enumerate(ranked, start=1):
                    assert rank_of_target(scores, scored.item, excluded, universe_pos) == position
                # a score sums at most k window similarities, each in [0, 1]
                assert all(0.0 <= s.score <= params.k for s in ranked)
