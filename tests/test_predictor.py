import random

import numpy as np
import pytest

from conftest import (
    count_corpus, predicted_score, random_corpus, rank_in_row, reference_score, universe_scores, window_scores,
)
from pasrec.domain import SimilarityParams, UserSequence, make_session_window
from pasrec.similarity import NeighborIndex, build_neighbor_index


def window_ab():
    return make_session_window(UserSequence.from_items("u", ["a", "b"]), k=2)


def handmade_index(measure, entries_for_t):
    """An index over a, b, t whose only target is t, from (nbr, value, vector) rows."""
    params = SimilarityParams(ell=2, rho=0.2, lam=0.5, n_neighbors=20)
    width = 1 + (params.k if measure in ("pas", "pas_uni") else 0)
    nbrs = np.array([nbr for nbr, _, _ in entries_for_t], dtype=np.int64)
    values = np.array([(value, *vector) for _, value, vector in entries_for_t]).reshape(-1, width)
    return NeighborIndex(measure, params, ("a", "b", "t"), np.full(len(nbrs), 2), nbrs, values)


class TestScoreItem:
    def test_position_aware_lookup_at_stored_position(self):
        index = handmade_index("pas", [(0, 0.3, (0.1, 0.3)), (1, 0.5, (0.2, 0.5))])
        # L(a)=1 -> 0.1, L(b)=2 -> 0.5
        assert predicted_score(window_ab(), "t", index) == pytest.approx(0.6, abs=1e-15)

    def test_window_disjoint_from_neighborhood_scores_zero(self):
        index = handmade_index("pas", [])
        assert predicted_score(window_ab(), "t", index) == 0.0

    def test_position_independent_measure_ignores_window_position(self):
        index = handmade_index("bis", [(0, 0.4, ()), (1, 0.5, ())])
        assert predicted_score(window_ab(), "t", index) == pytest.approx(0.9, abs=1e-15)

    def test_unknown_target_scores_zero(self):
        index = handmade_index("bis", [(0, 0.4, ())])
        assert predicted_score(window_ab(), "zzz", index) == 0.0

    def test_window_position_beyond_stored_vector_fails(self):
        # a window of k=3 puts b at L=3; the index stores t = 1..2
        window = make_session_window(UserSequence.from_items("u", ["a", "b"]), k=3)
        index = handmade_index("pas", [(0, 0.3, (0.1, 0.3)), (1, 0.5, (0.2, 0.5))])
        with pytest.raises(ValueError, match=r"outside 1\.\.2"):
            window_scores([window], index)


class TestInvertedEnumerationEquivalence:
    @pytest.mark.parametrize("measure", ["bis", "pas", "pas_uni", "cosine"])
    def test_matches_exhaustive_scoring(self, measure):
        rng = random.Random(23)
        for trial in range(8):
            corpus = random_corpus(rng, max_users=25, max_items=15, max_len=10)
            store = count_corpus(corpus, ell_max=3)
            params = SimilarityParams(ell=3, rho=0.2, lam=0.5, n_neighbors=4)
            index = build_neighbor_index(store, params, measure)
            # i000x sorts between i000 and i001 and is absent from the index
            universe = sorted({i for s in corpus for i in s.items} | {"i000x"})
            universe_pos = {item: pos for pos, item in enumerate(universe)}
            for seq in corpus[:5]:
                window = make_session_window(seq, params.k)
                excluded = frozenset(seq.items)
                candidates = set(universe) - excluded
                want = {c: reference_score(window, c, index) for c in universe}
                lifted = universe_scores(window, index, universe)
                assert lifted.tolist() == [want[c] for c in universe]
                brute_force = sorted(candidates, key=lambda c: (-want[c], c))
                excluded_pos = [universe_pos[c] for c in excluded]
                for position, item in enumerate(brute_force, start=1):
                    assert rank_in_row(lifted, universe_pos[item], excluded_pos) == position
                # a score sums at most k window similarities, each in [0, 1]
                assert all(0.0 <= want[c] <= params.k for c in candidates)
