"""Engine-vs-oracle equivalence on randomized corpora.

A faster version of the acceptance criterion runs here so regressions show up
in the regular suite; the full 200-corpus sweep lives in test_acceptance.py.
The engine side of a pair is its row in a full index, one that keeps every
candidate pair, and 0 for a pair with no row; predictions go through the
shipped scorer.
"""
import random

import pytest

from conftest import assert_pairs_match_oracle, count_corpus, predicted_score, random_corpus, reduction_mismatches
from pasrec.domain import SimilarityParams, UserSequence, make_session_window
from pasrec.oracle import oracle_bis, oracle_pas, oracle_predict
from pasrec.similarity import build_neighbor_index

TOLERANCE = 1e-12

PARAM_COMBOS = [
    SimilarityParams(ell=ell, rho=rho, lam=lam, scaling=scaling, w=2.0, n_neighbors=n)
    for ell in (2, 3, 5)
    for rho in (0.2, 0.5)
    for lam in (0.0, 0.5, 1.0)
    for scaling in ("h_a", "h_b", "h_c")
    for n in (2, 20)
]


def sample_pairs(rng, items, count):
    pairs = []
    for _ in range(count):
        i_from, i_to = rng.sample(items, 2)
        pairs.append((i_from, i_to))
    pairs.append((items[0], "never-seen"))
    return pairs


def check_corpus(corpus, params, rng):
    store = count_corpus(corpus, ell_max=params.ell)
    items = sorted({i for s in corpus for i in s.items})
    assert_pairs_match_oracle(corpus, store, params, sample_pairs(rng, items, 25), TOLERANCE)


def test_similarities_match_oracle():
    rng = random.Random(101)
    for trial in range(24):
        corpus = random_corpus(rng)
        params = PARAM_COMBOS[trial % len(PARAM_COMBOS)]
        check_corpus(corpus, params, rng)


@pytest.mark.parametrize("measure", ["bis", "pas", "pas_uni", "cosine"])
def test_predictions_match_oracle(measure):
    rng = random.Random(211)
    for trial in range(10):
        corpus = random_corpus(rng, max_users=30, max_items=20, max_len=12)
        params = PARAM_COMBOS[(3 * trial) % len(PARAM_COMBOS)]
        store = count_corpus(corpus, ell_max=params.ell)
        index = build_neighbor_index(store, params, measure)
        items = sorted({i for s in corpus for i in s.items})
        for seq in rng.sample(corpus, min(3, len(corpus))):
            window = make_session_window(seq, params.k)
            for target in rng.sample(items, min(5, len(items))):
                got = predicted_score(window, target, index)
                want = oracle_predict(corpus, seq.user, target, params, measure)
                assert got == pytest.approx(want, abs=TOLERANCE)


def test_predictions_match_oracle_under_max_t_ranking():
    rng = random.Random(307)
    for trial in range(6):
        corpus = random_corpus(rng, max_users=30, max_items=20, max_len=12)
        params = PARAM_COMBOS[(5 * trial) % len(PARAM_COMBOS)]
        store = count_corpus(corpus, ell_max=params.ell)
        index = build_neighbor_index(store, params, "pas", rank_by="max_t")
        items = sorted({i for s in corpus for i in s.items})
        for seq in rng.sample(corpus, min(2, len(corpus))):
            window = make_session_window(seq, params.k)
            for target in rng.sample(items, min(4, len(items))):
                got = predicted_score(window, target, index)
                want = oracle_predict(corpus, seq.user, target, params, "pas", rank_by="max_t")
                assert got == pytest.approx(want, abs=TOLERANCE)


def test_reductions_are_exact():
    rng = random.Random(401)
    for trial in range(12):
        corpus = random_corpus(rng)
        base = PARAM_COMBOS[trial % len(PARAM_COMBOS)]
        assert reduction_mismatches(count_corpus(corpus, ell_max=base.ell), base) == 0


class TestOracleToyValues:
    """Hand-computed values over the three-user toy corpus."""

    def test_bis(self, toy_corpus):
        assert oracle_bis(toy_corpus, "a", "b", 2, 0.2) == pytest.approx(2 / 3, abs=0)
        assert oracle_bis(toy_corpus, "a", "b", 2, 0.5) == 1.0

    def test_bis_degenerate_cases(self, toy_corpus):
        assert oracle_bis(toy_corpus, "a", "missing", 2, 0.2) == 0.0
        single = [UserSequence.from_items("v", ["p", "q"])]
        assert oracle_bis(single, "p", "q", 1, 0.2) == 1.0

    def test_pas(self, toy_corpus):
        params = SimilarityParams(ell=2, rho=0.2, lam=0.5, scaling="h_a", w=2.0)
        assert oracle_pas(toy_corpus, "a", "b", params, 2) == pytest.approx(2 / 3, abs=0)
        at_one = SimilarityParams(ell=2, rho=0.2, lam=1.0)
        assert oracle_pas(toy_corpus, "a", "b", at_one, 1) == pytest.approx(1 / 3, abs=1e-15)
        at_zero = SimilarityParams(ell=2, rho=0.2, lam=0.0)
        assert oracle_pas(toy_corpus, "a", "b", at_zero, 1) == oracle_bis(toy_corpus, "a", "b", 2, 0.2)

    def test_predict_composes_window_similarities(self, toy_corpus):
        params = SimilarityParams(ell=2, rho=0.2, lam=0.0, n_neighbors=20)
        # v3 history [b, a] onto c: s(b->c) + s(a->c) = 1/3 + 2/3
        want = oracle_bis(toy_corpus, "b", "c", 2, 0.2) + oracle_bis(toy_corpus, "a", "c", 2, 0.2)
        assert oracle_predict(toy_corpus, "v3", "c", params, "bis") == pytest.approx(want, abs=0)
        assert want == pytest.approx(1.0, abs=1e-15)

    def test_predict_empty_neighborhood_overlap(self, toy_corpus):
        params = SimilarityParams(ell=2, rho=0.2, lam=0.0, n_neighbors=20)
        assert oracle_predict(toy_corpus, "v3", "unknown-item", params, "bis") == 0.0


def test_oracle_shares_no_state_with_engine(toy_corpus):
    # the oracle recounts from the sequences alone; mutating the store after
    # construction must not affect oracle values
    store = count_corpus(toy_corpus, ell_max=5)
    before = oracle_bis(toy_corpus, "a", "b", 2, 0.2)
    store.hist_cum[:] = 0
    store.co_users[:] = 0
    assert oracle_bis(toy_corpus, "a", "b", 2, 0.2) == before
