"""Engine-vs-oracle equivalence on randomized corpora.

A faster version of the acceptance criterion runs here so regressions show up
in the regular suite; the full 200-corpus sweep lives in test_acceptance.py.
"""
import random

import pytest

from conftest import random_corpus
from pasrec.domain import SimilarityParams, UserSequence, make_session_window
from pasrec.oracle import oracle_bis, oracle_cosine, oracle_pas, oracle_predict
from pasrec.predictor import positive_scores
from pasrec.similarity import (
    bis_similarity,
    build_neighbor_index,
    cosine_similarity,
    count_pairs,
    pas_similarity,
    pas_uni_similarity,
)

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
    store = count_pairs(corpus, ell_max=params.ell)
    items = sorted({i for s in corpus for i in s.items})
    uni = SimilarityParams(
        ell=params.ell, rho=params.rho, lam=1.0, scaling=params.scaling,
        w=params.w, n_neighbors=params.n_neighbors,
    )
    for i_from, i_to in sample_pairs(rng, items, 25):
        stats = store.pair_stats(i_from, i_to)
        assert bis_similarity(stats, params.ell, params.rho) == pytest.approx(
            oracle_bis(corpus, i_from, i_to, params.ell, params.rho), abs=TOLERANCE
        )
        assert cosine_similarity(
            stats, store.user_count(i_to), store.user_count(i_from)
        ) == pytest.approx(oracle_cosine(corpus, i_from, i_to), abs=TOLERANCE)
        for t in range(1, params.k + 1):
            assert pas_similarity(stats, params, t) == pytest.approx(
                oracle_pas(corpus, i_from, i_to, params, t), abs=TOLERANCE
            )
            assert pas_uni_similarity(
                stats, params.ell, params.k, t, params.scaling, params.w
            ) == pytest.approx(oracle_pas(corpus, i_from, i_to, uni, t), abs=TOLERANCE)


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
        store = count_pairs(corpus, ell_max=params.ell)
        index = build_neighbor_index(store, params, measure)
        items = sorted({i for s in corpus for i in s.items})
        for seq in rng.sample(corpus, min(3, len(corpus))):
            window = make_session_window(seq, params.k)
            for target in rng.sample(items, min(5, len(items))):
                got = positive_scores(window, index).get(target, 0.0)
                want = oracle_predict(corpus, seq.user, target, params, measure)
                assert got == pytest.approx(want, abs=TOLERANCE)


def test_predictions_match_oracle_under_max_t_ranking():
    rng = random.Random(307)
    for trial in range(6):
        corpus = random_corpus(rng, max_users=30, max_items=20, max_len=12)
        params = PARAM_COMBOS[(5 * trial) % len(PARAM_COMBOS)]
        store = count_pairs(corpus, ell_max=params.ell)
        index = build_neighbor_index(store, params, "pas", rank_by="max_t")
        items = sorted({i for s in corpus for i in s.items})
        for seq in rng.sample(corpus, min(2, len(corpus))):
            window = make_session_window(seq, params.k)
            for target in rng.sample(items, min(4, len(items))):
                got = positive_scores(window, index).get(target, 0.0)
                want = oracle_predict(corpus, seq.user, target, params, "pas", rank_by="max_t")
                assert got == pytest.approx(want, abs=TOLERANCE)


def test_reductions_are_exact():
    rng = random.Random(401)
    for trial in range(12):
        corpus = random_corpus(rng)
        base = PARAM_COMBOS[trial % len(PARAM_COMBOS)]
        store = count_pairs(corpus, ell_max=base.ell)
        items = sorted({i for s in corpus for i in s.items})
        for i_from, i_to in sample_pairs(rng, items, 20):
            stats = store.pair_stats(i_from, i_to)
            at_zero = SimilarityParams(ell=base.ell, rho=base.rho, lam=0.0,
                                       scaling=base.scaling, w=base.w)
            at_one = SimilarityParams(ell=base.ell, rho=base.rho, lam=1.0,
                                      scaling=base.scaling, w=base.w)
            for t in range(1, base.k + 1):
                assert pas_similarity(stats, at_zero, t) == bis_similarity(stats, base.ell, base.rho)
                assert pas_similarity(stats, at_one, t) == pas_uni_similarity(
                    stats, base.ell, base.k, t, base.scaling, base.w
                )


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
    store = count_pairs(toy_corpus, ell_max=5)
    before = oracle_bis(toy_corpus, "a", "b", 2, 0.2)
    store.gaps.clear()
    store.co.clear()
    assert oracle_bis(toy_corpus, "a", "b", 2, 0.2) == before
