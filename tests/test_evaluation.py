import math
import random

import pytest

from conftest import random_corpus
from pasrec.domain import InteractionRecord, SimilarityParams, UserSequence, make_session_window
from pasrec.evaluation import (
    ConfigMismatchError,
    evaluate,
    expand_grid,
    grid_search,
    ndcg_at_k,
    one_call_at_k,
    write_report_tsv,
)
from pasrec.ingest import build_dataset
from pasrec.predictor import positive_scores, rank_of_target
from pasrec.similarity import build_neighbor_index, count_pairs


class TestMetrics:
    def test_ndcg_rank_one_is_perfect(self):
        assert ndcg_at_k(1, 5) == 1.0

    def test_ndcg_rank_three(self):
        assert ndcg_at_k(3, 5) == pytest.approx(0.5, abs=1e-15)

    def test_ndcg_miss_is_zero(self):
        assert ndcg_at_k(7, 5) == 0.0
        assert ndcg_at_k(None, 5) == 0.0

    def test_one_call_boundary(self):
        assert one_call_at_k(5, 5) == 1
        assert one_call_at_k(6, 5) == 0
        assert one_call_at_k(1, 1) == 1
        assert one_call_at_k(None, 5) == 0

    def test_per_user_ndcg_never_exceeds_one_call(self):
        for rank in [1, 2, 3, 5, 6, 100, None]:
            assert ndcg_at_k(rank, 5) <= one_call_at_k(rank, 5)


def records(*user_items: tuple[str, str]) -> list[InteractionRecord]:
    out = []
    per_user: dict[str, int] = {}
    for user, items in user_items:
        for item in items.split():
            ts = per_user.get(user, 0)
            per_user[user] = ts + 1
            out.append(InteractionRecord(user=user, item=item, rating=5, timestamp=ts))
    return out


@pytest.fixture
def hit_and_miss_dataset():
    """u1's held-out items rank first; u2 has no co-occurrence signal and its
    targets drown below the top-5 among smaller identifiers.
    """
    return build_dataset(
        records(
            ("u1", "a b c"),
            ("h1", "a b"),
            ("h2", "a b"),
            ("u2", "x y z"),
            ("f1", "d e"),
            ("f2", "f g"),
            ("f3", "m n"),
        )
    )


class TestEvaluate:
    def test_rank_one_user_scores_perfectly(self, hit_and_miss_dataset):
        dataset = hit_and_miss_dataset
        store = count_pairs(dataset.sequences, ell_max=1)
        index = build_neighbor_index(store, SimilarityParams(ell=1, lam=0.0), "bis")
        result = evaluate(dataset, index, "validation", top_k=5)
        # u1: window [a], b scores positively, everything else 0 -> rank 1
        # u2: window [x], y scores 0, ranks behind 7 smaller zero-score ids
        assert result.n_users == 2
        assert result.ndcg == pytest.approx(0.5, abs=1e-12)
        assert result.one_call == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_user_still_counted(self, hit_and_miss_dataset):
        dataset = hit_and_miss_dataset
        store = count_pairs(dataset.sequences, ell_max=1)
        index = build_neighbor_index(store, SimilarityParams(ell=1, lam=0.0), "bis")
        result = evaluate(dataset, index, "test", top_k=5)
        assert result.n_users == 2
        assert result.n_skipped == 0

    def test_test_split_appends_validation_item_to_history(self, hit_and_miss_dataset):
        dataset = hit_and_miss_dataset
        store = count_pairs(dataset.sequences, ell_max=2)
        index = build_neighbor_index(store, SimilarityParams(ell=2, lam=0.0), "bis")
        # u1 test window is [a, b]: b -> c has bis 0 (no co-occurrence), but the
        # candidate set excludes both a and b, so c competes only with zeros
        result = evaluate(dataset, index, "test", top_k=5)
        assert 0.0 <= result.ndcg <= result.one_call <= 1.0

    def test_mean_ndcg_bounded_by_one_call(self):
        rng = random.Random(31)
        corpus = random_corpus(rng, max_users=30, max_items=12, max_len=8)
        recs = [
            InteractionRecord(user=s.user, item=item, rating=5, timestamp=ts)
            for s in corpus
            for ts, item in enumerate(s.items)
        ]
        dataset = build_dataset(recs)
        store = count_pairs(dataset.sequences, ell_max=3)
        for measure in ("bis", "pas", "cosine"):
            index = build_neighbor_index(store, SimilarityParams(ell=3), measure)
            for split in ("validation", "test"):
                result = evaluate(dataset, index, split, top_k=5)
                assert result.ndcg <= result.one_call + 1e-12

    def test_measure_mismatch_names_field(self, hit_and_miss_dataset):
        store = count_pairs(hit_and_miss_dataset.sequences, ell_max=1)
        index = build_neighbor_index(store, SimilarityParams(ell=1, lam=0.0), "bis")
        with pytest.raises(ConfigMismatchError, match="measure"):
            evaluate(hit_and_miss_dataset, index, "validation", measure="pas")

    def test_worker_count_does_not_change_result(self, hit_and_miss_dataset):
        dataset = hit_and_miss_dataset
        store = count_pairs(dataset.sequences, ell_max=1)
        index = build_neighbor_index(store, SimilarityParams(ell=1, lam=0.0), "bis")
        serial = evaluate(dataset, index, "validation", top_k=5, workers=1)
        parallel = evaluate(dataset, index, "validation", top_k=5, workers=2)
        assert serial == parallel  # elapsed is excluded from comparison


class TestRankOfTarget:
    def test_matches_brute_force_ranking(self):
        rng = random.Random(37)
        for trial in range(10):
            corpus = random_corpus(rng, max_users=25, max_items=15, max_len=10)
            store = count_pairs(corpus, ell_max=3)
            params = SimilarityParams(ell=3, lam=0.5, n_neighbors=5)
            index = build_neighbor_index(store, params, "pas")
            universe = tuple(sorted({i for s in corpus for i in s.items}))
            universe_pos = {item: pos for pos, item in enumerate(universe)}
            for seq in corpus[:4]:
                window = make_session_window(seq, params.k)
                excluded = frozenset(seq.items)
                candidates = [c for c in universe if c not in excluded]
                if not candidates:
                    continue
                scores = positive_scores(window, index)
                full = sorted(
                    ((scores.get(c, 0.0), c) for c in candidates),
                    key=lambda pair: (-pair[0], pair[1]),
                )
                for want_rank, (_, item) in list(enumerate(full, start=1))[:10]:
                    got = rank_of_target(scores, item, excluded, universe_pos)
                    assert got == want_rank


class TestGridSearch:
    def make_dataset(self):
        rng = random.Random(41)
        corpus = random_corpus(rng, max_users=40, max_items=15, max_len=10)
        recs = [
            InteractionRecord(user=s.user, item=item, rating=5, timestamp=ts)
            for s in corpus
            for ts, item in enumerate(s.items)
        ]
        return build_dataset(recs)

    def test_single_configuration_selected(self):
        dataset = self.make_dataset()
        grid = [("bis", SimilarityParams(ell=2, lam=0.0))]
        result = grid_search(dataset, grid)
        assert result.best_measure == "bis"
        assert result.best_params.ell == 2
        assert len(result.validation) == 1
        assert result.test.split == "test"

    def test_tie_prefers_smaller_k_then_lambda(self):
        dataset = self.make_dataset()
        grid = [
            ("pas", SimilarityParams(ell=3, lam=0.5)),
            ("pas", SimilarityParams(ell=2, lam=1.0)),
            ("pas", SimilarityParams(ell=2, lam=0.5)),
        ]
        result = grid_search(dataset, grid)
        by_config = {
            (row.params.ell, row.params.lam): row.one_call for row in result.validation
        }
        best_metric = max(by_config.values())
        tied = [cfg for cfg, metric in by_config.items() if metric == best_metric]
        assert (result.best_params.ell, result.best_params.lam) == min(tied)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty grid"):
            grid_search(self.make_dataset(), [])

    def test_expand_grid_defaults(self):
        grid = expand_grid("pas", ells=(5, 10, 20, 40), lambdas=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0))
        assert len(grid) == 72  # 4 ells x 6 lambdas x 3 scalings
        assert all(p.rho == 0.2 and p.w == 2.0 and p.n_neighbors == 20 for _, p in grid)
        assert len(expand_grid("bis")) == 4
        assert len(expand_grid("cosine")) == 4
        assert len(expand_grid("pas_uni")) == 12


def test_report_tsv_layout(tmp_path, hit_and_miss_dataset):
    store = count_pairs(hit_and_miss_dataset.sequences, ell_max=1)
    index = build_neighbor_index(store, SimilarityParams(ell=1, lam=0.0), "bis")
    result = evaluate(hit_and_miss_dataset, index, "validation", top_k=5)
    path = tmp_path / "report.tsv"
    write_report_tsv([result], str(path))
    version, header, row = path.read_text().splitlines()
    assert version == "#pasrec-report\t1"
    columns = header.split("\t")
    values = dict(zip(columns, row.split("\t")))
    assert values["split"] == "validation"
    assert values["top_k"] == "5"
    assert 0.0 <= float(values["ndcg_at_k"]) <= float(values["one_call_at_k"]) <= 1.0
