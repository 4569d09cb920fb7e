import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pasrec.evaluation as evaluation
from conftest import count_corpus, interactions, random_corpus, rank_in_row, reference_score, universe_scores
from pasrec.domain import SimilarityParams, UserSequence, make_session_window
from pasrec.evaluation import (
    ConfigMismatchError,
    evaluate,
    expand_grid,
    grid_search,
    ndcg_at_k,
    one_call_at_k,
    write_report_tsv,
)
from pasrec.cli import main
from pasrec.ingest import Dataset, Interactions, build_dataset, load_dataset
from pasrec.similarity import NeighborIndex, build_neighbor_index, count_pairs


class TestMetrics:
    def test_ndcg_rank_one_is_perfect(self):
        assert ndcg_at_k(1, 5) == 1.0

    def test_ndcg_rank_three(self):
        assert ndcg_at_k(3, 5) == pytest.approx(0.5, abs=1e-15)

    def test_ndcg_miss_is_zero(self):
        assert ndcg_at_k(7, 5) == 0.0

    def test_one_call_boundary(self):
        assert one_call_at_k(5, 5) == 1
        assert one_call_at_k(6, 5) == 0
        assert one_call_at_k(1, 1) == 1

    def test_per_user_ndcg_never_exceeds_one_call(self):
        for rank in [1, 2, 3, 5, 6, 100]:
            assert ndcg_at_k(rank, 5) <= one_call_at_k(rank, 5)


def records(*user_items: tuple[str, str]) -> Interactions:
    out = []
    per_user: dict[str, int] = {}
    for user, items in user_items:
        for item in items.split():
            ts = per_user.get(user, 0)
            per_user[user] = ts + 1
            out.append((user, item, 5, ts))
    return interactions(out)


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
        store = count_corpus(dataset.sequences, ell_max=1)
        index = build_neighbor_index(store, SimilarityParams(ell=1, lam=0.0), "bis")
        result = evaluate(dataset, index, "validation", top_k=5)
        # u1: window [a], b scores positively, everything else 0 -> rank 1
        # u2: window [x], y scores 0, ranks behind 7 smaller zero-score ids
        assert result.n_users == 2
        assert result.ndcg == pytest.approx(0.5, abs=1e-12)
        assert result.one_call == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_user_still_counted(self, hit_and_miss_dataset):
        dataset = hit_and_miss_dataset
        store = count_corpus(dataset.sequences, ell_max=1)
        index = build_neighbor_index(store, SimilarityParams(ell=1, lam=0.0), "bis")
        result = evaluate(dataset, index, "test", top_k=5)
        assert result.n_users == 2
        assert result.n_skipped == 0

    def test_test_split_appends_validation_item_to_history(self, hit_and_miss_dataset):
        dataset = hit_and_miss_dataset
        store = count_corpus(dataset.sequences, ell_max=2)
        index = build_neighbor_index(store, SimilarityParams(ell=2, lam=0.0), "bis")
        # u1 test window is [a, b]: b -> c has bis 0 (no co-occurrence), but the
        # candidate set excludes both a and b, so c competes only with zeros
        result = evaluate(dataset, index, "test", top_k=5)
        assert 0.0 <= result.ndcg <= result.one_call <= 1.0

    def test_mean_ndcg_bounded_by_one_call(self):
        rng = random.Random(31)
        corpus = random_corpus(rng, max_users=30, max_items=12, max_len=8)
        recs = interactions(
            (s.user, item, 5, ts) for s in corpus for ts, item in enumerate(s.items)
        )
        dataset = build_dataset(recs)
        store = count_corpus(dataset.sequences, ell_max=3)
        for measure in ("bis", "pas", "cosine"):
            index = build_neighbor_index(store, SimilarityParams(ell=3), measure)
            for split in ("validation", "test"):
                result = evaluate(dataset, index, split, top_k=5)
                assert result.ndcg <= result.one_call + 1e-12

    def test_index_from_another_corpus_fails(self, hit_and_miss_dataset, toy_corpus):
        store = count_corpus(toy_corpus + [UserSequence.from_items("w", ["q", "r"])], ell_max=1)
        index = build_neighbor_index(store, SimilarityParams(ell=1, lam=0.0), "bis")
        with pytest.raises(ValueError, match="index covers 2 items absent from the dataset"):
            evaluate(hit_and_miss_dataset, index, "validation")

    def test_measure_mismatch_names_field(self, hit_and_miss_dataset):
        store = count_corpus(hit_and_miss_dataset.sequences, ell_max=1)
        index = build_neighbor_index(store, SimilarityParams(ell=1, lam=0.0), "bis")
        with pytest.raises(ConfigMismatchError, match="measure"):
            evaluate(hit_and_miss_dataset, index, "validation", measure="pas")

    @pytest.mark.parametrize("top_k", [0, -2])
    def test_top_k_below_one_rejected(self, hit_and_miss_dataset, top_k):
        store = count_corpus(hit_and_miss_dataset.sequences, ell_max=1)
        index = build_neighbor_index(store, SimilarityParams(ell=1, lam=0.0), "bis")
        with pytest.raises(ValueError, match=rf"^top_k must be >= 1, got {top_k}$"):
            evaluate(hit_and_miss_dataset, index, "validation", top_k=top_k)
        assert evaluate(hit_and_miss_dataset, index, "validation", top_k=1).n_users == 2


class TestHeldOutEdges:
    """Splits written by hand: b appears only as u3's test item, and z trains
    on c alone."""

    FILES = {
        "train.tsv": "u1\ta\nu1\ty\nu2\ta\nu2\ty\nu3\tc\nu3\td\nz\tc\n",
        "valid.tsv": "u3\ta\nz\ta\n",
        "test.tsv": "u3\tb\nz\ty\n",
    }

    @pytest.fixture
    def dataset_dir(self, tmp_path):
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text)
        return tmp_path

    @staticmethod
    def bis_index(dataset):
        store = count_pairs(dataset.item_universe, dataset.train_codes, dataset.train_offsets, 1)
        return build_neighbor_index(store, SimilarityParams(ell=1, lam=0.0), "bis")

    def test_user_without_training_line_ranks_from_validation_item(self, dataset_dir):
        # build_dataset keeps a training item of every held-out user, so
        # load_dataset refuses z without its training line
        (dataset_dir / "train.tsv").write_text(self.FILES["train.tsv"].replace("z\tc\n", ""))
        with pytest.raises(ValueError, match=r"valid\.tsv:2: user 'z' is held out but has no line in train\.tsv$"):
            load_dataset(str(dataset_dir))
        # the dataset those files held, items a, b, c, d, y
        dataset = Dataset(users=("u1", "u2", "u3", "z"), item_universe=("a", "b", "c", "d", "y"),
                          train_codes=np.array([0, 4, 0, 4, 2, 3]), train_offsets=np.array([0, 2, 4, 6, 6]),
                          valid_codes=np.array([-1, -1, 0, 0]), test_codes=np.array([-1, -1, 1, 4]))
        assert [seq.user for seq in dataset.sequences] == ["u1", "u2", "u3"]
        assert dataset.validation == {"u3": "a", "z": "a"} and dataset.test == {"u3": "b", "z": "y"}
        index = self.bis_index(dataset)
        # z has no history to predict its validation item from
        valid = evaluate(dataset, index, "validation", top_k=1)
        assert (valid.n_users, valid.n_skipped, valid.one_call) == (1, 1, 1.0)
        # z's history is its validation item a, which lifts y above the
        # zero-score b, c and d; u3's b scores 0 and ranks behind y
        test = evaluate(dataset, index, "test", top_k=1)
        assert (test.n_users, test.n_skipped, test.one_call, test.ndcg) == (2, 0, 0.5, 0.5)

    def test_item_only_held_out_is_a_candidate_but_not_indexed(self, dataset_dir):
        dataset = load_dataset(str(dataset_dir))
        assert dataset.item_universe == ("a", "b", "c", "d", "y")
        out = dataset_dir / "bis.idx"
        assert main(["-q", "build-index", "--dataset", str(dataset_dir), "--out", str(out),
                     "--measure", "bis", "--ell", "1", "--lam", "0"]) == 0
        header = dict(line.split("\t", 1) for line in out.read_text().splitlines() if line.startswith("#"))
        assert json.loads(header["#items"]) == ["a", "c", "d", "y"]
        index = NeighborIndex.load(str(out))
        assert index.items == self.bis_index(dataset).items == ("a", "c", "d", "y")
        # u3's test target b ranks second, behind y
        result = evaluate(dataset, index, "test", top_k=2)
        assert (result.n_users, result.one_call, result.ndcg) == (2, 1.0, (1 + 1 / math.log2(3)) / 2)


class TestBlockRanking:
    @staticmethod
    def reference(dataset, index, split, top_k):
        """NDCG@K and 1-call@K from ranking each user on its own, by the
        neighbor rows of each target."""
        held_out = dataset.validation if split == "validation" else dataset.test
        train = {seq.user: seq.items for seq in dataset.sequences}
        ndcg, one_call = [], []
        for user in sorted(held_out):
            history = train[user] + ((dataset.validation[user],) if split == "test" else ())
            window = make_session_window(UserSequence.from_items(user, history), index.params.k)
            scores = {c: reference_score(window, c, index) for c in dataset.item_universe}
            target = held_out[user]
            rank = 1 + sum(1 for c in dataset.item_universe if c not in history
                           and (-scores[c], c) < (-scores[target], target))
            ndcg.append(evaluation.ndcg_at_k(rank, top_k))
            one_call.append(evaluation.one_call_at_k(rank, top_k))
        return math.fsum(ndcg) / len(ndcg), math.fsum(one_call) / len(one_call)

    @pytest.mark.parametrize("measure", ["pas", "bis", "cosine"])
    @pytest.mark.parametrize("split", ["validation", "test"])
    def test_block_size_does_not_change_the_result(self, monkeypatch, measure, split):
        rng = random.Random(43)
        items = [f"i{j:02d}" for j in range(20)]
        recs = interactions((f"u{u:02d}", item, 5, ts) for u in range(30)
                            for ts, item in enumerate(rng.sample(items, rng.randint(3, 9))))
        dataset = build_dataset(recs)
        # an index over half the users: window items of the others, and
        # held-out items, are often missing from it
        store = count_corpus(dataset.sequences[::2], ell_max=3)
        index = build_neighbor_index(store, SimilarityParams(ell=3, n_neighbors=4), measure)
        assert len(index.items) < len(dataset.item_universe)
        n_users = len(dataset.validation)
        results = []
        for rows in (1, 2, 3, n_users + 7):
            monkeypatch.setattr(evaluation, "_BLOCK_CELLS", rows * len(dataset.item_universe))
            results.append(evaluate(dataset, index, split, top_k=5))
        assert all(result == results[0] for result in results)
        assert results[0].n_users == n_users
        assert (results[0].ndcg, results[0].one_call) == self.reference(dataset, index, split, 5)

    def test_cap_below_one_row_still_ranks_a_row_at_a_time(self, monkeypatch, hit_and_miss_dataset):
        store = count_corpus(hit_and_miss_dataset.sequences, ell_max=1)
        index = build_neighbor_index(store, SimilarityParams(ell=1, lam=0.0), "bis")
        want = evaluate(hit_and_miss_dataset, index, "validation")
        monkeypatch.setattr(evaluation, "_BLOCK_CELLS", 1)
        assert evaluate(hit_and_miss_dataset, index, "validation") == want


# users of 3 to 8 distinct items from a small catalog; build_dataset holds
# out the last two, so a user of 3 trains on one item
held_out_corpora = st.lists(
    st.lists(st.sampled_from("abcdefghij"), min_size=3, max_size=8, unique=True),
    min_size=1, max_size=12,
)


class TestArrayPath:
    @pytest.mark.parametrize("measure", ["bis", "pas", "pas_uni", "cosine"])
    @pytest.mark.parametrize("split", ["validation", "test"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_evaluate_matches_per_user_reference(self, measure, split, data):
        corpus = {f"u{n:02d}": " ".join(items) for n, items in enumerate(data.draw(held_out_corpora))}
        # zz trains on x alone and holds out y and z; the index never holds
        # them, since it is built without zz
        dataset = build_dataset(records(*corpus.items(), ("zz", "x y z")))
        indexed = data.draw(st.sets(st.sampled_from(sorted(corpus)), min_size=1))
        ell = data.draw(st.integers(2, 5))
        params = SimilarityParams(ell=ell, lam=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
                                  scaling=data.draw(st.sampled_from(["h_a", "h_b", "h_c"])),
                                  n_neighbors=data.draw(st.integers(1, 6)))
        store = count_corpus([seq for seq in dataset.sequences if seq.user in indexed], ell_max=ell)
        index = build_neighbor_index(store, params, measure)
        assert not {"x", "y", "z"} & set(index.items)
        top_k = data.draw(st.integers(1, 5))
        block_rows = data.draw(st.integers(1, len(dataset.test) + 1))

        blocks = []
        block_scorer = evaluation.positive_scores

        def recorded(*args):
            blocks.append(block_scorer(*args))
            return blocks[-1]

        with mock.patch.object(evaluation, "_BLOCK_CELLS", block_rows * len(dataset.item_universe)), \
                mock.patch.object(evaluation, "positive_scores", recorded):
            result = evaluate(dataset, index, split, top_k=top_k)
        assert (result.n_users, result.n_skipped) == (len(dataset.test), 0)
        assert (result.ndcg, result.one_call) == TestBlockRanking.reference(dataset, index, split, top_k)
        assert len(blocks) == -(-len(dataset.test) // block_rows)

        # each block row holds the reference scores of its user's window
        # and ranks the user's candidates in the brute-force order
        scores = np.concatenate(blocks)
        train = {seq.user: seq.items for seq in dataset.sequences}
        held_out = dataset.validation if split == "validation" else dataset.test
        assert len(scores) == len(held_out)
        universe = dataset.item_universe
        for row, user in zip(scores, sorted(held_out)):
            history = train[user] + ((dataset.validation[user],) if split == "test" else ())
            window = make_session_window(UserSequence.from_items(user, history), params.k)
            want = {c: reference_score(window, c, index) for c in universe}
            assert row.tolist() == [want[c] for c in index.items]
            lifted = np.array([row[index.item_index[c]] if c in index.item_index else 0.0 for c in universe])
            known = [pos for pos, c in enumerate(universe) if c in history]
            candidates = sorted(set(universe) - set(history), key=lambda c: (-want[c], c))
            for position, item in enumerate(candidates, start=1):
                assert rank_in_row(lifted, universe.index(item), known) == position


class TestRankOfTarget:
    def test_matches_brute_force_ranking(self):
        rng = random.Random(37)
        for trial in range(10):
            corpus = random_corpus(rng, max_users=25, max_items=15, max_len=10)
            store = count_corpus(corpus, ell_max=3)
            params = SimilarityParams(ell=3, lam=0.5, n_neighbors=5)
            index = build_neighbor_index(store, params, "pas")
            # i000x sorts between i000 and i001 and is absent from the index
            universe = tuple(sorted({i for s in corpus for i in s.items} | {"i000x"}))
            universe_pos = {item: pos for pos, item in enumerate(universe)}
            for seq in corpus[:4]:
                window = make_session_window(seq, params.k)
                excluded = [universe_pos[c] for c in seq.items]
                candidates = [c for c in universe if c not in seq.items]
                full = sorted(candidates, key=lambda c: (-reference_score(window, c, index), c))
                scores = universe_scores(window, index, universe)
                for want_rank, item in enumerate(full, start=1):
                    got = rank_in_row(scores, universe_pos[item], excluded)
                    assert got == want_rank


class TestGridSearch:
    def make_dataset(self):
        rng = random.Random(41)
        corpus = random_corpus(rng, max_users=40, max_items=15, max_len=10)
        recs = interactions(
            (s.user, item, 5, ts) for s in corpus for ts, item in enumerate(s.items)
        )
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

    def test_winner_index_is_reused_for_test_split(self, monkeypatch):
        calls = {"count_pairs": 0, "build_neighbor_index": 0}
        for name in calls:
            def counted(*args, _real=getattr(evaluation, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(evaluation, name, counted)
        dataset = self.make_dataset()
        grid = expand_grid("pas", ells=(2, 3), lambdas=(0.5,))
        result = grid_search(dataset, grid)
        assert calls == {"count_pairs": 1, "build_neighbor_index": len(grid)}
        store = count_pairs(dataset.item_universe, dataset.train_codes, dataset.train_offsets, 3)
        rebuilt = build_neighbor_index(store, result.best_params, result.best_measure)
        assert evaluate(dataset, rebuilt, "test") == result.test

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty grid"):
            grid_search(self.make_dataset(), [])

    @pytest.mark.parametrize("top_k", [0, -2])
    def test_top_k_below_one_rejected_before_counting(self, monkeypatch, top_k):
        # every configuration would tie at 0 and the first would win
        monkeypatch.setattr(evaluation, "count_pairs", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ValueError, match=rf"^top_k must be >= 1, got {top_k}$"):
            grid_search(self.make_dataset(), [("bis", SimilarityParams(ell=2))], top_k=top_k)

    def test_expand_grid_defaults(self):
        grid = expand_grid("pas", ells=(5, 10, 20, 40), lambdas=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0))
        assert len(grid) == 72  # 4 ells x 6 lambdas x 3 scalings
        assert all(p.rho == 0.2 and p.w == 2.0 and p.n_neighbors == 20 for _, p in grid)
        assert len(expand_grid("bis")) == 4
        assert len(expand_grid("cosine")) == 4
        assert len(expand_grid("pas_uni")) == 12


def test_report_tsv_layout(tmp_path, hit_and_miss_dataset):
    store = count_corpus(hit_and_miss_dataset.sequences, ell_max=1)
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
