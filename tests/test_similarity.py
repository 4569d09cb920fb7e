import logging
import os
import random
from collections import Counter
import re
import tempfile
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pasrec.similarity as similarity
from conftest import (
    count_corpus,
    directed_pairs,
    full_index,
    gap_histogram,
    pair_rows,
    predicted_score,
    random_corpus,
    row_value,
    uni_values,
    window_scores,
)
from pasrec.domain import MEASURES, SCALINGS, SimilarityParams, UserSequence, make_session_window
from pasrec.ingest import build_dataset
from pasrec.oracle import oracle_bis, oracle_pas, oracle_predict
from pasrec.similarity import (
    RANK_CRITERIA,
    NeighborIndex,
    _bis_low,
    build_neighbor_index,
    count_pairs,
    positive_scores,
    scale,
)
from pasrec.synth import SynthConfig, generate


# users with distinct items drawn from a small catalog, so pairs recur
corpora = st.lists(
    st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True),
    min_size=1, max_size=12,
).map(lambda users: [UserSequence.from_items(f"u{n}", items) for n, items in enumerate(users)])


# few items and short users, so many candidates share a score
tie_heavy_corpora = st.lists(
    st.lists(st.sampled_from("abcde"), min_size=1, max_size=4, unique=True),
    min_size=1, max_size=10,
).map(lambda users: [UserSequence.from_items(f"u{n}", items) for n, items in enumerate(users)])


def users(*sequences):
    return [UserSequence.from_items(f"v{n}", items.split()) for n, items in enumerate(sequences)]


def narrowest(largest):
    """The narrower of int32 and int64 that holds ``largest``."""
    return np.int32 if largest <= 2**31 - 1 else np.int64


def assert_gaps_are_distinct_pair_keys(store, n_sequences):
    """``store.gaps`` is the ascending array of the pair keys that have a
    histogram entry, and starts[j]:starts[j + 1] are the entries of gaps[j]:
    at least one per pair, each a distinct nonzero gap within the band, in
    ascending order, with its users. Each integer column is the narrower of
    int32 and int64 that holds its largest value: n_items**2 for pair keys,
    the ``n_sequences`` counted for counts and unions, the entry count for
    ``starts``."""
    assert store.co.dtype == store.gaps.dtype == narrowest(store.n_items**2)
    for column in (store.co_users, store.gap_union, store.hist_users):
        assert column.dtype == narrowest(n_sequences)
    assert store.starts.dtype == narrowest(len(store.hist_gap))
    assert np.issubdtype(store.hist_gap.dtype, np.signedinteger)
    assert (np.diff(store.gaps) > 0).all()
    lo, hi = np.divmod(store.gaps, store.n_items)
    assert np.array_equal(store.gap_union, store.union(lo, hi))
    assert len(store.starts) == len(store.gaps) + 1 and store.starts[0] == 0
    assert store.starts[-1] == len(store.hist_gap) == len(store.hist_users)
    assert (np.diff(store.starts) > 0).all()
    same_pair = np.repeat(store.gaps, np.diff(store.starts))
    assert (np.diff(store.hist_gap)[np.diff(same_pair) == 0] > 0).all()
    assert ((store.hist_gap != 0) & (np.abs(store.hist_gap) <= store.ell_max)).all()
    assert (store.hist_users > 0).all()


def pair_value(store, measure, i_from, i_to, column=0, **params):
    """Column ``column`` of the pair's row in the full ``measure`` index; 0
    for a pair with no row."""
    rows = pair_rows(full_index(store, SimilarityParams(**params), measure))
    return row_value(rows, i_from, i_to, column)


def co_users(store, item_a, item_b):
    """Users holding both items, read from the co-occurrence columns."""
    a, b = sorted((store.items.index(item_a), store.items.index(item_b)))
    at = np.flatnonzero(store.co == a * store.n_items + b)
    return int(store.co_users[at[0]]) if len(at) else 0


def union(store, item_a, item_b):
    """|U_a ∪ U_b| of an item pair, through ``PairStore.union``."""
    a, b = (np.array([store.items.index(item)]) for item in (item_a, item_b))
    return int(store.union(a, b)[0])


class TestCountPairs:
    def test_single_user(self):
        store = count_corpus([UserSequence.from_items("v", ["a", "b", "c"])], ell_max=5)
        assert gap_histogram(store, "a", "c") == {2: 1}
        assert co_users(store, "a", "c") == 1
        assert union(store, "a", "c") == 1

    def test_toy_corpus(self, toy_corpus):
        store = count_corpus(toy_corpus, ell_max=5)
        assert gap_histogram(store, "a", "b") == {1: 1, 2: 1, -1: 1}
        assert co_users(store, "a", "b") == 3
        assert union(store, "a", "b") == 3

    @pytest.mark.parametrize("corpus, item_a, item_b, want", [
        (users("a b", "c d", "c d"), "a", "c", 3),
        (users("a b", "c d", "c d"), "b", "d", 3),
        # the key of (c, d) sorts past the last co-occurring pair's
        (users("a b", "c", "d", "d"), "c", "d", 3),
        (users("a b", "c d", "c d"), "c", "c", 2),
        (users("a b", "c d", "c d"), "d", "c", 2),
    ], ids=["a c", "b d", "past the last key", "one item", "co-occurring"])
    def test_union_of_any_pair(self, corpus, item_a, item_b, want):
        store = count_corpus(corpus, ell_max=2)
        assert union(store, item_a, item_b) == want

    def test_gap_column_holds_the_longest_sequence(self):
        # gaps up to 129 do not fit in int8, whatever the band
        items = [f"i{j:03d}" for j in range(130)]
        store = count_corpus([UserSequence.from_items("v", items)], ell_max=200)
        assert store.hist_gap.min() == 1 and store.hist_gap.max() == 129
        assert gap_histogram(store, "i000", "i129") == {129: 1}
        assert gap_histogram(store, "i129", "i000") == {-129: 1}

    @pytest.mark.parametrize("length, ell_max, gap_type", [
        (200, 5, np.int8), (200, 127, np.int8), (200, 128, np.int16), (128, 200, np.int8),
        (129, 200, np.int16),
    ])
    def test_gap_column_holds_the_band(self, length, ell_max, gap_type):
        # the widest gap stored is min(ell_max, length - 1), whose negation,
        # the reverse direction, must fit too
        items = [f"i{j:03d}" for j in range(length)]
        store = count_corpus([UserSequence.from_items("v", items)], ell_max=ell_max)
        band = min(ell_max, length - 1)
        assert store.hist_gap.dtype == gap_type
        assert store.hist_gap.min() == 1 and store.hist_gap.max() == band
        assert gap_histogram(store, items[0], items[band]) == {band: 1}
        assert gap_histogram(store, items[band], items[0]) == {-band: 1}

    def test_disjoint_users_have_no_pairs(self):
        store = count_corpus(
            [UserSequence.from_items("v1", ["a"]), UserSequence.from_items("v2", ["b"])],
            ell_max=5,
        )
        assert len(store.gaps) == 0 and len(store.co) == 0
        assert store.items == ("a", "b")
        # |U_a ∪ U_b| is the sum of the user counts when no user holds both
        assert store.item_users.tolist() == [1, 1]

    def test_gap_band_limits_histogram_not_co_counts(self):
        corpus = [UserSequence.from_items("v", ["a", "b", "c", "d"])]
        store = count_corpus(corpus, ell_max=1)
        assert gap_histogram(store, "a", "d") == {}
        assert co_users(store, "a", "d") == 1
        assert union(store, "a", "d") == 1
        # a pair that co-occurs only beyond ell_max has no bis, pas or pas_uni
        # row, and the oracle gives it 0; cosine counts it at any distance
        params = SimilarityParams(ell=1, rho=0.5, lam=0.5, n_neighbors=3)
        for i_from, i_to in (("a", "d"), ("d", "a")):
            for measure in ("bis", "pas", "pas_uni"):
                assert (i_from, i_to) not in pair_rows(full_index(store, params, measure))
            assert oracle_bis(corpus, i_from, i_to, 1, 0.5) == 0.0
            assert oracle_pas(corpus, i_from, i_to, params, 1) == 0.0
            assert pair_rows(full_index(store, params, "cosine"))[i_from, i_to].tolist() == [1.0]

    def test_directed_view_negates_gaps(self, toy_corpus):
        store = count_corpus(toy_corpus, ell_max=5)
        assert gap_histogram(store, "b", "a") == {-1: 1, -2: 1, 1: 1}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_user_order_does_not_change_store_or_index(self, data):
        corpus = data.draw(corpora)
        shuffled = data.draw(st.permutations(corpus))
        ell = data.draw(st.integers(1, 5))
        stores = [count_corpus(c, ell_max=ell) for c in (corpus, shuffled)]
        assert stores[0].items == stores[1].items
        for field in ("item_users", "co", "co_users", "gaps", "gap_union", "starts", "hist_gap",
                      "hist_users"):
            assert getattr(stores[0], field).tolist() == getattr(stores[1], field).tolist()
        params = SimilarityParams(ell=ell, rho=0.5, lam=0.5, scaling="h_b", n_neighbors=2)
        with tempfile.TemporaryDirectory() as tmp:
            for measure in MEASURES:
                saved = []
                for n, store in enumerate(stores):
                    path = os.path.join(tmp, f"{measure}{n}.idx")
                    build_neighbor_index(store, params, measure).save(path)
                    with open(path, "rb") as fh:
                        saved.append(fh.read())
                assert saved[0] == saved[1]

    def test_gaps_are_the_distinct_pair_keys_of_the_histograms(self):
        rng = random.Random(19)
        for trial in range(12):
            corpus = random_corpus(rng)
            assert_gaps_are_distinct_pair_keys(count_corpus(corpus, ell_max=1 + trial % 6), len(corpus))

    @pytest.mark.parametrize("corpus, entries, gaps", [
        ([], 0, []),
        (users("a", "b", "a"), 0, []),
        (users("a b"), 1, [1]),
        (users("a b", "b a", "a b"), 2, [1]),  # gaps +1 and -1 of one pair
    ], ids=["empty corpus", "no pair in the band", "one pair", "one pair both ways"])
    def test_gaps_of_a_store_with_at_most_one_pair(self, corpus, entries, gaps):
        store = count_corpus(corpus, ell_max=2)
        assert len(store.hist_gap) == entries
        assert store.gaps.tolist() == gaps
        assert_gaps_are_distinct_pair_keys(store, len(corpus))

    def test_unknown_items_scorable(self, toy_corpus):
        store = count_corpus(toy_corpus, ell_max=5)
        assert "zz" not in store.items
        assert store.item_users[store.items.index("a")] == 3  # |U_a ∪ U_zz| is |U_a|
        assert pair_value(store, "bis", "a", "zz", ell=2, rho=0.2) == 0.0
        assert oracle_bis(toy_corpus, "a", "zz", 2, 0.2) == 0.0
        # an item never observed scores 0, as the oracle predicts
        params = SimilarityParams(ell=2, rho=0.2, lam=0.5, n_neighbors=20)
        window = make_session_window(toy_corpus[0], params.k)
        for measure in MEASURES:
            index = build_neighbor_index(store, params, measure)
            assert predicted_score(window, "zz", index) == 0.0
            assert oracle_predict(toy_corpus, "v1", "zz", params, measure) == 0.0


class TestScale:
    def test_h_b_divides(self):
        assert scale(5, "h_b", 2.0) == 2.5

    def test_h_c_floors(self):
        assert scale(5, "h_c", 2.0) == 4

    def test_h_a_identity_at_zero(self):
        assert scale(0, "h_a", 2.0) == 0

    def test_w_must_exceed_one(self):
        with pytest.raises(ValueError, match="w"):
            scale(3, "h_b", 1.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            scale(-1, "h_a", 2.0)


@pytest.fixture
def toy_store(toy_corpus):
    return count_corpus(toy_corpus, ell_max=5)


class TestBis:
    def test_toy_value(self, toy_store):
        assert pair_value(toy_store, "bis", "a", "b", ell=2, rho=0.2) == pytest.approx(2 / 3, abs=1e-15)

    def test_larger_reverse_factor_admits_reversed_pair(self, toy_store):
        assert pair_value(toy_store, "bis", "a", "b", ell=2, rho=0.5) == 1.0

    def test_never_co_occurring_is_zero(self):
        corpus = users("a", "a", "b", "b")
        store = count_corpus(corpus, ell_max=2)
        assert pair_value(store, "bis", "a", "b", ell=2, rho=0.2) == 0.0
        assert oracle_bis(corpus, "a", "b", 2, 0.2) == 0.0

    def test_zero_denominator_is_zero(self, toy_store, toy_corpus):
        # neither item observed: no row, and an empty union for the oracle
        assert pair_value(toy_store, "bis", "yy", "zz", ell=2, rho=0.2) == 0.0
        assert oracle_bis(toy_corpus, "yy", "zz", 2, 0.2) == 0.0


class TestPasUni:
    def test_toy_values(self, toy_store):
        for t, want in ((1, 1 / 3), (2, 2 / 3)):
            value = pair_value(toy_store, "pas_uni", "a", "b", t, ell=2, scaling="h_a", w=2.0)
            assert value == pytest.approx(want, abs=1e-15)

    def test_no_forward_mass_is_zero(self):
        # b precedes a for both users holding the two: a -> b has gaps {-1: 2}
        store = count_corpus(users("b a", "b a", "a"), ell_max=2)
        rows = pair_rows(full_index(store, SimilarityParams(ell=2), "pas_uni"))
        assert rows["a", "b"][2] == 0.0

    def test_t_out_of_range_rejected(self, toy_store, toy_corpus):
        # an index holds a value for t = 1..k only: the scorer rejects a
        # position outside 1..k, such as a k=3 window's L=3
        index = build_neighbor_index(toy_store, SimilarityParams(ell=2), "pas_uni")
        assert index.values.shape[1] == 1 + 2
        with pytest.raises(ValueError, match=r"outside 1\.\.2"):
            window_scores([make_session_window(toy_corpus[0], 3)], index)
        for position in (0, 3):
            row, nbr = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
            with pytest.raises(ValueError, match=r"outside 1\.\.2"):
                positive_scores(row, nbr, np.array([position]), 1, index)


class TestPas:
    def test_toy_value(self, toy_store):
        value = pair_value(toy_store, "pas", "a", "b", 2, ell=2, rho=0.2, lam=0.5, scaling="h_a")
        assert value == pytest.approx(2 / 3, abs=1e-15)

    def test_lam_zero_reduces_to_bis_exactly(self, toy_store):
        bis = pair_value(toy_store, "bis", "a", "b", ell=2, rho=0.2)
        for t in (1, 2):
            assert pair_value(toy_store, "pas", "a", "b", t, ell=2, rho=0.2, lam=0.0) == bis

    def test_lam_one_reduces_to_pas_uni_exactly(self, toy_store):
        pas = pair_value(toy_store, "pas", "a", "b", 1, ell=2, rho=0.2, lam=1.0)
        assert pas == pair_value(toy_store, "pas_uni", "a", "b", 1, ell=2, scaling="h_a", w=2.0)


class TestCosine:
    def test_full_overlap(self):
        store = count_corpus(users("a b", "a b", "b a"), ell_max=2)
        assert pair_value(store, "cosine", "a", "b", ell=2) == 1.0

    def test_partial_overlap(self):
        store = count_corpus(users("a b", "b", "b", "b"), ell_max=2)
        assert pair_value(store, "cosine", "a", "b", ell=2) == 0.5

    def test_disjoint(self):
        store = count_corpus(users("a", "a", "b", "b", "b"), ell_max=2)
        assert pair_value(store, "cosine", "a", "b", ell=2) == 0.0

    def test_zero_counts(self, toy_store):
        assert pair_value(toy_store, "cosine", "zz", "a", ell=2) == 0.0


class TestNeighborIndex:
    def test_all_candidates_kept_when_under_cap(self, toy_corpus):
        store = count_corpus(toy_corpus, ell_max=2)
        params = SimilarityParams(ell=2, rho=0.2, lam=0.0, n_neighbors=20)
        index = build_neighbor_index(store, params, "bis")
        row = index.entries[index.item_index["b"]]
        assert len(row) == 2
        scores = [value for _, value, _ in row]
        assert scores == sorted(scores, reverse=True)

    def test_equal_scores_prefer_smaller_identifier(self):
        # a -> x and b -> x both score 1/2; the single slot goes to a
        corpus = [
            UserSequence.from_items("v1", ["a", "x"]),
            UserSequence.from_items("v2", ["b", "x"]),
        ]
        store = count_corpus(corpus, ell_max=2)
        params = SimilarityParams(ell=2, rho=0.2, lam=0.0, n_neighbors=1)
        index = build_neighbor_index(store, params, "bis")
        row = index.entries[index.item_index["x"]]
        assert [(index.items[nbr], value) for nbr, value, _ in row] == [("a", 0.5)]

    def test_pas_entries_carry_k_values(self, toy_corpus):
        store = count_corpus(toy_corpus, ell_max=5)
        params = SimilarityParams(ell=5, rho=0.2, lam=0.5, n_neighbors=20)
        index = build_neighbor_index(store, params, "pas")
        for row in index.entries:
            for _, _, vector in row:
                assert len(vector) == 5

    def test_bis_entries_have_no_vector(self, toy_corpus):
        store = count_corpus(toy_corpus, ell_max=2)
        index = build_neighbor_index(store, SimilarityParams(ell=2, lam=0.0), "bis")
        assert all(vector == () for row in index.entries for _, _, vector in row)

    def test_rejects_narrow_store(self, toy_corpus):
        store = count_corpus(toy_corpus, ell_max=2)
        with pytest.raises(ValueError, match="band"):
            build_neighbor_index(store, SimilarityParams(ell=3), "pas")

    def test_round_trip_is_bit_exact(self, tmp_path, toy_corpus):
        store = count_corpus(toy_corpus, ell_max=3)
        params = SimilarityParams(ell=3, rho=0.2, lam=0.5, scaling="h_b", w=2.0, n_neighbors=4)
        for measure in ("bis", "pas", "pas_uni", "cosine"):
            index = build_neighbor_index(store, params, measure)
            path = tmp_path / f"{measure}.tsv"
            index.save(str(path))
            assert NeighborIndex.load(str(path)) == index

    @pytest.mark.parametrize("measure, width", [("bis", 1), ("pas", 4), ("pas_uni", 4), ("cosine", 1)])
    def test_arrays_hold_rows_by_target_then_rank(self, measure, width):
        corpus = random_corpus(random.Random(5), max_users=30, max_items=12, max_len=8)
        params = SimilarityParams(ell=3, lam=0.5, n_neighbors=3)
        index = build_neighbor_index(count_corpus(corpus, ell_max=3), params, measure)
        assert index.targets.dtype == index.nbrs.dtype == "int64"
        assert index.values.dtype == "float64" and index.values.shape == (len(index.targets), width)
        rows = [(target, nbr, value, tuple(vector))
                for target, row in enumerate(index.entries) for nbr, value, vector in row]
        assert rows == [(t, n, v[0], tuple(v[1:])) for t, n, v in
                        zip(index.targets.tolist(), index.nbrs.tolist(), index.values.tolist())]
        assert index.targets.tolist() == sorted(index.targets.tolist())

    @pytest.mark.parametrize("measure", ["bis", "pas"])
    def test_shuffled_targets_fail_at_first_out_of_order_line(self, tmp_path, measure):
        corpus = random_corpus(random.Random(11), max_users=40, max_items=15, max_len=8)
        params = SimilarityParams(ell=3, lam=0.5, n_neighbors=4)
        index = build_neighbor_index(count_corpus(corpus, ell_max=3), params, measure)
        path = tmp_path / "index.tsv"
        index.save(str(path))
        text = path.read_text()
        header, entries = text.splitlines()[:5], text.splitlines()[5:]
        # interleave the targets' lines at random, each target's in its saved order
        by_target: dict[str, list[str]] = {}
        for line in entries:
            by_target.setdefault(line.split("\t")[0], []).append(line)
        picks = [target for target, lines in by_target.items() for _ in lines]
        random.Random(3).shuffle(picks)
        shuffled = [by_target[target].pop(0) for target in picks]
        assert len(by_target) > 1 and shuffled != entries
        path.write_text("\n".join(header + shuffled) + "\n")
        # save writes the entries by target, so the first line whose target
        # sorts below the one above fails
        targets = [int(line.split("\t")[0]) for line in shuffled]
        row = next(row for row in range(1, len(targets)) if targets[row] < targets[row - 1])
        with pytest.raises(ValueError) as exc:
            NeighborIndex.load(str(path))
        assert str(exc.value) == (f"{path}:{row + 6}: target {targets[row]} below target "
                                  f"{targets[row - 1]} of the line above: entries ascend by target")

    @settings(max_examples=30, deadline=None)
    @given(
        corpus=corpora,
        ell=st.integers(1, 5),
        rho=st.floats(0.01, 0.99),
        lam=st.floats(0.0, 1.0),
        scaling=st.sampled_from(SCALINGS),
        w=st.floats(1.01, 4.0),
        n_neighbors=st.integers(1, 4),
    )
    def test_save_load_round_trips_exactly(self, corpus, ell, rho, lam, scaling, w, n_neighbors):
        store = count_corpus(corpus, ell_max=ell)
        params = SimilarityParams(ell=ell, rho=rho, lam=lam, scaling=scaling, w=w,
                                  n_neighbors=n_neighbors)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "first.idx"), os.path.join(tmp, "second.idx")
            for measure in MEASURES:
                for rank_by in RANK_CRITERIA:
                    index = build_neighbor_index(store, params, measure, rank_by=rank_by)
                    index.save(first)
                    loaded = NeighborIndex.load(first)
                    assert loaded == index
                    loaded.save(second)
                    with open(first, "rb") as fa, open(second, "rb") as fb:
                        assert fa.read() == fb.read()

    @pytest.mark.parametrize(
        "measure, line, message, last",
        [
            ("bis", "-1\t0\t0.5\t", "outside", False),
            ("bis", "9999\t0\t0.5\t", "outside", False),
            ("bis", "0\t9999\t0.5\t", "outside", False),
            ("bis", "0\t-1\t0.5\t", "outside", False),
            ("bis", "0\t1", "expected 4 tab-separated fields, got 2", False),
            ("bis", "0\t1\t0.5\t\textra", "expected 4 tab-separated fields, got 5", False),
            ("bis", "zero\t1\t0.5\t", "invalid literal", False),
            ("bis", "1\t1\t-0.25\t", r"-0\.25 outside \[0, inf\)", False),
            ("bis", "1\t1\tnan\t", r"nan outside \[0, inf\)", False),
            ("bis", "1\t1\tinf\t", r"inf outside \[0, inf\)", False),
            ("pas", "1\t1\t0.5\t0.5,nan", r"nan outside \[0, inf\)", False),
            ("pas", "1\t1\t0.5\t-0.5,0.5", r"-0\.5 outside \[0, inf\)", False),
            ("pas", "1\t1\t0.5\t0.5", "vector of 1 values, pas stores 2", False),
            ("bis", "1\t1\t0.5\t0.5", "vector of 1 values, bis stores 0", False),
            ("bis", "0\t1\t0.5\t", "repeated entry for target 0, neighbor 1", False),
            ("bis", "9999\t0\t0.5\t", "outside", True),
            ("bis", "0\t1\tnope\t", "could not convert", True),
            ("bis", "1\t1\t-0.25\t", r"-0\.25 outside \[0, inf\)", True),
            ("bis", "1\t1\tinf\t", r"inf outside \[0, inf\)", True),
            ("pas", "1\t1\t0.5\t0.5,nan", r"nan outside \[0, inf\)", True),
            ("pas", "1\t1\t0.5\t0.5", "vector of 1 values, pas stores 2", True),
            ("bis", "0\t1\t0.5\t", "repeated entry for target 0, neighbor 1", True),
            ("pas", "0\t1\t0.5\t0.5,0.5", "repeated entry for target 0, neighbor 1", True),
        ],
        ids=["negative-target", "large-target", "large-neighbor", "negative-neighbor",
             "two-fields", "five-fields", "non-integer-target", "negative-value", "nan-value",
             "inf-value", "nan-in-vector", "negative-in-vector",
             "short-vector", "vector-for-bis", "repeated-pair",
             "last-large-target", "last-non-float-value", "last-negative-value",
             "last-inf-value", "last-nan-in-vector", "last-short-vector",
             "last-repeated-pair", "last-repeated-pas-pair"],
    )
    def test_load_rejects_bad_entry_with_location(self, tmp_path, toy_corpus, measure, line,
                                                  message, last):
        store = count_corpus(toy_corpus, ell_max=2)
        index = build_neighbor_index(store, SimilarityParams(ell=2, lam=0.0), measure)
        path = tmp_path / "index.tsv"
        index.save(str(path))
        lines = path.read_text().splitlines()
        # the second entry line, or after the last, where the whole-file
        # checks must still name this line
        lines.insert(len(lines) if last else 6, line)
        path.write_text("\n".join(lines) + "\n")
        lineno = len(lines) if last else 7
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: .*{message}"):
            NeighborIndex.load(str(path))

    @pytest.mark.parametrize(
        "measure, line, text",
        [
            ("bis", "0\t 1_9\t0.5\t", " 1_9"),
            ("bis", "+1\t0\t0.5\t", "+1"),
            ("bis", "0\t019\t0.5\t", "019"),
            ("bis", "-0\t1\t0.5\t", "-0"),
            ("bis", "0\t1\t+0.625\t", "+0.625"),
            ("bis", "0\t1\t0.6_25\t", "0.6_25"),
            ("pas", "0\t1\t0.5\t0.5,0.6_25", "0.6_25"),
            ("bis", "0\t 1_9\t +0.6_25 \t", " 1_9"),
        ],
        ids=["id-underscore", "id-plus", "id-leading-zero", "id-minus-zero", "value-plus",
             "value-underscore", "vector-underscore", "spaces-everywhere"],
    )
    def test_load_rejects_non_canonical_number_with_location(self, tmp_path, toy_corpus,
                                                             measure, line, text):
        index = build_neighbor_index(count_corpus(toy_corpus, ell_max=2),
                                     SimilarityParams(ell=2, lam=0.0), measure)
        path = tmp_path / "index.tsv"
        index.save(str(path))
        lines = path.read_text().splitlines()
        lines.insert(6, line)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:7: "
                                             f"non-canonical number {re.escape(repr(text))}"):
            NeighborIndex.load(str(path))

    @pytest.mark.parametrize("line, message", [("1\t1\tnan\t", "nan outside"),
                                               ("0\t1\t0.5\t", "repeated entry")],
                             ids=["nan-value", "repeated-pair"])
    def test_load_names_the_first_of_two_bad_entries(self, tmp_path, toy_corpus, line, message):
        index = build_neighbor_index(count_corpus(toy_corpus, ell_max=2),
                                     SimilarityParams(ell=2, lam=0.0), "bis")
        path = tmp_path / "index.tsv"
        index.save(str(path))
        lines = path.read_text().splitlines()
        # the same bad line third among the entries and after the last
        lines[7:7] = [line]
        path.write_text("\n".join(lines + [line]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:8: {message}"):
            NeighborIndex.load(str(path))

    @pytest.mark.parametrize("measure, first, message, second", [
        ("pas", "1\t1\t0.5\t0.5", "vector of 1 values, pas stores 2", "0\t1\t0.5"),
        ("bis", "0\t1\t+0.5\t", r"non-canonical number '\+0.5'", "zero\t1\t0.5\t"),
        ("bis", "0\t9999\t0.5\t", "item id outside", "0\tone\t0.5\t"),
        ("pas", "0\t1\t0.5\t0.5,nope", "could not convert", "-1\t0\t0.5\t0.5,0.5"),
    ], ids=["short-vector-then-three-fields", "plus-value-then-word-target",
            "large-neighbor-then-word-neighbor", "word-cell-then-negative-target"])
    def test_load_names_the_first_bad_line_whatever_it_fails(self, tmp_path, toy_corpus, measure,
                                                             first, message, second):
        index = build_neighbor_index(count_corpus(toy_corpus, ell_max=2),
                                     SimilarityParams(ell=2, lam=0.0), measure)
        path = tmp_path / "index.tsv"
        index.save(str(path))
        lines = path.read_text().splitlines()
        # line 7 fails a later check than line 8 does
        lines[6:6] = [first, second]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:7: .*{message}"):
            NeighborIndex.load(str(path))

    @pytest.mark.parametrize("measure", MEASURES)
    def test_load_memos_that_start_over_round_trip(self, tmp_path, monkeypatch, measure):
        monkeypatch.setattr(similarity, "_MEMO_LIMIT", 3)
        corpus = random_corpus(random.Random(5), max_users=30, max_items=12, max_len=8)
        index = build_neighbor_index(count_corpus(corpus, ell_max=3),
                                     SimilarityParams(ell=3, lam=0.5, n_neighbors=3), measure)
        # more distinct ids and values than a memo holds
        assert len(np.unique(index.targets)) > 3 and len(np.unique(index.values)) > 3
        first, second = tmp_path / "first.tsv", tmp_path / "second.tsv"
        index.save(str(first))
        loaded = NeighborIndex.load(str(first))
        assert loaded == index
        loaded.save(str(second))
        assert first.read_bytes() == second.read_bytes()
        # a bad line after the memos have started over still names its line
        lines = first.read_text().splitlines()
        target, _, _, vector = lines[-1].split("\t")
        lines.append(f"{target}\t0\t0.6_25\t{vector}")
        first.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(first))}:{len(lines)}: "
                                             "non-canonical number '0.6_25'"):
            NeighborIndex.load(str(first))

    @staticmethod
    def _one_neighbor_index(tmp_path):
        """A saved bis index with one neighbor per item over items a..d, and
        an item that is not target 0's neighbor."""
        corpus = [UserSequence.from_items(f"u{n}", items.split())
                  for n, items in enumerate(["a b c d", "a b d", "c d a", "b a"])]
        index = build_neighbor_index(count_corpus(corpus, ell_max=3),
                                     SimilarityParams(ell=3, n_neighbors=1), "bis")
        (nbr, _, _), = index.entries[0]
        other = next(item for item in range(1, len(index.items)) if item != nbr)
        path = tmp_path / "index.tsv"
        index.save(str(path))
        return path, other

    def test_load_rejects_self_pair_with_location(self, tmp_path):
        path, other = self._one_neighbor_index(tmp_path)
        lines = path.read_text().splitlines()
        # two rows for target 0 as well, but the self-pair check runs first
        lines += [f"0\t{other}\t0.25\t", "0\t0\t0.5\t"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{len(lines)}: "
                                             "item 0 is its own neighbor$"):
            NeighborIndex.load(str(path))

    def test_load_rejects_more_rows_than_n_neighbors_with_location(self, tmp_path):
        path, other = self._one_neighbor_index(tmp_path)
        lines = path.read_text().splitlines()
        # the extra row goes first among the entries, so the saved row for
        # target 0 is the one past the cap
        lines.insert(5, f"0\t{other}\t0.25\t")
        path.write_text("\n".join(lines) + "\n")
        saved_row = next(n for n, line in enumerate(lines, start=1)
                         if n > 6 and line.startswith("0\t"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{saved_row}: "
                                             "target 0 has more than n_neighbors=1 entries$"):
            NeighborIndex.load(str(path))

    @staticmethod
    def _hand_index(values, n_items=3):
        """A pas index over n_items items with every other item as neighbor,
        holding the given [entries x (1 + k)] values row by row."""
        pairs = [(t, n) for t in range(n_items) for n in range(n_items) if n != t]
        values = np.asarray(values, dtype=np.float64)[:len(pairs)]
        targets, nbrs = (np.array(column, dtype=np.int64) for column in zip(*pairs))
        params = SimilarityParams(ell=values.shape[1] - 1, n_neighbors=n_items - 1)
        return NeighborIndex("pas", params, tuple(f"i{n}" for n in range(n_items)),
                             targets, nbrs, values)

    @pytest.mark.parametrize("make", ["edge", "distinct"])
    def test_save_load_save_is_byte_identical(self, tmp_path, make):
        if make == "edge":
            # signed zero, the smallest subnormal, exponent notation either
            # way, and one ulp above 1
            edge = [-0.0, 5e-324, 1e-05, 1e16, 1.0000000000000002, 0.0, 1.0]
            values = [[edge[(row + col) % len(edge)] for col in range(4)] for row in range(6)]
            index = self._hand_index(values)
        else:
            index = self._hand_index(np.random.default_rng(7).random((1200, 11)), n_items=35)
            assert len(np.unique(index.values)) == index.values.size
        first, second = tmp_path / "first.tsv", tmp_path / "second.tsv"
        index.save(str(first))
        loaded = NeighborIndex.load(str(first))
        assert loaded == index
        assert np.array_equal(np.signbit(loaded.values), np.signbit(index.values))
        loaded.save(str(second))
        assert first.read_bytes() == second.read_bytes()
        # the same lines the per-value repr gives
        text = first.read_text().splitlines()[5:]
        assert text == [
            f"{t}\t{n}\t{v!r}\t{','.join(map(repr, vec))}"
            for t, n, (v, *vec) in zip(index.targets.tolist(), index.nbrs.tolist(),
                                       index.values.tolist())
        ]

    def test_last_line_without_newline_fails_at_its_line(self, tmp_path, toy_corpus):
        index = build_neighbor_index(count_corpus(toy_corpus, ell_max=2),
                                     SimilarityParams(ell=2), "pas")
        path = tmp_path / "index.tsv"
        index.save(str(path))
        path.write_text(path.read_text().removesuffix("\n"))
        lineno = len(path.read_text().splitlines())
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: line ends without a newline$"):
            NeighborIndex.load(str(path))

    def test_items_line_without_newline_fails_at_its_line(self, tmp_path):
        path = tmp_path / "index.tsv"
        NeighborIndex("bis", SimilarityParams(ell=2), ("a", "b"), np.zeros(0, dtype=np.int64),
                      np.zeros(0, dtype=np.int64), np.zeros((0, 1))).save(str(path))
        path.write_text(path.read_text().removesuffix("\n"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:5: line ends without a newline$"):
            NeighborIndex.load(str(path))

    def test_blank_line_after_last_entry_fails_at_its_line(self, tmp_path, toy_corpus):
        index = build_neighbor_index(count_corpus(toy_corpus, ell_max=2),
                                     SimilarityParams(ell=2), "pas")
        path = tmp_path / "index.tsv"
        index.save(str(path))
        path.write_text(path.read_text() + "\n")
        lineno = len(path.read_text().splitlines())
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: "
                                             "expected 4 tab-separated fields, got 1$"):
            NeighborIndex.load(str(path))

    @pytest.mark.parametrize("line, message", [
        ("0\t1", "expected 4 tab-separated fields, got 2"),
        ("0\tone\t0.5\t0.5,0.5,0.5", "invalid literal"),
        ("0\t1\t0.5\t0.5,nan,0.5", r"nan outside \[0, inf\)"),
        ("0\t1\t0.5\t0.5,0.5,0.5", "repeated entry for target 0, neighbor 1"),
    ], ids=["field-count", "int-parse", "nan-value", "repeated-pair"])
    def test_bad_line_past_the_first_block_names_its_line(self, tmp_path, line, message):
        # 100 items with 99 neighbors each: 9900 entry lines, more than one block
        index = self._hand_index(np.full((9900, 4), 0.5), n_items=100)
        path = tmp_path / "index.tsv"
        index.save(str(path))
        lines = path.read_text().splitlines()
        lineno = 9000
        assert lineno > 8192 + 5
        lines.insert(lineno - 1, line)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: .*{message}"):
            NeighborIndex.load(str(path))

    def test_share_rounded_above_one_round_trips(self, tmp_path):
        # a in band before b for all 13 users: at t = k the pas vector holds
        # (0.9 * 13 + 0.1 * 13) / 13, which rounds to one ulp above 1
        corpus = [UserSequence.from_items(f"u{n:02d}", ["a", "b"]) for n in range(13)]
        index = build_neighbor_index(count_corpus(corpus, ell_max=2),
                                     SimilarityParams(ell=2, lam=0.1), "pas")
        assert max(v for row in index.entries for _, _, vec in row for v in vec) > 1.0
        path = str(tmp_path / "index.tsv")
        index.save(path)
        assert NeighborIndex.load(path) == index

    @pytest.mark.parametrize(
        "keep, replace, lineno, message",
        [
            (1, None, 2, "file ends before the #measure header line"),
            (3, None, 4, "file ends before the #params header line"),
            (4, None, 5, "file ends before the #items header line"),
            (1, "#rank_by\tbis", 2, "expected a '#measure<tab>value' header line"),
            (2, "#rank_by bis", 3, "expected a '#rank_by<tab>value' header line"),
            (1, "#measure\tfoo", 2, "unknown measure 'foo'"),
            (2, "#rank_by\tmin_t", 3, "unknown rank_by 'min_t'"),
            (3, '#params\t{"ell": 2,', 4, "Expecting"),
            (3, '#params\t{"ell": 0}', 4, "ell"),
            (3, '#params\t{"colour": 1}', 4, "colour"),
            (3, '#params\t{"ell": 3.0}', 4, "ell must be a positive integer, got 3.0"),
            (3, '#params\t{"ell": 2, "n_neighbors": 5.5}', 4, "n_neighbors must be an integer >= 1, got 5.5"),
            (3, '#params\t{"ell": true}', 4, "ell must be a positive integer, got True"),
            (3, '#params\t{"ell": 2, "lam": true}', 4, "lam must be a real number in [0, 1], got True"),
            (3, '#params\t{"ell": 2, "w": "2"}', 4, "w must be a real number > 1, got '2'"),
            (3, '#params\t{"ell": 2, "rho": null}', 4, "rho must be a real number in (0, 1), got None"),
            (4, "#items\t[0, 1", 5, "Expecting"),
            (4, "#items\t5", 5, "not iterable"),
            (4, '#items\t"ab"', 5, "expected a JSON list of distinct item name strings"),
            (4, '#items\t{"a": 1}', 5, "expected a JSON list of distinct item name strings"),
            (4, '#items\t["a", "a"]', 5, "expected a JSON list of distinct item name strings"),
            (4, "#items\t[1, 2]", 5, "expected a JSON list of distinct item name strings"),
        ],
        ids=["only-magic", "cut-after-rank-by", "cut-after-params", "missing-measure",
             "no-tab", "unknown-measure", "unknown-rank-by", "params-json", "params-rejected",
             "params-unknown-field", "params-ell-float", "params-n-neighbors-float", "params-ell-bool",
             "params-lam-bool", "params-w-string", "params-rho-null", "items-json", "items-not-a-list", "items-a-string",
             "items-an-object", "items-repeated", "items-not-strings"],
    )
    def test_load_rejects_bad_header_with_location(
        self, tmp_path, toy_corpus, keep, replace, lineno, message
    ):
        store = count_corpus(toy_corpus, ell_max=2)
        index = build_neighbor_index(store, SimilarityParams(ell=2, lam=0.0), "bis")
        path = tmp_path / "index.tsv"
        index.save(str(path))
        lines = path.read_text().splitlines()[:keep]
        if replace is not None:
            lines.append(replace)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: .*{re.escape(message)}"):
            NeighborIndex.load(str(path))

    @pytest.mark.parametrize("lineno, edit, byte", [
        (1, lambda line: b"\xff" + line[1:], 0xff),
        (5, lambda line: line.replace(b'"a"', b'"a\xff"'), 0xff),
        (8, lambda line: line + b"\xff", 0xff),
        (8, lambda line: line.replace(b"\t", b"\xc3\t", 1), 0xc3),
        # past the first block that the text reader decodes
        (2006, lambda line: line + b"\xff", 0xff),
    ], ids=["magic-line", "header-line", "entry-line", "cut-two-byte-sequence", "after-2000-lines"])
    def test_load_rejects_byte_not_utf8_with_location(self, tmp_path, toy_corpus, lineno, edit, byte):
        index = build_neighbor_index(count_corpus(toy_corpus, ell_max=2),
                                     SimilarityParams(ell=2, lam=0.0), "bis")
        path = tmp_path / "index.tsv"
        index.save(str(path))
        lines = path.read_bytes().splitlines()
        # repeated entries fail only once every line is read
        lines += [lines[5]] * max(0, lineno - len(lines))
        lines[lineno - 1] = edit(lines[lineno - 1])
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: "
                                             f"byte 0x{byte:02x} is not valid UTF-8$"):
            NeighborIndex.load(str(path))

    @pytest.mark.parametrize("edits, lineno, message", [
        ({7: b"0\t1", 8: b"0\t1\t0.5\t\xff"}, 7, "expected 4 tab-separated fields, got 2"),
        ({7: b"0\t1\t0.5\t\xff", 8: b"0\t1"}, 7, "byte 0xff is not valid UTF-8"),
        ({3: b"#rank_by\tmin_t", 8: b"0\t1\t0.5\t\xff"}, 3, "unknown rank_by 'min_t'"),
        ({3: b"#rank_by\tmin_t\xff", 7: b"0\t1"}, 3, "byte 0xff is not valid UTF-8"),
    ], ids=["fields-then-byte", "byte-then-fields", "header-value-then-byte", "header-byte-first"])
    def test_load_names_the_first_bad_line_beside_a_byte_not_utf8(self, tmp_path, toy_corpus, edits,
                                                                  lineno, message):
        index = build_neighbor_index(count_corpus(toy_corpus, ell_max=2),
                                     SimilarityParams(ell=2, lam=0.0), "bis")
        path = tmp_path / "index.tsv"
        index.save(str(path))
        lines = path.read_bytes().splitlines()
        assert len(lines) >= 8
        for n, line in edits.items():
            lines[n - 1] = line
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: {re.escape(message)}"):
            NeighborIndex.load(str(path))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_bad_index_read_from_a_pipe_names_its_line(self, tmp_path, toy_corpus):
        index = build_neighbor_index(count_corpus(toy_corpus, ell_max=2),
                                     SimilarityParams(ell=2, lam=0.0), "bis")
        path = tmp_path / "index.tsv"
        index.save(str(path))
        lines = path.read_text().splitlines()
        lines.insert(6, "0\t1")
        # a pipe is read once: the bad line is named without reading it again
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=("\n".join(lines) + "\n",), daemon=True)
        writer.start()
        try:
            with pytest.raises(ValueError, match=f"^{re.escape(str(fifo))}:7: "
                                                 "expected 4 tab-separated fields, got 2$"):
                NeighborIndex.load(str(fifo))
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_failed_save_leaves_the_old_file_and_no_other(self, tmp_path, toy_corpus, monkeypatch):
        store = count_corpus(toy_corpus, ell_max=2)
        old = build_neighbor_index(store, SimilarityParams(ell=2, lam=0.0), "bis")
        path = tmp_path / "index.tsv"
        old.save(str(path))
        before = path.read_bytes()
        new = build_neighbor_index(store, SimilarityParams(ell=2, lam=0.5), "pas")
        # one entry line per block, and the second block fails to format
        monkeypatch.setattr(similarity, "_BLOCK_LINES", 1)
        column_stack, calls = np.column_stack, []

        def failing_column_stack(arrays):
            calls.append(1)
            if len(calls) == 2:
                raise OSError("no space left on device")
            return column_stack(arrays)

        monkeypatch.setattr(similarity.np, "column_stack", failing_column_stack)
        with pytest.raises(OSError, match="no space left"):
            new.save(str(path))
        assert len(calls) == 2
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["index.tsv"]
        monkeypatch.undo()
        new.save(str(path))
        assert NeighborIndex.load(str(path)) == new
        assert os.listdir(tmp_path) == ["index.tsv"]
        # the permissions of any new file, not those of a private temporary one
        (tmp_path / "plain.txt").write_text("")
        assert path.stat().st_mode == (tmp_path / "plain.txt").stat().st_mode

    def test_rejects_foreign_artifact(self, tmp_path):
        path = tmp_path / "bogus.tsv"
        path.write_text("#something-else\t1\n")
        with pytest.raises(ValueError, match="artifact"):
            NeighborIndex.load(str(path))

    def test_rejects_magic_line_without_version(self, tmp_path):
        path = tmp_path / "cut.tsv"
        path.write_text("#pasrec-index\n")
        with pytest.raises(ValueError, match="artifact"):
            NeighborIndex.load(str(path))

    def test_stored_values_in_unit_interval(self):
        rng = random.Random(17)
        corpus = random_corpus(rng)
        store = count_corpus(corpus, ell_max=4)
        params = SimilarityParams(ell=4, rho=0.2, lam=0.5, n_neighbors=6)
        for measure in ("bis", "pas", "pas_uni", "cosine"):
            index = build_neighbor_index(store, params, measure)
            for row in index.entries:
                assert len(row) <= params.n_neighbors
                for _, value, vector in row:
                    assert 0.0 <= value <= 1.0
                    assert all(0.0 <= v <= 1.0 for v in vector)

    def test_stored_vectors_non_decreasing_for_identity_scaling(self):
        rng = random.Random(19)
        corpus = random_corpus(rng)
        store = count_corpus(corpus, ell_max=4)
        params = SimilarityParams(ell=4, rho=0.2, lam=1.0, scaling="h_a", n_neighbors=6)
        index = build_neighbor_index(store, params, "pas_uni")
        for row in index.entries:
            for _, _, vector in row:
                assert all(x <= y for x, y in zip(vector, vector[1:]))


class TestSelectionMemo:
    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("rank_by", RANK_CRITERIA)
    def test_index_from_a_used_store_equals_a_fresh_one(self, measure, rank_by):
        rng = random.Random(MEASURES.index(measure) * 2 + RANK_CRITERIA.index(rank_by))
        corpus = random_corpus(rng, max_users=30, max_items=15, max_len=10)
        grid = [SimilarityParams(ell=ell, rho=rho, lam=lam, scaling=scaling, w=w, n_neighbors=n)
                for ell in (2, 3) for rho in (0.2, 0.5) for lam in (0.0, 0.3, 1.0)
                for scaling in SCALINGS for w in (1.5, 2.0, 3.0) for n in (2, 4)]
        configs = rng.sample(grid, 30)
        # neighbors in the shuffled order share their selection now and then
        configs += [configs[-1], replace(configs[-1], scaling="h_c", w=2.5)]
        store = count_corpus(corpus, ell_max=3)
        for params in configs:
            used = build_neighbor_index(store, params, measure, rank_by=rank_by)
            fresh = build_neighbor_index(count_corpus(corpus, ell_max=3), params, measure,
                                         rank_by=rank_by)
            assert used == fresh
            assert used.values.dtype == fresh.values.dtype == np.float64

    def test_builds_of_one_ell_share_one_selection(self, monkeypatch):
        calls = []
        real = similarity._select
        monkeypatch.setattr(similarity, "_select", lambda *args: calls.append(args) or real(*args))
        store = count_corpus(random_corpus(random.Random(3)), ell_max=4)
        for ell in (3, 4):
            for scaling in SCALINGS:
                build_neighbor_index(store, SimilarityParams(ell=ell, scaling=scaling), "pas")
        assert len(calls) == 2
        # the one slot holds the last selection only
        build_neighbor_index(store, SimilarityParams(ell=4, scaling="h_c", w=3.0), "pas")
        assert len(calls) == 2
        # pas ranked by max_t reads lam; bis ranking and a new n_neighbors select again
        build_neighbor_index(store, SimilarityParams(ell=4, lam=0.5), "pas", rank_by="max_t")
        build_neighbor_index(store, SimilarityParams(ell=4, lam=0.5, w=3.0), "pas", rank_by="max_t")
        build_neighbor_index(store, SimilarityParams(ell=4, lam=0.6), "pas", rank_by="max_t")
        build_neighbor_index(store, SimilarityParams(ell=4, lam=0.6, n_neighbors=3), "pas",
                             rank_by="max_t")
        assert len(calls) == 5

    def test_indexes_cannot_change_the_shared_selection(self, toy_corpus):
        store = count_corpus(toy_corpus, ell_max=2)
        index = build_neighbor_index(store, SimilarityParams(ell=2), "cosine")
        with pytest.raises(ValueError, match="read-only"):
            index.nbrs[0] = 2
        with pytest.raises(ValueError, match="read-only"):
            index.values[0, 0] = 1.0

    @pytest.mark.parametrize("pas_rank_by, lam, measure", [("bis", 0.5, "bis"), ("max_t", 1.0, "pas_uni")],
                             ids=["bis-and-pas-by-bis", "pas_uni-and-pas-by-max_t-at-lam-1"])
    @pytest.mark.parametrize("rank_by", RANK_CRITERIA)
    @pytest.mark.parametrize("pas_first", [True, False], ids=["pas-first", "pas-second"])
    def test_measures_of_one_ranking_share_one_selection(self, monkeypatch, pas_rank_by, lam, measure,
                                                         rank_by, pas_first):
        # bis ranks as pas by bis does, and pas_uni as pas by max_t at lam 1;
        # neither reads rank_by, and no ranking reads the scaling
        calls = []
        real = similarity._select
        monkeypatch.setattr(similarity, "_select", lambda *args: calls.append(args) or real(*args))
        corpus = random_corpus(random.Random(41))
        store = count_corpus(corpus, ell_max=4)
        builds = [(SimilarityParams(ell=3, lam=lam), "pas", pas_rank_by),
                  (SimilarityParams(ell=3, lam=0.3, scaling="h_b"), measure, rank_by)]
        for params, build_measure, build_rank_by in builds if pas_first else builds[::-1]:
            index = build_neighbor_index(store, params, build_measure, rank_by=build_rank_by)
            assert index == build_neighbor_index(count_corpus(corpus, ell_max=4), params, build_measure,
                                                 rank_by=build_rank_by)
        assert [args[0] is store for args in calls].count(True) == 1

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), builds=st.lists(st.tuples(
        st.sampled_from(MEASURES), st.sampled_from(RANK_CRITERIA), st.sampled_from([2, 3]),
        st.sampled_from([0.2, 0.5]), st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from(SCALINGS),
        st.sampled_from([2.0, 3.0]), st.sampled_from([2, 4])), min_size=1, max_size=12))
    def test_interleaved_builds_equal_fresh_ones(self, seed, builds):
        # builds of every measure and criterion in any order on one store,
        # each against the same build on a store of its own
        corpus = random_corpus(random.Random(seed), max_users=30, max_items=15, max_len=10)
        store = count_corpus(corpus, ell_max=3)
        for measure, rank_by, ell, rho, lam, scaling, w, n in builds:
            params = SimilarityParams(ell=ell, rho=rho, lam=lam, scaling=scaling, w=w, n_neighbors=n)
            assert build_neighbor_index(store, params, measure, rank_by=rank_by) == \
                build_neighbor_index(count_corpus(corpus, ell_max=3), params, measure, rank_by=rank_by)


class TestBuildArguments:
    @pytest.fixture(params=[False, True], ids=["fresh-store", "store-with-a-selection"])
    def store(self, request, monkeypatch):
        store = count_corpus(random_corpus(random.Random(43)), ell_max=3)
        if request.param:
            build_neighbor_index(store, SimilarityParams(ell=3), "pas")
        # every check runs before the store is read
        monkeypatch.setattr(similarity.PairStore, "_band_fold", lambda *args: pytest.fail("_band_fold ran"))
        monkeypatch.setattr(similarity.PairStore, "numerators", lambda *args: pytest.fail("numerators ran"))
        return store

    def test_unknown_measure(self, store):
        message = f"unknown measure 'jaccard', expected one of {MEASURES}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_neighbor_index(store, SimilarityParams(ell=3), "jaccard")

    @pytest.mark.parametrize("measure", MEASURES)
    def test_unknown_rank_criterion(self, store, measure):
        with pytest.raises(ValueError, match="^unknown rank criterion 'min_t'$"):
            build_neighbor_index(store, SimilarityParams(ell=3), measure, rank_by="min_t")

    @pytest.mark.parametrize("measure", MEASURES)
    def test_store_band_narrower_than_ell(self, store, measure):
        with pytest.raises(ValueError, match="^store gap band 3 narrower than ell=4$"):
            build_neighbor_index(store, SimilarityParams(ell=4), measure)


@pytest.fixture(scope="module")
def memory_dataset():
    return build_dataset(generate(SynthConfig(
        n_users=300, n_items=400, seq_length_range=(15, 40), signal=0.8, reverse_noise=0.1, seed=0)))


class TestCountMemory:
    def test_count_peak_is_under_two_int64_rows_per_occurrence(self, memory_dataset, caplog):
        args = (memory_dataset.item_universe, memory_dataset.train_codes,
                memory_dataset.train_offsets, 10)
        # a first count, so the measured one allocates nothing for the first time
        count_pairs(*args)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with caplog.at_level(logging.INFO, logger="pasrec.similarity"):
                count_pairs(*args)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        occurrences, key_mb = re.search(r"(\d+) pair occurrences sorted as int32 keys \(([\d.]+) MB\)",
                                        caplog.messages[-1]).groups()
        occurrences = int(occurrences)
        assert key_mb == f"{occurrences * 4 / 1e6:.1f}"
        # an int64 row per pair occurrence is one unit; a count that holds
        # the occurrences as int64 lists beside their concatenation peaks at
        # 2.5 units on this corpus, one that fills one int32 buffer at 1.5
        assert peak <= 2 * occurrences * 8


class TestBuildMemory:
    @pytest.fixture(scope="class")
    def store(self, memory_dataset):
        return count_pairs(memory_dataset.item_universe, memory_dataset.train_codes,
                           memory_dataset.train_offsets, 10)

    @pytest.mark.parametrize("measure", MEASURES)
    def test_build_peak_is_a_few_int64_rows_per_candidate(self, store, measure):
        # every pair of a store banded at ell is a candidate of its positional
        # measures; cosine ranks every co-occurring pair
        params = SimilarityParams(ell=10)
        candidates = len(store.co if measure == "cosine" else store.gaps)
        # a first build, so the measured one allocates nothing for the first time
        build_neighbor_index(store, params, measure)
        store.last_selection = None
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            start = tracemalloc.get_traced_memory()[0]
            build_neighbor_index(store, params, measure)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # an int64 row per direction of each candidate pair is one unit; a
        # build that holds a packed key beside its argsort, inverse and
        # gathers peaks above 10 units on this corpus
        assert peak <= 8 * (2 * candidates * 8)


@pytest.fixture(scope="module")
def long_store():
    """The store of the benchmark's long-history shape: 1,000 users of 15-60
    items from 2,000, counted at ell 10."""
    dataset = build_dataset(generate(SynthConfig(
        n_users=1000, n_items=2000, seq_length_range=(15, 60), signal=0.7, reverse_noise=0.05, seed=1)))
    return count_pairs(dataset.item_universe, dataset.train_codes, dataset.train_offsets, 10)


class TestRankMemory:
    @pytest.mark.parametrize("measure", ["bis", "pas", "cosine"])
    def test_ranks_are_written_into_the_keys(self, long_store, measure):
        params = SimilarityParams(ell=10)
        candidates = len(long_store.co if measure == "cosine" else long_store.gaps)
        build_neighbor_index(long_store, params, measure)
        long_store.last_selection = None
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            start = tracemalloc.get_traced_memory()[0]
            build_neighbor_index(long_store, params, measure)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
            long_store.last_selection = None
        # an int64 row per direction of each candidate pair is one unit; on
        # this corpus these builds peak at 2.8-3.2 units, as they did with a
        # np.searchsorted rank. A rank that holds a float product and an
        # int64 bucket beside the keys peaks at 4.1 if it makes them one
        # direction at a time, and at 5.6 for both at once
        assert peak <= 3.5 * (2 * candidates * 8)


class TestLogLines:
    def test_count_pairs_reports_occurrences_and_store_size(self, toy_corpus, caplog):
        with caplog.at_level(logging.INFO, logger="pasrec.similarity"):
            store = count_corpus(toy_corpus, ell_max=5)
        # 3 + 3 + 1 pair occurrences, each sorted once for co-occurrence and
        # once, all inside the band, for the histograms
        assert caplog.messages == [
            "counted 3 sequences: 3 items, 3 co-occurring pairs, 3 within gap band 5; "
            "14 pair occurrences sorted as int32 keys (0.0 MB) into a 0.0 MB store"]
        # int64 item users, five int32 columns of 3 or 4 rows, and 7
        # histogram entries of int32 users and int8 gaps
        assert store.nbytes == 8 * 3 + 4 * (3 + 3 + 3 + 3 + 4) + 7 * (4 + 1)

    @pytest.mark.parametrize("measure", MEASURES)
    def test_build_reports_candidate_rows_ranked(self, toy_corpus, caplog, measure):
        store = count_corpus(toy_corpus, ell_max=5)
        params = SimilarityParams(ell=5, n_neighbors=1)
        with caplog.at_level(logging.INFO, logger="pasrec.similarity"):
            build_neighbor_index(store, params, measure)
            # a build that reuses the selection reports the rows it was made from
            build_neighbor_index(store, params, measure)
        # every pair of a, b and c is a candidate both ways; one neighbor each
        assert caplog.messages == [
            f"built {measure} index: 3 items, 3 neighbor entries from 6 candidate rows ranked"] * 2


def ranking_scores(store, params, measure, rank_by):
    """(candidate, target, ranking score) of both directions of every
    candidate pair, from ``PairStore.numerators`` and ``PairStore.union``:
    bis, or for pas_uni and pas ranked by max_t the value at t = k, whose
    threshold h(0) = 0 admits the gaps in [1, ell]; cosine for cosine."""
    if measure == "cosine":
        lo, hi = np.divmod(store.co, store.n_items)
        users = store.item_users
        return (np.concatenate((lo, hi)), np.concatenate((hi, lo)),
                np.tile(store.co_users / np.sqrt(users[lo] * users[hi]), 2))
    cand, target = directed_pairs(store)
    nums = store.numerators(cand, target, params.ell, (_bis_low(params.rho, params.ell), 1))
    union = store.union(cand, target)
    if measure == "pas_uni" or (measure == "pas" and rank_by == "max_t"):
        lam = 1.0 if measure == "pas_uni" else params.lam
        return cand, target, ((1.0 - lam) * nums[:, 0] + lam * nums[:, 1]) / union
    return cand, target, nums[:, 0] / union


def reference_selection(store, params, measure, rank_by):
    """(target, neighbor) of every index row: the candidates sorted by target,
    descending score and ascending id, at most n_neighbors per target."""
    cand, target, score = ranking_scores(store, params, measure, rank_by)
    taken = Counter()
    rows = []
    for t, _, c in sorted(zip(target.tolist(), (-score).tolist(), cand.tolist())):
        if taken[t] < params.n_neighbors:
            taken[t] += 1
            rows.append((t, c))
    return rows


# selection scores are ratios of counts: they may sit an ulp apart, as
# _combine gives 1.0 and 1.0000000000000002, crowd below 1e-4, or exceed 1
score_sets = st.one_of(
    st.lists(st.one_of(st.sampled_from([0.0, 1.0, 1.0000000000000002, 0.4, 0.39999999999999997, 2.0]),
                       st.floats(0.0, 1.0), st.floats(1.0, 1e6)), max_size=40),
    st.lists(st.floats(0.0, 1e-4), min_size=20, max_size=300),
    st.lists(st.sampled_from([0.0, 1.0, 1.0000000000000002]), max_size=3),
)


class TestDenseRank:
    @settings(max_examples=300, deadline=None)
    @given(scores=score_sets, n_rows=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1))
    def test_ranks_are_those_of_searchsorted(self, scores, n_rows, seed):
        distinct = np.unique(np.array(scores, dtype=np.float64))
        # rows that repeat the distinct scores, or none when there are none
        score = distinct[np.random.default_rng(seed).integers(0, len(distinct), n_rows if len(distinct) else 0)]
        out = np.empty(len(score), dtype=np.int64)
        similarity._dense_rank(distinct, score, out)
        assert np.array_equal(out, len(distinct) - 1 - np.searchsorted(distinct, score))


class TestSelectionOrder:
    @settings(max_examples=60, deadline=None)
    @given(corpus=tie_heavy_corpora, ell=st.integers(1, 3), rho=st.sampled_from([0.2, 0.5, 0.9]),
           lam=st.sampled_from([0.0, 0.3, 0.5, 0.6, 1.0]))
    def test_rows_follow_target_then_score_then_id(self, corpus, ell, rho, lam):
        store = count_corpus(corpus, ell_max=ell)
        for n_neighbors in (1, 2, 3, store.n_items):
            params = SimilarityParams(ell=ell, rho=rho, lam=lam, n_neighbors=n_neighbors)
            for measure in MEASURES:
                for rank_by in RANK_CRITERIA:
                    index = build_neighbor_index(store, params, measure, rank_by=rank_by)
                    assert list(zip(index.targets.tolist(), index.nbrs.tolist())) == \
                        reference_selection(store, params, measure, rank_by)

    def test_scores_an_ulp_apart_do_not_tie(self):
        # pas ranked by max_t at lam=0.6 is (0.4*bis + 0.6*uni) / union: b -> x
        # is (0.4*2 + 0.6*2) / 5 = 0.4 and a -> x (0.4*4 + 0.6*2) / 7, one ulp
        # below; both are 2/5 in exact arithmetic, but only equal floats tie
        store = count_corpus(users("a b x", "a b x", "x a", "x a", "x", "a", "a"), ell_max=2)
        params = SimilarityParams(ell=2, rho=0.5, lam=0.6, n_neighbors=2)
        index = build_neighbor_index(store, params, "pas", rank_by="max_t")
        x = index.item_index["x"]
        assert [index.items[nbr] for nbr in index.nbrs[index.targets == x].tolist()] == ["b", "a"]
        assert index.values[index.targets == x, -1].tolist() == [0.4, 0.39999999999999997]

    @pytest.mark.parametrize("measure", MEASURES)
    def test_selection_key_overflow_names_the_sizes(self, monkeypatch, measure):
        corpus = random_corpus(random.Random(23), max_users=20, max_items=8, max_len=6)
        params = SimilarityParams(ell=3, rho=0.5, lam=0.5, n_neighbors=3)
        want = build_neighbor_index(count_corpus(corpus, ell_max=3), params, measure)
        store = count_corpus(corpus, ell_max=3)
        n = store.n_items
        distinct = len(np.unique(ranking_scores(store, params, measure, "bis")[2]))
        # the largest key is n_items**2 * distinct scores - 1
        monkeypatch.setattr(similarity, "_INT64_MAX", n * n * distinct - 1)
        with pytest.raises(ValueError, match=rf"n_items={n}, distinct scores={distinct}\b"):
            build_neighbor_index(store, params, measure)
        monkeypatch.setattr(similarity, "_INT64_MAX", n * n * distinct)
        assert build_neighbor_index(store, params, measure) == want

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("rank_by", RANK_CRITERIA)
    def test_wider_band_keeps_the_positive_rows(self, measure, rank_by):
        # the pairs a wider band adds have every gap beyond ell, so they score
        # 0 and can only take slots that no positive candidate wants; a row
        # is kept here by its ranking value (column k for pas_uni and pas by
        # max_t), since a zero-ranked pas_uni row may still hold a positive bis
        corpus = random_corpus(random.Random(29), max_users=40, max_items=20, max_len=15)
        params = SimilarityParams(ell=2, rho=0.5, lam=0.5, n_neighbors=6)
        column = params.k if measure == "pas_uni" or (measure == "pas" and rank_by == "max_t") else 0

        def positive_rows(index):
            keep = index.values[:, column] > 0
            return (index.targets[keep].tolist(), index.nbrs[keep].tolist(),
                    index.values[keep].tolist())

        narrow, wide = (build_neighbor_index(count_corpus(corpus, ell_max=ell_max), params, measure,
                                             rank_by=rank_by) for ell_max in (2, 6))
        assert positive_rows(wide) == positive_rows(narrow)

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("rank_by", RANK_CRITERIA)
    def test_wider_band_builds_the_banded_index(self, measure, rank_by):
        # grid_search counts once at its largest ell; each smaller ell must
        # still get the index build-index makes from a store banded at it,
        # zero-valued rows included. Few users over many items leave pairs
        # that meet only beyond ell and targets with free slots to fill. The
        # reverse reach floor(rho*ell) is 0 at ell 1 and at rho 0.2, and 1
        # or 2 at the others.
        rng = random.Random(31)
        for ell, rho in ((2, 0.5), (1, 0.5), (1, 0.9), (2, 0.2), (3, 0.2), (2, 0.58), (3, 0.58), (2, 0.9),
                         (3, 0.9)):
            params = SimilarityParams(ell=ell, rho=rho, lam=0.5, n_neighbors=6)
            for trial in range(5):
                corpus = random_corpus(rng, max_users=8, max_items=30, max_len=20)
                want = build_neighbor_index(count_corpus(corpus, ell_max=ell), params, measure, rank_by=rank_by)
                for ell_max in (ell + 1, 6, 14):
                    wide = count_corpus(corpus, ell_max=ell_max)
                    assert build_neighbor_index(wide, params, measure, rank_by=rank_by) == want

    def test_band_fold_pairs_are_those_with_an_entry_in_band(self):
        # _band_fold reads its pairs off the count at the bis bound, which an
        # entry in [-ell, ell] reaches in one direction or the other
        rng = random.Random(37)
        for trial in range(20):
            store = count_corpus(random_corpus(rng, max_users=8, max_items=30, max_len=20), ell_max=14)
            entry_pair = np.repeat(np.arange(len(store.gaps)), np.diff(store.starts))
            for ell in range(1, 14):
                rho = rng.choice([0.01, 0.2, 0.5, 0.58, 0.9, 0.99])
                pair, nums = store._band_fold(ell, [_bis_low(rho, ell), rng.randint(1, ell)])
                assert pair.tolist() == np.unique(entry_pair[np.abs(store.hist_gap) <= ell]).tolist()
                assert nums.dtype == store.hist_users.dtype and nums.shape == (2 * len(pair), 2)


class TestInvariants:
    def test_values_in_unit_interval(self):
        rng = random.Random(7)
        for trial in range(10):
            corpus = random_corpus(rng)
            store = count_corpus(corpus, ell_max=5)
            params = SimilarityParams(ell=5, rho=0.2, lam=0.5, n_neighbors=10)
            for measure in ("bis", "pas", "cosine"):
                values = full_index(store, params, measure).values
                assert ((0.0 <= values) & (values <= 1.0)).all()

    def test_position_aware_value_non_decreasing_in_t(self):
        rng = random.Random(11)
        for trial in range(10):
            store = count_corpus(random_corpus(rng), ell_max=4)
            values = uni_values(store, *directed_pairs(store), 4, "h_a", 2.0)
            assert (np.diff(values, axis=1) >= 0).all()

    def test_scaled_thresholds_dominate_identity(self):
        rng = random.Random(13)
        for trial in range(10):
            store = count_corpus(random_corpus(rng), ell_max=4)
            pairs = directed_pairs(store)
            base = uni_values(store, *pairs, 4, "h_a", 2.0)
            assert (uni_values(store, *pairs, 4, "h_b", 2.0) >= base).all()
            assert (uni_values(store, *pairs, 4, "h_c", 2.0) >= base).all()
