"""The columnar pair store on degenerate corpora and at the int64 key limit.

Each corpus is checked end to end: the counted columns against literal
values, every directed pair of a full index against the oracle, the saved
index of all four measures against the oracle, and the sparsity profile.
The key counting under the store is checked against ``np.unique`` on
degenerate key lists.
"""
import logging
import math

import numpy as np
import pytest

from conftest import assert_pairs_match_oracle, count_corpus, gap_histogram, item_pairs
from pasrec.domain import MEASURES, SCALINGS, SimilarityParams, UserSequence
from pasrec.oracle import oracle_bis, oracle_cosine, oracle_neighborhood, oracle_pas
from pasrec.similarity import NeighborIndex, _counted, average_uni_by_gap, build_neighbor_index

TOLERANCE = 1e-12


def users(*sequences):
    return [UserSequence.from_items(f"u{n}", items.split()) for n, items in enumerate(sequences)]


# name: (corpus, ell_max, item_users, {(lo, hi): co users},
#        {(i_from, i_to): gap_counts} for every co-occurring ordered pair)
EDGE_CORPORA = {
    "empty corpus": ([], 3, {}, {}, {}),
    "one item per user": (users("a", "b", "a"), 3, {"a": 2, "b": 1}, {}, {}),
    "ell_max above the longest sequence": (
        users("a b c", "c a", "b a"), 8, {"a": 3, "b": 2, "c": 2},
        {("a", "b"): 2, ("a", "c"): 2, ("b", "c"): 1},
        {("a", "b"): {1: 1, -1: 1}, ("a", "c"): {2: 1, -1: 1}, ("b", "c"): {1: 1}},
    ),
    "co-occurrence outside the band": (
        users("a b c", "a d"), 1, {"a": 2, "b": 1, "c": 1, "d": 1},
        {("a", "b"): 1, ("a", "c"): 1, ("a", "d"): 1, ("b", "c"): 1},
        {("a", "b"): {1: 1}, ("a", "c"): {}, ("a", "d"): {1: 1}, ("b", "c"): {1: 1}},
    ),
}


def edge_params(ell_max):
    return SimilarityParams(ell=ell_max, rho=0.5, lam=0.5, scaling="h_b", w=2.0, n_neighbors=2)


@pytest.mark.parametrize("name", sorted(EDGE_CORPORA))
def test_counted_columns(name):
    corpus, ell_max, item_users, co, gap_counts = EDGE_CORPORA[name]
    store = count_corpus(corpus, ell_max=ell_max)
    assert store.items == tuple(sorted(item_users))
    assert store.item_users.tolist() == [item_users[item] for item in store.items]
    got_co = {(store.items[a], store.items[b]): users
              for (a, b), users in zip(item_pairs(store, store.co), store.co_users.tolist())}
    assert got_co == co
    assert len(store.gaps) == sum(1 for hist in gap_counts.values() if hist)
    for (i_from, i_to), hist in gap_counts.items():
        assert gap_histogram(store, i_from, i_to) == hist
        assert gap_histogram(store, i_to, i_from) == {-g: c for g, c in hist.items()}


@pytest.mark.parametrize("name", sorted(EDGE_CORPORA))
def test_pair_views_match_oracle(name):
    corpus, ell_max, _, _, _ = EDGE_CORPORA[name]
    store = count_corpus(corpus, ell_max=ell_max)
    names = [*store.items, "never-seen"]
    pairs = [(i_from, i_to) for i_from in names for i_to in names if i_from != i_to]
    assert_pairs_match_oracle(corpus, store, edge_params(ell_max), pairs, TOLERANCE)


@pytest.mark.parametrize("rank_by", ["bis", "max_t"])
@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("name", sorted(EDGE_CORPORA))
def test_saved_index_matches_oracle(tmp_path, name, measure, rank_by):
    corpus, ell_max, _, _, _ = EDGE_CORPORA[name]
    store = count_corpus(corpus, ell_max=ell_max)
    params = edge_params(ell_max)
    path = tmp_path / "index.tsv"
    build_neighbor_index(store, params, measure, rank_by=rank_by).save(str(path))
    index = NeighborIndex.load(str(path))
    assert index.items == store.items
    uni = SimilarityParams(ell=ell_max, rho=0.5, lam=1.0, scaling="h_b", w=2.0)
    positional = measure != "cosine"
    for target, row in enumerate(index.entries):
        i_to = index.items[target]
        for nbr, value, vector in row:
            i_from = index.items[nbr]
            want = (oracle_bis(corpus, i_from, i_to, ell_max, 0.5) if positional
                    else oracle_cosine(corpus, i_from, i_to))
            assert value == pytest.approx(want, abs=TOLERANCE)
            want_params = {"pas": params, "pas_uni": uni}.get(measure)
            want_vector = [] if want_params is None else [
                oracle_pas(corpus, i_from, i_to, want_params, t) for t in range(1, params.k + 1)]
            assert list(vector) == pytest.approx(want_vector, abs=TOLERANCE)
        # the selected neighbors with a positive ranking score are the oracle's
        rank_on_vector = measure == "pas_uni" or (measure == "pas" and rank_by == "max_t")
        positive = [index.items[nbr] for nbr, value, vector in row
                    if (vector[-1] if rank_on_vector else value) > 0.0]
        assert positive == oracle_neighborhood(corpus, i_to, params, measure, rank_by)


@pytest.mark.parametrize("name", sorted(EDGE_CORPORA))
def test_sparsity_profile_matches_oracle(name):
    corpus, ell_max, _, _, _ = EDGE_CORPORA[name]
    store = count_corpus(corpus, ell_max=ell_max)
    profile = average_uni_by_gap(store, ell=ell_max, n_neighbors=2, w=2.0)
    params = SimilarityParams(ell=ell_max, rho=0.2, lam=1.0, scaling="h_a", w=2.0, n_neighbors=2)
    index = build_neighbor_index(store, params, "pas_uni")
    pairs = [(index.items[nbr], index.items[target])
             for target, row in enumerate(index.entries) for nbr, _, _ in row]
    for scaling in SCALINGS:
        scaled = SimilarityParams(ell=ell_max, rho=0.2, lam=1.0, scaling=scaling, w=2.0)
        want = [
            math.fsum(oracle_pas(corpus, i_from, i_to, scaled, ell_max - gap)
                      for i_from, i_to in pairs) / len(pairs) if pairs else 0.0
            for gap in range(ell_max)
        ]
        assert profile[scaling] == pytest.approx(want, abs=TOLERANCE)


def test_empty_corpus_index_is_header_only(tmp_path):
    store = count_corpus([], ell_max=2)
    path = tmp_path / "index.tsv"
    build_neighbor_index(store, SimilarityParams(ell=2), "pas").save(str(path))
    assert path.read_text().splitlines()[-1] == "#items\t[]"
    assert average_uni_by_gap(store, ell=2) == {scaling: [0.0, 0.0] for scaling in SCALINGS}


@pytest.mark.parametrize("measure", MEASURES)
def test_empty_index_round_trips(tmp_path, measure):
    index = build_neighbor_index(count_corpus([], ell_max=2), SimilarityParams(ell=2), measure)
    first, second = tmp_path / "first.tsv", tmp_path / "second.tsv"
    index.save(str(first))
    loaded = NeighborIndex.load(str(first))
    assert loaded == index and loaded.values.shape == index.values.shape
    loaded.save(str(second))
    assert first.read_bytes() == second.read_bytes()


def test_key_range_boundary():
    # n_items**2 * (2*ell_max + 1) <= 2**63 - 1 holds up to ell_max = 2**60 - 1
    # for two items; one more and the packed keys would wrap around
    corpus = users("a b")
    widest = 2**60 - 1
    assert 4 * (2 * widest + 1) <= 2**63 - 1 < 4 * (2 * (widest + 1) + 1)
    store = count_corpus(corpus, ell_max=widest)
    # a -> b: one user at gap 1, in [1, 1] and in [-1, 1]; b -> a: none in
    # [1, 1], one in [-1, 1]
    got = store.numerators(np.array([0, 1]), np.array([1, 0]), 1, [1, -1])
    assert got.tolist() == [[1, 1], [0, 1]]
    index = build_neighbor_index(store, SimilarityParams(ell=1, lam=0.0), "bis")
    assert index.entries == [[(1, 0.0, ())], [(0, 1.0, ())]]  # b -> a is gap -1
    with pytest.raises(ValueError, match=rf"n_items=2, ell_max={widest + 1}\b"):
        count_corpus(corpus, ell_max=widest + 1)


# the largest histogram key n_items**2 * (2*ell_max + 1) - 1 of a catalog
# sized so that it sits just below 2**63
N_WIDE = math.isqrt((2**63 - 1) // 3)
TOP = N_WIDE * N_WIDE * 3 - 1


@pytest.mark.parametrize("parts", [
    [[]],
    [[], [], []],
    [[], [4], []],
    [[5]],
    [[7, 7, 7], [7, 7]],
    [[TOP, TOP - 1, TOP], [], [TOP - 2**40, TOP, 0]],
    [list(range(40)), list(range(40, 90)), list(range(90, 100)) * 3],
    [list(range(99, -1, -1)), list(range(50, 0, -2))],
], ids=["one empty part", "empty parts", "one key among empty parts", "single key",
        "all keys equal", "keys near the int64 bound", "ascending", "descending"])
def test_counted_matches_unique(parts):
    # the parts lie end to end in one buffer, as count_pairs fills it; the
    # keys and counts are int32 too where the keys fit
    buffer = np.array([key for part in parts for key in part], dtype=np.int64)
    want_keys, want_counts = np.unique(buffer, return_counts=True)
    key_types = [np.int64, np.int32] if buffer.max(initial=0) <= 2**31 - 1 else [np.int64]
    for key_type in key_types:
        keys = buffer.astype(key_type)
        got_keys, counts = _counted(keys, key_type)
        assert keys.tolist() == sorted(buffer.tolist())  # sorted in place
        assert got_keys.dtype == counts.dtype == key_type
        assert got_keys.tolist() == want_keys.tolist()
        assert counts.tolist() == want_counts.tolist()


# n_items**2 * (2*ell_max + 1) <= 2**31 - 1 holds up to ell_max = 2**28 - 1
# for two items: the histogram keys are int32 there and int64 one above,
# while the pair keys stay int32
WIDEST_INT32 = 2**28 - 1
KEY_WIDTHS = {WIDEST_INT32: "int32 keys", WIDEST_INT32 + 1: "int32 and int64 keys"}
WIDTH_CORPUS = users("a b", "b a", "a b", "a", "b", "b")


def test_key_width_boundary_counts_the_same(caplog):
    assert 4 * (2 * WIDEST_INT32 + 1) <= 2**31 - 1 < 4 * (2 * (WIDEST_INT32 + 1) + 1)
    stores = []
    for ell_max, key_types in KEY_WIDTHS.items():
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="pasrec.similarity"):
            stores.append(count_corpus(WIDTH_CORPUS, ell_max=ell_max))
        assert f"sorted as {key_types} (" in caplog.messages[0]
    narrow, wide = stores
    assert narrow.items == wide.items == ("a", "b")
    for field in ("item_users", "co", "co_users", "gaps", "gap_union", "starts", "hist_gap",
                  "hist_users"):
        assert getattr(narrow, field).dtype == getattr(wide, field).dtype
        assert getattr(narrow, field).tolist() == getattr(wide, field).tolist()
    # a -> b at gap 1 for two users, at gap -1 for one
    assert narrow.hist_gap.tolist() == [-1, 1] and narrow.hist_users.tolist() == [1, 2]
    for store in stores:
        got = store.numerators(np.array([0, 1]), np.array([1, 0]), 1, [1, -1])
        assert got.tolist() == [[2, 3], [1, 3]]


@pytest.mark.parametrize("ell_max", sorted(KEY_WIDTHS), ids=["int32 keys", "int64 keys"])
def test_key_width_boundary_indexes_match_oracle(ell_max):
    store = count_corpus(WIDTH_CORPUS, ell_max=ell_max)
    pairs = [("a", "b"), ("b", "a")]
    for ell in (1, 2):
        assert_pairs_match_oracle(WIDTH_CORPUS, store, edge_params(ell), pairs, TOLERANCE)
