import math
import random
import re

import pytest

from conftest import random_corpus
from pasrec.domain import SimilarityParams, UserSequence
from pasrec.similarity import (
    NeighborIndex,
    PairStats,
    bis_similarity,
    build_neighbor_index,
    cosine_similarity,
    count_pairs,
    pas_similarity,
    pas_uni_similarity,
    scale,
)


class TestCountPairs:
    def test_single_user(self):
        store = count_pairs([UserSequence.from_items("v", ["a", "b", "c"])], ell_max=5)
        ac = store.pair_stats("a", "c")
        assert ac.gap_counts == {2: 1}
        assert ac.co_users == 1
        assert ac.union_users == 1

    def test_toy_corpus(self, toy_corpus):
        store = count_pairs(toy_corpus, ell_max=5)
        ab = store.pair_stats("a", "b")
        assert ab.gap_counts == {1: 1, 2: 1, -1: 1}
        assert ab.co_users == 3
        assert ab.union_users == 3

    def test_disjoint_users_have_no_pairs(self):
        store = count_pairs(
            [UserSequence.from_items("v1", ["a"]), UserSequence.from_items("v2", ["b"])],
            ell_max=5,
        )
        assert store.gaps == {} and store.co == {}
        assert store.user_count("a") == 1
        assert store.user_count("b") == 1
        ab = store.pair_stats("a", "b")
        assert ab.union_users == 2 and ab.co_users == 0

    def test_gap_band_limits_histogram_not_co_counts(self):
        store = count_pairs([UserSequence.from_items("v", ["a", "b", "c", "d"])], ell_max=1)
        ad = store.pair_stats("a", "d")
        assert ad.gap_counts == {}
        assert ad.co_users == 1
        assert ad.union_users == 1

    def test_directed_view_negates_gaps(self, toy_corpus):
        store = count_pairs(toy_corpus, ell_max=5)
        ba = store.pair_stats("b", "a")
        assert ba.gap_counts == {-1: 1, -2: 1, 1: 1}

    def test_worker_count_does_not_change_output(self, toy_corpus):
        corpus = toy_corpus + random_corpus(random.Random(5), max_users=20)
        serial = count_pairs(corpus, ell_max=4, workers=1)
        parallel = count_pairs(corpus, ell_max=4, workers=3)
        assert serial.items == parallel.items
        assert serial.item_users == parallel.item_users
        assert serial.co == parallel.co
        assert serial.gaps == parallel.gaps

    def test_unknown_items_scorable(self, toy_corpus):
        store = count_pairs(toy_corpus, ell_max=5)
        stats = store.pair_stats("a", "zz")
        assert stats.union_users == 3  # |U_a| alone
        assert bis_similarity(stats, 2, 0.2) == 0.0


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
def toy_ab(toy_corpus):
    return count_pairs(toy_corpus, ell_max=5).pair_stats("a", "b")


class TestBis:
    def test_toy_value(self, toy_ab):
        assert bis_similarity(toy_ab, 2, 0.2) == pytest.approx(2 / 3, abs=1e-15)

    def test_larger_reverse_factor_admits_reversed_pair(self, toy_ab):
        assert bis_similarity(toy_ab, 2, 0.5) == 1.0

    def test_never_co_occurring_is_zero(self):
        assert bis_similarity(PairStats({}, 0, 4), 2, 0.2) == 0.0

    def test_zero_denominator_is_zero(self):
        assert bis_similarity(PairStats({}, 0, 0), 2, 0.2) == 0.0


class TestPasUni:
    def test_toy_values(self, toy_ab):
        assert pas_uni_similarity(toy_ab, 2, 2, 1, "h_a", 2.0) == pytest.approx(1 / 3, abs=1e-15)
        assert pas_uni_similarity(toy_ab, 2, 2, 2, "h_a", 2.0) == pytest.approx(2 / 3, abs=1e-15)

    def test_no_forward_mass_is_zero(self):
        stats = PairStats({-1: 2}, 2, 3)
        assert pas_uni_similarity(stats, 2, 2, 2, "h_a", 2.0) == 0.0

    def test_t_out_of_range_rejected(self, toy_ab):
        with pytest.raises(ValueError, match="t="):
            pas_uni_similarity(toy_ab, 2, 2, 3, "h_a", 2.0)
        with pytest.raises(ValueError, match="t="):
            pas_uni_similarity(toy_ab, 2, 2, 0, "h_a", 2.0)


class TestPas:
    def test_toy_value(self, toy_ab):
        params = SimilarityParams(ell=2, rho=0.2, lam=0.5, scaling="h_a", w=2.0)
        assert pas_similarity(toy_ab, params, 2) == pytest.approx(2 / 3, abs=1e-15)

    def test_lam_zero_reduces_to_bis_exactly(self, toy_ab):
        params = SimilarityParams(ell=2, rho=0.2, lam=0.0)
        for t in (1, 2):
            assert pas_similarity(toy_ab, params, t) == bis_similarity(toy_ab, 2, 0.2)

    def test_lam_one_reduces_to_pas_uni_exactly(self, toy_ab):
        params = SimilarityParams(ell=2, rho=0.2, lam=1.0)
        assert pas_similarity(toy_ab, params, 1) == pas_uni_similarity(toy_ab, 2, 2, 1, "h_a", 2.0)


class TestCosine:
    def test_full_overlap(self):
        assert cosine_similarity(PairStats({}, 3, 3), 3, 3) == 1.0

    def test_partial_overlap(self):
        assert cosine_similarity(PairStats({}, 1, 4), 1, 4) == 0.5

    def test_disjoint(self):
        assert cosine_similarity(PairStats({}, 0, 5), 2, 3) == 0.0

    def test_zero_counts(self):
        assert cosine_similarity(PairStats({}, 0, 0), 0, 3) == 0.0


class TestNeighborIndex:
    def test_all_candidates_kept_when_under_cap(self, toy_corpus):
        store = count_pairs(toy_corpus, ell_max=2)
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
        store = count_pairs(corpus, ell_max=2)
        params = SimilarityParams(ell=2, rho=0.2, lam=0.0, n_neighbors=1)
        index = build_neighbor_index(store, params, "bis")
        row = index.entries[index.item_index["x"]]
        assert [(index.items[nbr], value) for nbr, value, _ in row] == [("a", 0.5)]

    def test_pas_entries_carry_k_values(self, toy_corpus):
        store = count_pairs(toy_corpus, ell_max=5)
        params = SimilarityParams(ell=5, rho=0.2, lam=0.5, n_neighbors=20)
        index = build_neighbor_index(store, params, "pas")
        for row in index.entries:
            for _, _, vector in row:
                assert len(vector) == 5

    def test_bis_entries_have_no_vector(self, toy_corpus):
        store = count_pairs(toy_corpus, ell_max=2)
        index = build_neighbor_index(store, SimilarityParams(ell=2, lam=0.0), "bis")
        assert all(vector == () for row in index.entries for _, _, vector in row)

    def test_rejects_narrow_store(self, toy_corpus):
        store = count_pairs(toy_corpus, ell_max=2)
        with pytest.raises(ValueError, match="band"):
            build_neighbor_index(store, SimilarityParams(ell=3), "pas")

    def test_round_trip_is_bit_exact(self, tmp_path, toy_corpus):
        store = count_pairs(toy_corpus, ell_max=3)
        params = SimilarityParams(ell=3, rho=0.2, lam=0.5, scaling="h_b", w=2.0, n_neighbors=4)
        for measure in ("bis", "pas", "pas_uni", "cosine"):
            index = build_neighbor_index(store, params, measure)
            path = tmp_path / f"{measure}.tsv"
            index.save(str(path))
            assert NeighborIndex.load(str(path)) == index

    @pytest.mark.parametrize(
        "line, message",
        [
            ("-1\t0\t0.5\t", "outside"),
            ("9999\t0\t0.5\t", "outside"),
            ("0\t9999\t0.5\t", "outside"),
            ("0\t-1\t0.5\t", "outside"),
            ("0\t1", "expected 4 tab-separated fields, got 2"),
            ("0\t1\t0.5\t\textra", "expected 4 tab-separated fields, got 5"),
            ("zero\t1\t0.5\t", "invalid literal"),
        ],
        ids=["negative-target", "large-target", "large-neighbor", "negative-neighbor",
             "two-fields", "five-fields", "non-integer-target"],
    )
    def test_load_rejects_bad_entry_with_location(self, tmp_path, toy_corpus, line, message):
        store = count_pairs(toy_corpus, ell_max=2)
        index = build_neighbor_index(store, SimilarityParams(ell=2, lam=0.0), "bis")
        path = tmp_path / "index.tsv"
        index.save(str(path))
        lines = path.read_text().splitlines()
        lines.insert(6, line)  # second entry line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:7: .*{message}"):
            NeighborIndex.load(str(path))

    def test_rejects_foreign_artifact(self, tmp_path):
        path = tmp_path / "bogus.tsv"
        path.write_text("#something-else\t1\n")
        with pytest.raises(ValueError, match="artifact"):
            NeighborIndex.load(str(path))

    def test_stored_values_in_unit_interval(self):
        rng = random.Random(17)
        corpus = random_corpus(rng)
        store = count_pairs(corpus, ell_max=4)
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
        store = count_pairs(corpus, ell_max=4)
        params = SimilarityParams(ell=4, rho=0.2, lam=1.0, scaling="h_a", n_neighbors=6)
        index = build_neighbor_index(store, params, "pas_uni")
        for row in index.entries:
            for _, _, vector in row:
                assert all(x <= y for x, y in zip(vector, vector[1:]))


class TestInvariants:
    def test_values_in_unit_interval(self):
        rng = random.Random(7)
        for trial in range(10):
            corpus = random_corpus(rng)
            store = count_pairs(corpus, ell_max=5)
            params = SimilarityParams(ell=5, rho=0.2, lam=0.5, n_neighbors=10)
            for a, b in list(store.gaps)[:200]:
                stats = store.pair_stats(store.items[a], store.items[b])
                values = [bis_similarity(stats, 5, 0.2)]
                values += [pas_similarity(stats, params, t) for t in range(1, 6)]
                values.append(
                    cosine_similarity(stats, store.item_users[b], store.item_users[a])
                )
                assert all(0.0 <= v <= 1.0 for v in values)

    def test_position_aware_value_non_decreasing_in_t(self):
        rng = random.Random(11)
        for trial in range(10):
            corpus = random_corpus(rng)
            store = count_pairs(corpus, ell_max=4)
            for a, b in store.gaps:
                for i_from, i_to in ((store.items[a], store.items[b]), (store.items[b], store.items[a])):
                    stats = store.pair_stats(i_from, i_to)
                    values = [pas_uni_similarity(stats, 4, 4, t, "h_a", 2.0) for t in range(1, 5)]
                    assert all(x <= y for x, y in zip(values, values[1:]))

    def test_scaled_thresholds_dominate_identity(self):
        rng = random.Random(13)
        for trial in range(10):
            corpus = random_corpus(rng)
            store = count_pairs(corpus, ell_max=4)
            for a, b in store.gaps:
                stats = store.pair_stats(store.items[a], store.items[b])
                for t in range(1, 5):
                    base = pas_uni_similarity(stats, 4, 4, t, "h_a", 2.0)
                    assert pas_uni_similarity(stats, 4, 4, t, "h_b", 2.0) >= base
                    assert pas_uni_similarity(stats, 4, 4, t, "h_c", 2.0) >= base
