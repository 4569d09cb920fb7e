import logging

import pytest

from pasrec.domain import InteractionRecord
from pasrec.ingest import (
    ColumnSchema,
    ParseError,
    build_dataset,
    check_stats_consistency,
    deduplicate,
    filter_positive,
    load_dataset,
    parse_interactions,
    save_dataset,
    subsample_users,
)


def rec(user, item, rating=5, ts=0):
    return InteractionRecord(user=user, item=item, rating=rating, timestamp=ts)


class TestParse:
    def test_movielens_layout(self):
        records = parse_interactions(["1::122::5::838985046"], ColumnSchema.movielens())
        assert records == [rec("1", "122", 5, 838985046)]

    def test_csv_layout(self):
        records = parse_interactions(["u1,i9,3,100"], ColumnSchema.csv())
        assert records == [rec("u1", "i9", 3, 100)]

    def test_empty_stream(self):
        assert parse_interactions([], ColumnSchema.movielens()) == []

    def test_no_rating_column(self):
        schema = ColumnSchema(delimiter="\t", user_col=0, item_col=1, rating_col=None, timestamp_col=2)
        records = parse_interactions(["u\ti\t42"], schema)
        assert records[0].rating is None

    def test_malformed_line_raises_with_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_interactions(["1::2::5::10", "garbage"], ColumnSchema.movielens())

    def test_skip_mode_counts(self, caplog):
        lines = ["1::2::5::10", "bad", "3::4::x::10", "5::6::5::20"]
        with caplog.at_level(logging.WARNING):
            records = parse_interactions(lines, ColumnSchema.movielens(), on_error="skip")
        assert [r.user for r in records] == ["1", "5"]
        assert "skipped 2" in caplog.text

    @pytest.mark.parametrize(
        "bad_line",
        ["u\t1::a::5::1", "u::a\tb::5::1", "u\r1::a::5::1", "u::a\nb::5::1"],
        ids=["tab-in-user", "tab-in-item", "cr-in-user", "lf-in-item"],
    )
    def test_tab_or_line_break_in_id_raises_with_line_number(self, bad_line):
        with pytest.raises(ParseError, match="line 2: .*tab or line break"):
            parse_interactions(["1::2::5::10", bad_line], ColumnSchema.movielens())

    def test_tab_in_id_skipped_and_counted(self, caplog):
        lines = ["1::2::5::10", "u\t1::a::5::1", "3::4::5::20"]
        with caplog.at_level(logging.WARNING):
            records = parse_interactions(lines, ColumnSchema.movielens(), on_error="skip")
        assert [r.user for r in records] == ["1", "3"]
        assert "skipped 1" in caplog.text


class TestFilterPositive:
    def test_keeps_only_rating_five(self):
        records = [rec("u", "i", 5, 1), rec("u", "j", 4, 2)]
        assert filter_positive(records) == [rec("u", "i", 5, 1)]

    def test_all_mode_keeps_review_records(self):
        records = [rec("u", "i", None, 1), rec("u", "j", None, 2)]
        assert filter_positive(records, "all") == records

    def test_empty_input(self):
        assert filter_positive([]) == []

    def test_missing_ratings_rejected_in_rating_mode(self):
        with pytest.raises(ValueError, match="no rating"):
            filter_positive([rec("u", "i", None, 1)])


class TestDeduplicate:
    def test_keeps_minimum_timestamp(self):
        records = [rec("u", "i", 5, 100), rec("u", "i", 5, 50)]
        assert deduplicate(records) == [rec("u", "i", 5, 50)]

    def test_timestamp_tie_keeps_first_occurrence(self):
        first = rec("u", "i", 5, 100)
        second = rec("u", "i", 4, 100)
        assert deduplicate([first, second]) == [first]

    def test_distinct_pairs_unchanged(self):
        records = [rec("u", "i", 5, 1), rec("u", "j", 5, 2), rec("v", "i", 5, 3)]
        assert deduplicate(records) == records

    def test_idempotent(self):
        records = [rec("u", "i", 5, 9), rec("u", "i", 5, 3), rec("v", "j", 5, 1)]
        once = deduplicate(records)
        assert deduplicate(once) == once


class TestSubsampleUsers:
    def test_identity_under_limit(self):
        records = [rec(f"u{j}", "i", 5, j) for j in range(3)]
        assert subsample_users(records, 20000, seed=1) == records

    def test_exact_user_count_and_determinism(self):
        records = [rec(f"u{j:05d}", f"i{j % 7}", 5, j) for j in range(300)]
        sampled = subsample_users(records, 100, seed=42)
        assert len({r.user for r in sampled}) == 100
        assert subsample_users(records, 100, seed=42) == sampled

    def test_seed_changes_selection(self):
        records = [rec(f"u{j:05d}", "i", 5, j) for j in range(50)]
        a = subsample_users(records, 10, seed=1)
        b = subsample_users(records, 10, seed=2)
        assert {r.user for r in a} != {r.user for r in b}


class TestBuildDataset:
    def test_leave_last_two_out(self):
        dataset = build_dataset([rec("u", "a", 5, 1), rec("u", "b", 5, 2), rec("u", "c", 5, 3)])
        (seq,) = dataset.sequences
        assert seq.items == ("a",)
        assert dataset.validation == {"u": "b"}
        assert dataset.test == {"u": "c"}

    def test_short_user_dropped_from_splits_but_counted(self):
        dataset = build_dataset([rec("u", "a", 5, 1), rec("u", "b", 5, 2)])
        assert dataset.validation == {} and dataset.test == {}
        assert dataset.stats.n_dropped_users == 1
        assert dataset.stats.n_users == 1
        # the short history still belongs to the training corpus
        (seq,) = dataset.sequences
        assert seq.items == ("a", "b")

    def test_timestamp_tie_orders_by_item(self):
        dataset = build_dataset([rec("u", "b", 5, 7), rec("u", "a", 5, 7), rec("u", "c", 5, 9)])
        (seq,) = dataset.sequences
        assert seq.items == ("a",)
        assert dataset.validation["u"] == "b"
        assert dataset.test["u"] == "c"

    def test_split_invariants(self):
        records = [
            rec(u, i, 5, ts)
            for u, items in [("u1", "abcde"), ("u2", "cdb"), ("u3", "ab")]
            for ts, i in enumerate(items)
        ]
        dataset = build_dataset(records)
        universe = set(dataset.item_universe)
        for user, seq in ((s.user, s) for s in dataset.sequences):
            if user in dataset.test:
                assert len(seq.items) >= 1
                assert dataset.validation[user] not in seq.items
                assert dataset.test[user] not in seq.items
        assert set(dataset.validation.values()) <= universe
        assert set(dataset.test.values()) <= universe

    def test_stats_consistency(self):
        records = [rec(f"u{j}", f"i{n}", 5, n) for j in range(4) for n in range(j + 3)]
        dataset = build_dataset(records)
        assert check_stats_consistency(dataset.stats)
        assert dataset.stats.n_records == len(records)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        records = [
            rec(u, i, 5, ts)
            for u, items in [("u1", "abcde"), ("u2", "cdb"), ("u3", "ab")]
            for ts, i in enumerate(items)
        ]
        dataset = build_dataset(records)
        save_dataset(dataset, str(tmp_path))
        loaded = load_dataset(str(tmp_path))
        assert loaded == dataset

    def test_rerun_is_byte_identical(self, tmp_path):
        records = [rec("u", "a", 5, 1), rec("u", "b", 5, 2), rec("u", "c", 5, 3)]
        dataset = build_dataset(records)
        out1, out2 = tmp_path / "one", tmp_path / "two"
        save_dataset(dataset, str(out1))
        save_dataset(dataset, str(out2))
        for name in ("train.tsv", "valid.tsv", "test.tsv", "stats.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
