import logging
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import interactions
from pasrec.ingest import (
    ColumnSchema,
    Interactions,
    ParseError,
    build_dataset,
    deduplicate,
    filter_positive,
    load_dataset,
    parse_interactions,
    save_dataset,
    subsample_users,
)


def rec(user, item, rating=5, ts=0):
    return user, item, rating, ts


def table(*rows):
    return interactions(rows)


class TestInteractions:
    def test_columns(self):
        records = table(rec("u", "i", 5, 1), rec("v", "j", 4, 2))
        assert len(records) == 2
        assert records.ids() == (["u", "v"], ["i", "j"])
        assert records.ratings.dtype == records.timestamps.dtype == np.int64
        assert records.ratings.tolist() == [5, 4] and records.timestamps.tolist() == [1, 2]

    def test_no_ratings(self):
        assert table(rec("u", "i", None, 1)).ratings is None

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError, match="negative timestamp -1 for user 'u'"):
            table(rec("u", "i", 5, -1))

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            Interactions.from_ids(["u"], ["i", "j"], None, [1])

    def test_take_keeps_interned_codes(self):
        records = table(rec("b", "y", 5, 1), rec("a", "x", 5, 2), rec("c", "z", 5, 3))
        assert records.user_ids == ["a", "b", "c"] and records.user_code.tolist() == [1, 0, 2]
        cut = records.take(np.array([2, 0]))
        assert cut == table(rec("c", "z", 5, 3), rec("b", "y", 5, 1))
        assert cut.user_ids is records.user_ids and cut.item_ids is records.item_ids
        assert cut.user_code.tolist() == [2, 1] and cut.item_code.tolist() == [2, 1]

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from(["a", "a\x00", "B", "é"]), st.sampled_from(["x", "y", "xy"]),
                                   st.integers(0, 5), st.integers(0, 9)), max_size=12),
           rated=st.booleans(), data=st.data())
    def test_take_equals_the_table_of_the_same_rows(self, rows, rated, data):
        def build(rows):
            users, items, ratings, timestamps = (list(column) for column in zip(*rows)) if rows else ([],) * 4
            return Interactions.from_ids(users, items, ratings if rated else None, timestamps)

        picked = data.draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=12 if rows else 0))
        cut = build(rows).take(np.array(picked, dtype=np.int64))
        want = build([rows[r] for r in picked])
        assert cut == want
        assert build_dataset(cut) == build_dataset(want)

    @pytest.mark.parametrize("user_ids, user_code, message", [
        (["b", "a"], [0], "user ids are not distinct and ascending"),
        (["a", "a"], [0], "user ids are not distinct and ascending"),
        (["a"], [1], "user codes outside 0..0"),
        (["a"], [-1], "user codes outside 0..0"),
    ], ids=["descending", "repeated", "code-past-the-ids", "negative-code"])
    def test_ids_and_codes_checked(self, user_ids, user_code, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Interactions(user_ids, ["i"], user_code, [0], None, [1])


class TestColumnSchema:
    @pytest.mark.parametrize("field, value", [
        ("user_col", -1), ("item_col", -2), ("rating_col", -1), ("timestamp_col", -1),
        ("user_col", 1.0), ("item_col", "1"), ("timestamp_col", True), ("rating_col", False),
    ])
    def test_bad_column_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a non-negative integer, got {re.escape(repr(value))}$"):
            ColumnSchema(**{field: value})

    def test_negative_user_column_rejected_before_reading(self):
        # a column counted from the end once read the wrong line's last field
        lines = ["9::1::5::1", "1::2::5::2::extra", "3::4::5::3"]
        with pytest.raises(ValueError, match="^user_col must be a non-negative integer, got -1$"):
            parse_interactions(lines, ColumnSchema(user_col=-1))

    def test_numpy_integer_columns_read_as_ints(self):
        schema = ColumnSchema(user_col=np.int64(1), item_col=np.int32(0), rating_col=None, timestamp_col=np.int64(3))
        assert parse_interactions(["i::u::5::7"], schema) == table(rec("u", "i", None, 7))


class TestParse:
    def test_movielens_layout(self):
        records = parse_interactions(["1::122::5::838985046"], ColumnSchema.movielens())
        assert records == table(rec("1", "122", 5, 838985046))

    def test_csv_layout(self):
        records = parse_interactions(["u1,i9,3,100"], ColumnSchema.csv())
        assert records == table(rec("u1", "i9", 3, 100))

    def test_empty_stream(self):
        assert parse_interactions([], ColumnSchema.movielens()) == table()

    def test_no_rating_column(self):
        schema = ColumnSchema(delimiter="\t", user_col=0, item_col=1, rating_col=None, timestamp_col=2)
        records = parse_interactions(["u\ti\t42"], schema)
        assert records.ratings is None

    def test_malformed_line_raises_with_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_interactions(["1::2::5::10", "garbage"], ColumnSchema.movielens())

    def test_skip_mode_counts(self, caplog):
        lines = ["1::2::5::10", "bad", "3::4::x::10", "5::6::5::20"]
        with caplog.at_level(logging.WARNING):
            records = parse_interactions(lines, ColumnSchema.movielens(), on_error="skip")
        assert records.ids()[0] == ["1", "5"]
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
        assert records.ids()[0] == ["1", "3"]
        assert "skipped 1" in caplog.text

    def test_negative_timestamp_raises_with_line_number(self):
        with pytest.raises(ParseError, match="^line 2: negative timestamp -1 for user 'u'$"):
            parse_interactions(["1::2::5::10", "u::i::5::-1"], ColumnSchema.movielens())

    @pytest.mark.parametrize("line, message", [
        ("u::i::5::9223372036854775808", "timestamp 9223372036854775808 does not fit in int64"),
        ("u::i::9223372036854775808::1", "rating 9223372036854775808 does not fit in int64"),
        ("u::i::-9223372036854775809::1", "rating -9223372036854775809 does not fit in int64"),
    ], ids=["timestamp-2**63", "rating-2**63", "rating-below-int64"])
    def test_value_outside_int64_raises_with_line_number(self, line, message):
        with pytest.raises(ParseError, match=f"^line 2: {message}$"):
            parse_interactions(["1::2::5::10", line], ColumnSchema.movielens())

    @pytest.mark.parametrize("line, message", [
        ("u::i::\u0665::1_000", "rating '\u0665' is not an integer"),
        ("v::j:: +5 ::2", "rating ' +5 ' is not an integer"),
        ("u::i::5::1_000", "timestamp '1_000' is not an integer"),
        ("u::i::5::\u0661\u0662", "timestamp '\u0661\u0662' is not an integer"),
        ("u::i::5::+2", "timestamp '+2' is not an integer"),
        ("u::i::5:: 2", "timestamp ' 2' is not an integer"),
        ("u::i::-::2", "rating '-' is not an integer"),
        ("u::i::--5::2", "rating '--5' is not an integer"),
    ], ids=["arabic-indic-rating", "spaces-and-plus", "underscore", "arabic-indic-timestamp", "plus", "space",
            "bare-minus", "double-minus"])
    def test_non_canonical_integer_raises_with_line_number(self, line, message):
        with pytest.raises(ParseError, match=f"^line 2: {re.escape(message)}$"):
            parse_interactions(["1::2::5::10", line], ColumnSchema.movielens())

    def test_non_canonical_integers_skipped_and_counted(self, caplog):
        lines = ["u::i::\u0665::1_000", "v::j:: +5 ::2", "w::k::05::007"]
        with caplog.at_level(logging.WARNING):
            records = parse_interactions(lines, ColumnSchema.movielens(), on_error="skip")
        # leading zeros are still ASCII digits
        assert records == table(rec("w", "k", 5, 7))
        assert "skipped 2" in caplog.text

    def test_byte_not_utf8_raises_with_line_number(self, tmp_path):
        path = tmp_path / "log.dat"
        path.write_bytes(b"1::2::5::10\n3::4\xc3::5::20\n")
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            with pytest.raises(ParseError, match="^line 2: byte 0xc3 is not valid UTF-8$"):
                parse_interactions(fh, ColumnSchema.movielens())

    def test_int64_bounds_parse_exactly(self):
        line = "u::i::-9223372036854775808::9223372036854775807"
        records = parse_interactions([line], ColumnSchema.movielens())
        assert records.ratings.tolist() == [-2**63] and records.timestamps.tolist() == [2**63 - 1]

    def test_value_outside_int64_skipped_and_counted(self, caplog):
        lines = ["1::2::5::10", "u::i::5::9223372036854775808", "u::j::9223372036854775808::1", "3::4::5::20"]
        with caplog.at_level(logging.WARNING):
            records = parse_interactions(lines, ColumnSchema.movielens(), on_error="skip")
        assert records == table(rec("1", "2", 5, 10), rec("3", "4", 5, 20))
        assert "skipped 2" in caplog.text


class TestFilterPositive:
    def test_keeps_only_rating_five(self):
        records = table(rec("u", "i", 5, 1), rec("u", "j", 4, 2))
        assert filter_positive(records) == table(rec("u", "i", 5, 1))

    def test_all_mode_keeps_review_records(self):
        records = table(rec("u", "i", None, 1), rec("u", "j", None, 2))
        assert filter_positive(records, "all") == records

    def test_empty_input(self):
        assert filter_positive(table()) == table()

    def test_missing_ratings_rejected_in_rating_mode(self):
        with pytest.raises(ValueError, match="no rating"):
            filter_positive(table(rec("u", "i", None, 1)))


class TestDeduplicate:
    def test_keeps_minimum_timestamp(self):
        records = table(rec("u", "i", 5, 100), rec("u", "i", 5, 50))
        assert deduplicate(records) == table(rec("u", "i", 5, 50))

    def test_timestamp_tie_keeps_first_occurrence(self):
        first = rec("u", "i", 5, 100)
        second = rec("u", "i", 4, 100)
        assert deduplicate(table(first, second)) == table(first)

    def test_distinct_pairs_unchanged(self):
        records = table(rec("u", "i", 5, 1), rec("u", "j", 5, 2), rec("v", "i", 5, 3))
        assert deduplicate(records) == records

    def test_idempotent(self):
        records = table(rec("u", "i", 5, 9), rec("u", "i", 5, 3), rec("v", "j", 5, 1))
        once = deduplicate(records)
        assert deduplicate(once) == once

    def test_ids_differing_by_a_trailing_nul_stay_apart(self):
        records = table(rec("u", "a", 5, 1), rec("u", "a\x00", 5, 2), rec("u\x00", "a", 5, 3))
        assert deduplicate(records) == records


class TestSubsampleUsers:
    def test_identity_under_limit(self):
        records = table(*(rec(f"u{j}", "i", 5, j) for j in range(3)))
        assert subsample_users(records, 20000, seed=1) == records

    def test_exact_user_count_and_determinism(self):
        records = table(*(rec(f"u{j:05d}", f"i{j % 7}", 5, j) for j in range(300)))
        sampled = subsample_users(records, 100, seed=42)
        assert len(set(sampled.ids()[0])) == 100
        assert subsample_users(records, 100, seed=42) == sampled

    def test_seed_changes_selection(self):
        records = table(*(rec(f"u{j:05d}", "i", 5, j) for j in range(50)))
        a = subsample_users(records, 10, seed=1)
        b = subsample_users(records, 10, seed=2)
        assert set(a.ids()[0]) != set(b.ids()[0])


class TestBuildDataset:
    def test_leave_last_two_out(self):
        dataset = build_dataset(table(rec("u", "a", 5, 1), rec("u", "b", 5, 2), rec("u", "c", 5, 3)))
        (seq,) = dataset.sequences
        assert seq.items == ("a",)
        assert dataset.validation == {"u": "b"}
        assert dataset.test == {"u": "c"}

    def test_short_user_dropped_from_splits_but_counted(self):
        dataset = build_dataset(table(rec("u", "a", 5, 1), rec("u", "b", 5, 2)))
        assert dataset.validation == {} and dataset.test == {}
        assert dataset.stats.n_dropped_users == 1
        assert dataset.stats.n_users == 1
        # the short history still belongs to the training corpus
        (seq,) = dataset.sequences
        assert seq.items == ("a", "b")

    def test_timestamp_tie_orders_by_item(self):
        dataset = build_dataset(table(rec("u", "b", 5, 7), rec("u", "a", 5, 7), rec("u", "c", 5, 9)))
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
        dataset = build_dataset(table(*records))
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
        dataset = build_dataset(table(*records))
        assert dataset.stats.n_records == len(records)
        assert dataset.stats.avg_length == dataset.stats.n_records / dataset.stats.n_users


class TestPersistence:
    def test_round_trip(self, tmp_path):
        records = [
            rec(u, i, 5, ts)
            for u, items in [("u1", "abcde"), ("u2", "cdb"), ("u3", "ab")]
            for ts, i in enumerate(items)
        ]
        dataset = build_dataset(table(*records))
        save_dataset(dataset, str(tmp_path))
        loaded = load_dataset(str(tmp_path))
        assert loaded == dataset

    def test_rerun_is_byte_identical(self, tmp_path):
        records = [rec("u", "a", 5, 1), rec("u", "b", 5, 2), rec("u", "c", 5, 3)]
        dataset = build_dataset(table(*records))
        out1, out2 = tmp_path / "one", tmp_path / "two"
        save_dataset(dataset, str(out1))
        save_dataset(dataset, str(out2))
        for name in ("train.tsv", "valid.tsv", "test.tsv", "stats.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("name", ["train.tsv", "valid.tsv", "test.tsv"])
    @pytest.mark.parametrize(
        "line, n_fields", [("u3\ti1\textra", 3), ("u3", 1)], ids=["three-fields", "one-field"]
    )
    def test_load_rejects_bad_line_with_location(self, tmp_path, name, line, n_fields):
        records = [rec(u, i, 5, ts) for u in ("u1", "u2") for ts, i in enumerate("abcd")]
        save_dataset(build_dataset(table(*records)), str(tmp_path))
        path = tmp_path / name
        with path.open("a") as fh:
            fh.write(line + "\n")
        n_lines = len(path.read_text().splitlines())
        with pytest.raises(
            ValueError, match=f"^{re.escape(str(path))}:{n_lines}: expected 2 tab-separated fields, got {n_fields}$"
        ):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("name", ["train.tsv", "valid.tsv", "test.tsv"])
    def test_load_rejects_byte_not_utf8_with_location(self, tmp_path, name):
        records = [rec(u, i, 5, ts) for u in ("u1", "u2") for ts, i in enumerate("abcd")]
        save_dataset(build_dataset(table(*records)), str(tmp_path))
        path = tmp_path / name
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + b"u2\t\xffx\n" + b"".join(lines[1:]))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: byte 0xff is not valid UTF-8$"):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("name", ["train.tsv", "valid.tsv", "test.tsv"])
    @pytest.mark.parametrize("edit, line", [
        (lambda lines: [row + b"\r" for row in lines], 1),
        (lambda lines: [lines[0], lines[1] + b"\rb", *lines[2:]], 2),
    ], ids=["crlf-endings", "cr-inside-a-line"])
    def test_load_rejects_carriage_return_at_its_physical_line(self, tmp_path, name, edit, line):
        # save_dataset never writes a "\r"; read as a line break, one would
        # load CRLF endings or move the line numbers below it
        records = [rec(u, i, 5, ts) for u in ("u1", "u2") for ts, i in enumerate("abcd")]
        save_dataset(build_dataset(table(*records)), str(tmp_path))
        path = tmp_path / name
        path.write_bytes(b"".join(row + b"\n" for row in edit(path.read_bytes().splitlines())))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: carriage return in line$"):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("name", ["valid.tsv", "test.tsv"])
    def test_load_rejects_repeated_held_out_user_with_location(self, tmp_path, name):
        records = [rec(u, i, 5, ts) for u in ("u1", "u2") for ts, i in enumerate("abcd")]
        save_dataset(build_dataset(table(*records)), str(tmp_path))
        path = tmp_path / name
        with path.open("a") as fh:
            fh.write("u1\ta\n")
        n_lines = len(path.read_text().splitlines())
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{n_lines}: user 'u1' repeated$"):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("name, line, message", [
        ("valid.tsv", "u1\ta", "item 'a' of user 'u1' repeats train.tsv:1"),
        ("test.tsv", "u1\tb", "item 'b' of user 'u1' repeats train.tsv:2"),
        ("test.tsv", "u1\tc", "item 'c' of user 'u1' repeats valid.tsv:1"),
    ], ids=["validation-in-train", "test-in-train", "test-is-validation"])
    def test_load_rejects_repeated_held_out_item_with_location(self, tmp_path, name, line, message):
        # u1 trains on a, b and holds out c, then d; u1's line is the first
        records = [rec(u, i, 5, ts) for u in ("u1", "u2") for ts, i in enumerate("abcd")]
        save_dataset(build_dataset(table(*records)), str(tmp_path))
        path = tmp_path / name
        rows = path.read_text().splitlines()
        assert rows[0].startswith("u1\t")
        path.write_text("\n".join([line, *rows[1:]]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: {message}$"):
            load_dataset(str(tmp_path))

    def test_load_rejects_item_repeated_in_train_with_location(self, tmp_path):
        # u1 trains on a, b; a third u1 line repeats a
        records = [rec(u, i, 5, ts) for u in ("u1", "u2") for ts, i in enumerate("abcd")]
        save_dataset(build_dataset(table(*records)), str(tmp_path))
        path = tmp_path / "train.tsv"
        rows = path.read_text().splitlines()
        assert rows[:2] == ["u1\ta", "u1\tb"]
        path.write_text("\n".join([*rows[:2], "u1\ta", *rows[2:]]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: item 'a' of user 'u1' repeats train.tsv:1$"):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("name, other", [("valid.tsv", "test.tsv"), ("test.tsv", "valid.tsv")])
    def test_load_rejects_user_held_out_in_one_split(self, tmp_path, name, other):
        records = [rec(u, i, 5, ts) for u in ("u1", "u2") for ts, i in enumerate("abcd")]
        save_dataset(build_dataset(table(*records)), str(tmp_path))
        path = tmp_path / name
        with path.open("a") as fh:
            fh.write("u9\ta\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: user 'u9' has no line in {other}$"):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("files, name, line, message", [
        ((["u1\ta", "u1\tb"], ["u1\tc", "u2\ta"], ["u1\td", "u2\tb"]), "valid.tsv", 2,
         "user 'u2' is held out but has no line in train.tsv"),
        ((["u1\ta", "u1\tb", "u2\ta", "u2\tb", "u2\tc", "u2\td"], ["u1\tc"], ["u1\td"]), "train.tsv", 5,
         "user 'u2' has a third training item but no held-out item"),
        ((["u2\ta", "u1\ta", "u2\tb", "u1\tb"], [], []), "train.tsv", 2,
         "user 'u1' sorts before user 'u2' above it"),
    ], ids=["held-out-without-training", "third-training-item-not-held-out", "users-not-ascending"])
    def test_load_rejects_split_build_dataset_never_writes(self, tmp_path, files, name, line, message):
        for split, lines in zip(("train.tsv", "valid.tsv", "test.tsv"), files):
            (tmp_path / split).write_text("".join(row + "\n" for row in lines))
        path = tmp_path / name
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: {message}$"):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("edit", [
        lambda path: path.write_text(path.read_text().replace('"n_items": 4', '"n_items": 3')),
        lambda path: path.write_text("not json"),
        lambda path: path.unlink(),
    ], ids=["disagrees", "not-json", "deleted"])
    def test_stats_counted_from_split_files_not_read(self, tmp_path, edit):
        records = [rec(u, i, 5, ts) for u in ("u1", "u2") for ts, i in enumerate("abcd")]
        dataset = build_dataset(table(*records))
        save_dataset(dataset, str(tmp_path))
        edit(tmp_path / "stats.json")
        # test.tsv's first line names an item new to every split
        path = tmp_path / "test.tsv"
        path.write_text(path.read_text().replace("u1\td", "u1\te"))
        loaded = load_dataset(str(tmp_path))
        assert loaded.stats == replace(dataset.stats, n_items=5)
        assert loaded.stats.n_items == len(loaded.item_universe)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from(["a", "a\x00", "B", "é", "u 1"]),
                                   st.sampled_from(["x", "y", "xy", "Z", "é"]), st.just(5),
                                   st.integers(0, 4)), max_size=20))
    def test_stats_survive_save_and_load(self, tmp_path_factory, rows):
        dataset = build_dataset(deduplicate(table(*rows)))
        out = tmp_path_factory.mktemp("dataset")
        save_dataset(dataset, str(out))
        assert load_dataset(str(out)).stats == dataset.stats
