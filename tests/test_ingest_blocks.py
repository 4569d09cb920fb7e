"""The block readers of ``pasrec.ingest`` against the line-at-a-time readers
they replaced, at block boundaries, and in bounded memory.

``reference_parse_interactions`` and ``reference_load_dataset`` are the
per-line ``parse_interactions`` and ``load_dataset`` that read one line at a
time: a list of fields per log line, and a dict of dicts per user of
``train.tsv``. The properties run both on random logs and split files with
faults mixed in, and on a built dataset's split files with one line edited,
with blocks a few lines long so that faults fall on either side of a block
boundary, and require the same table or dataset, or the same first error,
and the same count of skipped lines.
"""
import logging
import re
import tracemalloc
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pasrec.ingest as ingest
from pasrec.ingest import (
    ColumnSchema,
    Dataset,
    Interactions,
    ParseError,
    build_dataset,
    load_dataset,
    parse_interactions,
    save_dataset,
)

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1
SPLIT_FILES = {"train": "train.tsv", "valid": "valid.tsv", "test": "test.tsv"}


def reference_parse_interactions(lines, schema, on_error="raise"):
    """One row per well-formed line, checked and converted line by line."""
    delimiter, user_col, item_col = schema.delimiter, schema.user_col, schema.item_col
    rating_col, timestamp_col = schema.rating_col, schema.timestamp_col
    needed = max(user_col, item_col, timestamp_col, rating_col if rating_col is not None else 0)
    users, items, ratings, timestamps = [], [], [], []
    skipped = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        fields = line.split(delimiter)
        try:
            if len(fields) <= needed:
                raise ValueError(f"expected at least {needed + 1} fields, got {len(fields)}")
            user, item = fields[user_col], fields[item_col]
            ids = user + item
            if "\t" in ids or "\r" in ids or "\n" in ids:
                raise ValueError(f"user or item id contains a tab or line break: {user!r}, {item!r}")
            rating_text = "0" if rating_col is None else fields[rating_col]
            timestamp_text = fields[timestamp_col]
            if not (rating_text.isascii() and rating_text.removeprefix("-").isdigit()):
                raise ValueError(f"rating {rating_text!r} is not an integer")
            if not (timestamp_text.isascii() and timestamp_text.removeprefix("-").isdigit()):
                raise ValueError(f"timestamp {timestamp_text!r} is not an integer")
            rating, timestamp = int(rating_text), int(timestamp_text)
            if not INT64_MIN <= rating <= INT64_MAX:
                raise ValueError(f"rating {rating} does not fit in int64")
            if not 0 <= timestamp <= INT64_MAX:
                raise ValueError(f"negative timestamp {timestamp} for user {user!r}" if timestamp < 0
                                 else f"timestamp {timestamp} does not fit in int64")
        except ValueError as exc:
            if on_error == "raise":
                raise ParseError(lineno, str(exc)) from exc
            skipped += 1
            continue
        users.append(user)
        items.append(item)
        ratings.append(rating)
        timestamps.append(timestamp)
    return Interactions.from_ids(users, items, None if rating_col is None else ratings, timestamps), skipped


def reference_load_dataset(in_dir):
    """The dataset in ``in_dir``, read line by line into a dict per user."""
    def read_split(split):
        path = in_dir / SPLIT_FILES[split]
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                fields = line.rstrip("\n").split("\t")
                if len(fields) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 2 tab-separated fields, got {len(fields)}")
                yield lineno, fields[0], fields[1]

    per_user = defaultdict(dict)  # user -> item -> line of train.tsv
    seen = {}  # (user, item) -> the first file:line naming it
    splits = {"valid": {}, "test": {}}
    above = None
    for split, name in SPLIT_FILES.items():
        path = in_dir / name
        for lineno, user, item in read_split(split):
            if split in splits and user in splits[split]:
                raise ValueError(f"{path}:{lineno}: user {user!r} repeated")
            if (user, item) in seen:
                raise ValueError(f"{path}:{lineno}: item {item!r} of user {user!r} repeats {seen[user, item]}")
            if split == "train" and above is not None and user < above:
                raise ValueError(f"{path}:{lineno}: user {user!r} sorts before user {above!r} above it")
            seen[user, item] = f"{name}:{lineno}"
            if split == "train":
                per_user[user][item], above = lineno, user
            else:
                splits[split][user] = item
    lone = sorted(splits["valid"].keys() ^ splits["test"].keys())
    if lone:
        split, other = ("valid", "test") if lone[0] in splits["valid"] else ("test", "valid")
        raise ValueError(f"{in_dir / SPLIT_FILES[split]}: user {lone[0]!r} has no line in {SPLIT_FILES[other]}")
    thirds = sorted((list(lines.values())[2], user) for user, lines in per_user.items()
                    if len(lines) > 2 and user not in splits["valid"])
    if thirds:
        lineno, user = thirds[0]
        raise ValueError(f"{in_dir / SPLIT_FILES['train']}:{lineno}: user {user!r} has a third training item "
                         "but no held-out item")
    # valid.tsv names each of its users on one line, in line order
    for lineno, user in enumerate(splits["valid"], start=1):
        if user not in per_user:
            raise ValueError(f"{in_dir / SPLIT_FILES['valid']}:{lineno}: user {user!r} is held out but has no "
                             "line in train.tsv")
    users = sorted(per_user)
    train = [item for user in users for item in per_user[user]]
    names = train + [held[user] for held in splits.values() for user in users if user in held]
    universe = sorted(set(names))
    code = {name: j for j, name in enumerate(universe)}
    codes = np.array([code[name] for name in names], dtype=np.int64)
    held_codes = np.full((2, len(users)), -1, dtype=np.int64)
    held_codes[:, [user in splits["valid"] for user in users]] = codes[len(train):].reshape(2, -1)
    return Dataset(
        users=tuple(users),
        item_universe=tuple(universe),
        train_codes=codes[:len(train)],
        train_offsets=np.cumsum([0] + [len(per_user[user]) for user in users]),
        valid_codes=held_codes[0],
        test_codes=held_codes[1],
    )


def outcome(read, *args):
    """What ``read`` returns, or the type and message of what it raises."""
    try:
        return read(*args)
    except ValueError as exc:
        return type(exc), str(exc)


SCHEMAS = [
    ColumnSchema.movielens(),
    ColumnSchema.csv(),
    ColumnSchema(delimiter="\t", user_col=0, item_col=1, rating_col=None, timestamp_col=2),
    ColumnSchema(delimiter="|", user_col=2, item_col=0, rating_col=None, timestamp_col=1),
]
# ':' next to the '::' delimiter makes a line split apart from its neighbours
ids = st.sampled_from(["a", "b", "a\x00", "é", "x:", ":y", "a:b", "u\tv", "u\rv", "u\nv", ""])
numbers = st.sampled_from([
    "5", "5", "5", "4", "0", "-0", "-3", "05", "007", "+5", " 5", "", "x", "-", "--1", "1_0", "٥", "1.5",
    "9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
    "00000000000000000000009", "-00000000000000000000001", "99999999999999999999999",
])


@st.composite
def log_lines(draw, schema):
    """Lines of a log in ``schema``'s layout: well-formed most of the time,
    with a field missing or added, blank, or ended by CR LF or by nothing."""
    columns = [schema.user_col, schema.item_col, schema.timestamp_col]
    if schema.rating_col is not None:
        columns.append(schema.rating_col)
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "\n", "\r\n", "\r"])))
            continue
        fields = ["z"] * (max(columns) + 1)
        fields[schema.user_col], fields[schema.item_col] = draw(ids), draw(ids)
        fields[schema.timestamp_col] = draw(numbers)
        if schema.rating_col is not None:
            fields[schema.rating_col] = draw(numbers)
        width = draw(st.sampled_from([len(fields)] * 6 + [len(fields) - 1, len(fields) + 1, 1]))
        fields = (fields + ["extra"])[:width]
        lines.append(schema.delimiter.join(fields) + draw(st.sampled_from(["\n"] * 6 + ["\r\n", ""])))
    return lines


class TestParseAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), schema=st.sampled_from(SCHEMAS), block=st.integers(1, 7))
    def test_same_table_or_first_error_and_skip_count(self, data, schema, block):
        lines = data.draw(log_lines(schema))
        with mock.patch.object(ingest, "_BLOCK_LINES", block):
            raised = outcome(parse_interactions, lines, schema)
            with mock.patch.object(ingest.log, "warning") as warning:
                skipped = parse_interactions(lines, schema, on_error="skip")
        want = outcome(lambda: reference_parse_interactions(lines, schema)[0])
        assert raised == want
        table, n_skipped = reference_parse_interactions(lines, schema, on_error="skip")
        assert skipped == table
        assert warning.call_args_list == ([mock.call("skipped %d malformed lines", n_skipped)] if n_skipped else [])

    def test_multi_character_delimiter_beside_its_own_characters(self):
        # an extra field 'x:' before the next line reads 'x:::v' once the
        # lines are joined by '::'
        lines = ["x:::i::5::1\n", "u::i::5::1::x:\n", "v::j::5::2\n", ":u::i::5::4\n"]
        want = reference_parse_interactions(lines, ColumnSchema.movielens())[0]
        assert want.ids() == (["x", "u", "v", ":u"], [":i", "i", "j", "i"])
        for block in (1, 2, 4):
            with mock.patch.object(ingest, "_BLOCK_LINES", block):
                assert parse_interactions(lines, ColumnSchema.movielens()) == want


well_formed_lines = st.tuples(st.sampled_from(["u1", "u2", "u3", "u4"]),
                              st.sampled_from(["a", "b", "c", "d", "e"])).map("\t".join)
split_lines = st.one_of(well_formed_lines,
                        st.sampled_from(["u1", "u1\ta\tx", "", "\t", "u\rv\ta", "u1\ta b", "é\ta"]))


def write_split(path, lines, last_newline):
    text = "".join(line + "\n" for line in lines)
    path.write_bytes((text if last_newline or not text else text[:-1]).encode("utf-8"))


class TestLoadAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(
        train=st.lists(split_lines, max_size=14), valid=st.lists(split_lines, max_size=5),
        test=st.lists(split_lines, max_size=5), last_newline=st.booleans(), block=st.integers(1, 5),
        grouped=st.booleans(),
    )
    def test_same_dataset_or_first_error(self, tmp_path_factory, train, valid, test, last_newline, block,
                                         grouped):
        out = tmp_path_factory.mktemp("split")
        if grouped:
            # train.tsv by ascending user, as save_dataset writes it
            train = sorted(train, key=lambda line: line.split("\t")[0])
        for name, lines in (("train.tsv", train), ("valid.tsv", valid), ("test.tsv", test)):
            write_split(out / name, lines, last_newline)
        with mock.patch.object(ingest, "_BLOCK_LINES", block):
            got = outcome(load_dataset, str(out))
        assert got == outcome(reference_load_dataset, out)

    def test_well_formed_dataset_loads_the_same(self, tmp_path):
        rows = [(f"u{j % 7}", f"i{(j * 5) % 11}", 5, j) for j in range(90)]
        table = Interactions.from_ids(*map(list, zip(*rows)))
        save_dataset(build_dataset(ingest.deduplicate(table)), str(tmp_path))
        with mock.patch.object(ingest, "_BLOCK_LINES", 4):
            assert load_dataset(str(tmp_path)) == reference_load_dataset(tmp_path)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.sampled_from(["u1", "u2", "u3", "u4"]), st.sampled_from("abcdefg")),
                      min_size=1, max_size=12),
        name=st.sampled_from(sorted(SPLIT_FILES.values())),
        edit=st.sampled_from(["drop", "repeat", "move", "item", "add"]), data=st.data(), block=st.integers(1, 5),
    )
    def test_edited_dataset_same_dataset_or_first_error(self, tmp_path_factory, rows, name, edit, data, block):
        # the split files of a built dataset, one line of one file dropped,
        # repeated, moved or given another item, or a line added
        out = tmp_path_factory.mktemp("edited")
        users, items = map(list, zip(*rows))
        table = Interactions.from_ids(users, items, [5] * len(rows), range(len(rows)))
        save_dataset(build_dataset(ingest.deduplicate(table)), str(out))
        lines = (out / name).read_text().splitlines()
        if edit == "add":
            lines.insert(data.draw(st.integers(0, len(lines))), data.draw(well_formed_lines))
        elif lines:
            line = lines.pop(data.draw(st.integers(0, len(lines) - 1)))
            if edit == "item":
                line = line.split("\t")[0] + "\t" + data.draw(st.sampled_from("abcdefgh"))
            for _ in range({"drop": 0, "move": 1, "item": 1, "repeat": 2}[edit]):
                lines.insert(data.draw(st.integers(0, len(lines))), line)
        write_split(out / name, lines, last_newline=True)
        with mock.patch.object(ingest, "_BLOCK_LINES", block):
            got = outcome(load_dataset, str(out))
        assert got == outcome(reference_load_dataset, out)


def log_text(n_lines, bad_at=None, bad_line="u::i::x::1"):
    """A well-formed log of ``n_lines`` lines, the 1-based line ``bad_at``
    replaced by ``bad_line``."""
    lines = [f"u{j // 20:05d}::i{(j * 7) % 5000:05d}::5::{j % 100}\n" for j in range(n_lines)]
    if bad_at is not None:
        lines[bad_at - 1] = bad_line + "\n"
    return lines


class TestBlockBoundaries:
    def test_log_line_past_the_first_block_raises_with_its_number(self):
        bad = ingest._BLOCK_LINES + 1
        lines = log_text(ingest._BLOCK_LINES + 5, bad_at=bad)
        with pytest.raises(ParseError, match=f"^line {bad}: rating 'x' is not an integer$"):
            parse_interactions(lines, ColumnSchema.movielens())

    def test_log_line_past_the_first_block_skipped_and_counted(self, caplog):
        n = ingest._BLOCK_LINES + 5
        lines = log_text(n, bad_at=ingest._BLOCK_LINES + 1)
        with caplog.at_level(logging.WARNING):
            table = parse_interactions(lines, ColumnSchema.movielens(), on_error="skip")
        assert len(table) == n - 1 and "skipped 1 malformed lines" in caplog.text
        kept = lines[:ingest._BLOCK_LINES] + lines[ingest._BLOCK_LINES + 1:]
        assert table == parse_interactions(kept, ColumnSchema.movielens())

    @pytest.mark.parametrize("name", ["train.tsv", "valid.tsv", "test.tsv"])
    def test_split_line_past_the_first_block_fails_with_its_location(self, tmp_path, name):
        # one more user than a block holds, each with a line in every file
        users = ingest._BLOCK_LINES + 1
        rows = [(f"u{u:05d}", f"i{(u + k) % 50:02d}", 5, k) for u in range(users) for k in range(3)]
        save_dataset(build_dataset(Interactions.from_ids(*map(list, zip(*rows)))), str(tmp_path))
        path = tmp_path / name
        lines = path.read_text().splitlines()
        bad = ingest._BLOCK_LINES + 1
        lines[bad - 1] = "u1\tx\ty"
        path.write_text("\n".join(lines) + "\n")
        message = f"^{re.escape(str(path))}:{bad}: expected 2 tab-separated fields, got 3$"
        with pytest.raises(ValueError, match=message):
            load_dataset(str(tmp_path))


def traced_peak(read):
    """The tracemalloc peak, in bytes, of ``read()``, holding its result."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = read()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Peak memory per input line, read eight blocks at a time.

    A reader holding every token of its input at once keeps four strings of
    about 55 bytes and four pointers per log line, and two of each per
    split-file line. Read as one block, these inputs peak at about 450
    bytes per log line and 260 per split-file line; the line-at-a-time
    readers, which keep a string per id, at about 176 and 152. The block
    readers peak near 121 and 90: their codes and values, and one block of
    tokens. A parser that also kept a list of ids per row peaked at 134."""

    N_LINES = 8 * ingest._BLOCK_LINES

    def test_parse_peak_per_line(self):
        lines = log_text(self.N_LINES)
        peak, table = traced_peak(lambda: parse_interactions(lines, ColumnSchema.movielens()))
        assert len(table) == self.N_LINES
        assert peak / self.N_LINES <= 128

    def test_load_peak_per_line(self, tmp_path):
        rows = [(f"u{j // 20:05d}", f"i{(j * 7) % 5000:05d}", 5, j % 100) for j in range(self.N_LINES)]
        save_dataset(build_dataset(Interactions.from_ids(*map(list, zip(*rows)))), str(tmp_path))
        peak, dataset = traced_peak(lambda: load_dataset(str(tmp_path)))
        n_lines = len(dataset.train_codes) + 2 * dataset.stats.n_eval_users
        assert n_lines == self.N_LINES
        assert peak / n_lines <= 110
