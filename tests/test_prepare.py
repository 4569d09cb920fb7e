"""``prepare``'s stages against a per-record reference of the documented
rules, and digests of the split files it writes for two synthetic corpora.

The reference below is written from the rules in the ``ingest`` docstrings
and shares no code with ``ingest``: it parses line by line, keeps rating-5
records, keeps the earliest record of each (user, item) pair (the first seen
on a timestamp tie), samples ``random.Random(seed).sample`` over the sorted
user ids, and holds out each user's last two records in (timestamp, item
id, input order) order.
"""
import hashlib
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import pasrec.ingest as ingest
from pasrec.cli import main
from pasrec.ingest import (
    ColumnSchema,
    ParseError,
    build_dataset,
    deduplicate,
    filter_positive,
    parse_interactions,
    subsample_users,
)

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1


def reference_parse(lines):
    """(user, item, rating, timestamp) of each well-formed line, the number
    of malformed lines, and the line number of the first."""
    rows, skipped, first_bad = [], 0, None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if line == "":
            continue
        fields = line.split("::")
        row = None
        if (len(fields) >= 4 and not any(c in fields[0] + fields[1] for c in "\t\r\n")
                and all(re.fullmatch("-?[0-9]+", text) for text in fields[2:4])):
            rating, timestamp = int(fields[2]), int(fields[3])
            if INT64_MIN <= rating <= INT64_MAX and 0 <= timestamp <= INT64_MAX:
                row = (fields[0], fields[1], rating, timestamp)
        if row is None:
            skipped += 1
            first_bad = first_bad or lineno
        else:
            rows.append(row)
    return rows, skipped, first_bad


def reference_dedup(rows):
    earliest = {}
    for order, (user, item, _, timestamp) in enumerate(rows):
        if (user, item) not in earliest or timestamp < earliest[user, item][0]:
            earliest[user, item] = (timestamp, order)
    keep = {order for _, order in earliest.values()}
    return [row for order, row in enumerate(rows) if order in keep]


def reference_subsample(rows, max_users, seed):
    users = sorted({row[0] for row in rows})
    if len(users) <= max_users:
        return rows
    chosen = set(random.Random(seed).sample(users, max_users))
    return [row for row in rows if row[0] in chosen]


def reference_split(rows):
    """(user, training items) per user in id order, the validation and test
    maps, the item universe and the number of users too short to split."""
    events = {}
    for order, (user, item, _, timestamp) in enumerate(rows):
        events.setdefault(user, []).append((timestamp, item, order))
    sequences, validation, test, dropped = [], {}, {}, 0
    for user in sorted(events):
        items = [item for _, item, _ in sorted(events[user])]
        if len(items) < 3:
            dropped += 1
            sequences.append((user, tuple(items)))
            continue
        sequences.append((user, tuple(items[:-2])))
        validation[user], test[user] = items[-2], items[-1]
    universe = tuple(sorted({row[1] for row in rows}))
    return sequences, validation, test, universe, dropped


def as_rows(table):
    return list(zip(*table.ids(), table.ratings.tolist(), table.timestamps.tolist()))


# ids that differ only by a trailing NUL, or by case, must stay apart; few
# enough of them that pairs repeat
users = st.sampled_from(["a", "a\x00", "B", "\x00", "é"])
items = st.sampled_from(["a", "a\x00", "b", "ab"])
good_lines = st.builds(
    lambda user, item, rating, timestamp: f"{user}::{item}::{rating}::{timestamp}",
    users, items, st.sampled_from([5, 5, 5, 4, 1]), st.integers(0, 4),
)
bad_lines = st.sampled_from([
    "garbage", "a::b::5", "a::b::x::1", "a::b::5::-1", "a::b::5::1.5",
    "a::b::5::9223372036854775808", "a::b::9223372036854775808::1",
    "a\tb::c::5::1", "a::b\rc::5::1", "a::b:: 5::1", "a::b::+5::1", "a::b::5::1_0", "a::b::\u0665::1",
])
logs = st.lists(
    st.one_of(good_lines, good_lines, good_lines, good_lines.map(lambda line: line + "\r\n"), bad_lines,
              st.just("")),
    max_size=40,
)


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(lines=logs, max_users=st.integers(1, 8), seed=st.integers(0, 2**32))
    def test_skip_mode_stages_match(self, lines, max_users, seed):
        want_rows, skipped, _ = reference_parse(lines)
        with mock.patch.object(ingest.log, "warning") as warning:
            table = parse_interactions(lines, ColumnSchema.movielens(), on_error="skip")
        assert as_rows(table) == want_rows
        assert warning.call_args_list == ([mock.call("skipped %d malformed lines", skipped)] if skipped else [])

        want_rows = [row for row in want_rows if row[2] == 5]
        table = filter_positive(table)
        assert as_rows(table) == want_rows
        want_rows = reference_dedup(want_rows)
        table = deduplicate(table)
        assert as_rows(table) == want_rows
        want_rows = reference_subsample(want_rows, max_users, seed)
        table = subsample_users(table, max_users, seed)
        assert as_rows(table) == want_rows

        sequences, validation, test, universe, dropped = reference_split(want_rows)
        dataset = build_dataset(table)
        assert [(seq.user, seq.items) for seq in dataset.sequences] == sequences
        assert dataset.validation == validation and dataset.test == test
        assert dataset.item_universe == universe
        stats = dataset.stats
        assert (stats.n_users, stats.n_items, stats.n_records) == (len(sequences), len(universe), len(want_rows))
        assert (stats.n_eval_users, stats.n_dropped_users) == (len(test), dropped)

    @settings(max_examples=100, deadline=None)
    @given(lines=logs)
    def test_raise_mode_names_the_first_malformed_line(self, lines):
        want_rows, _, first_bad = reference_parse(lines)
        if first_bad is None:
            assert as_rows(parse_interactions(lines, ColumnSchema.movielens())) == want_rows
            return
        with pytest.raises(ParseError) as caught:
            parse_interactions(lines, ColumnSchema.movielens())
        assert caught.value.line_number == first_bad


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# split-file digests written by the record-at-a-time implementation that the
# columnar one replaced
@pytest.mark.parametrize("synth, prepare, digests", [
    (
        ["--users", "400", "--items", "150", "--min-len", "3", "--max-len", "30", "--signal", "0.6",
         "--reverse-noise", "0.1", "--seed", "5"],
        [],
        {
            "train.tsv": "3392338f2dd8fc7c822a70f8042037d258e9d37736a65bb8b797ff8f509f422a",
            "valid.tsv": "f3e79f602e8de6172572fa6976e62bc305b4bad2c4455f64a6d53567a6a6a7de",
            "test.tsv": "9dcca4d963bae0aea4b3b58ab9dd9c5127518c7cce4dc2fc9d9ccd847a05e996",
        },
    ),
    (
        ["--users", "300", "--items", "80", "--min-len", "3", "--max-len", "12", "--seed", "11"],
        ["--max-users", "120", "--seed", "3"],
        {
            "train.tsv": "939576f681c90ed7e1e3404319a18305b50fea390988ba4064f2452fcb4d7863",
            "valid.tsv": "b890a13fdebbc4ed8967953972f8d8c275301f4061ef133a378fb59b84c909a9",
            "test.tsv": "8cea22cbb973f2f4e0c0673db4c959cc3cfd4bea5906b73be1df91551cdf3222",
        },
    ),
], ids=["all-users", "max-users"])
def test_split_files_match_pinned_digests(tmp_path, synth, prepare, digests):
    log, out = tmp_path / "log.dat", tmp_path / "data"
    assert main(["-q", "synth", "--out", str(log), *synth]) == 0
    assert main(["-q", "prepare", "--input", str(log), "--out", str(out), *prepare]) == 0
    assert {name: sha256(out / name) for name in digests} == digests
