"""Interaction-log parsing, preprocessing, and leave-last-two-out splits.

``parse_interactions`` reads a log into one columnar table,
``Interactions``: user and item ids as lists of str, ratings and timestamps
as int64 arrays. Every later stage is an array pass over that table: keep
positive feedback (a mask) -> drop duplicate (user, item) pairs keeping the
earliest (one lexsort) -> optionally subsample users -> split per user into
training sequence / validation item / test item (one lexsort).

Ids are interned through ``sorted(set(...))`` and a dict, so a code's order
is its id's order under Python's string comparison. numpy's fixed-width
strings are avoided: they drop trailing NULs and would merge 'a\\x00' with
'a'.
"""
from __future__ import annotations

import json
import logging
import math
import os
import random
from dataclasses import dataclass, asdict
from collections import defaultdict
from collections.abc import Iterable, Iterator
from functools import cached_property

import numpy as np

from .domain import UserSequence

log = logging.getLogger(__name__)

_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1


class ParseError(ValueError):
    """Malformed input line, carrying the 1-based line number."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class ColumnSchema:
    """Column layout of a delimiter-separated interaction log."""

    delimiter: str = "::"
    user_col: int = 0
    item_col: int = 1
    rating_col: int | None = 2
    timestamp_col: int = 3

    @classmethod
    def movielens(cls) -> "ColumnSchema":
        return cls(delimiter="::")

    @classmethod
    def csv(cls) -> "ColumnSchema":
        return cls(delimiter=",")


def _intern(ids: list[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct ids, and each id's position among them."""
    vocab = sorted(set(ids))
    code = {name: j for j, name in enumerate(vocab)}
    return vocab, np.fromiter(map(code.__getitem__, ids), dtype=np.int64, count=len(ids))


@dataclass(frozen=True, eq=False)
class Interactions:
    """Interaction events as columns, one row per event in log order.

    ``ratings`` is None for a log without a rating column. Timestamps are
    non-negative.
    """

    users: list[str]
    items: list[str]
    ratings: np.ndarray | None
    timestamps: np.ndarray

    def __post_init__(self) -> None:
        columns = {"users": list(self.users), "items": list(self.items),
                   "timestamps": np.asarray(self.timestamps, dtype=np.int64)}
        if self.ratings is not None:
            columns["ratings"] = np.asarray(self.ratings, dtype=np.int64)
        lengths = {name: len(column) for name, column in columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"columns differ in length: {lengths}")
        for name, column in columns.items():
            object.__setattr__(self, name, column)
        if len(self.timestamps) and self.timestamps.min() < 0:
            row = int(np.argmax(self.timestamps < 0))
            raise ValueError(f"negative timestamp {self.timestamps[row]} for user {self.users[row]!r}")

    def __len__(self) -> int:
        return len(self.timestamps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interactions):
            return NotImplemented
        return (self.users == other.users and self.items == other.items
                and np.array_equal(self.timestamps, other.timestamps)
                and (self.ratings is None) == (other.ratings is None)
                and (self.ratings is None or np.array_equal(self.ratings, other.ratings)))

    # codes index a sorted vocabulary; a table cut by ``take`` keeps its
    # parent's, which may hold ids the cut no longer uses
    @cached_property
    def user_codes(self) -> tuple[list[str], np.ndarray]:
        return _intern(self.users)

    @cached_property
    def item_codes(self) -> tuple[list[str], np.ndarray]:
        return _intern(self.items)

    def take(self, rows: np.ndarray) -> "Interactions":
        """The table of the rows at ``rows``, in that order."""
        picked = rows.tolist()
        cut = Interactions(
            users=[self.users[r] for r in picked],
            items=[self.items[r] for r in picked],
            ratings=None if self.ratings is None else self.ratings[rows],
            timestamps=self.timestamps[rows],
        )
        for name in ("user_codes", "item_codes"):
            if name in self.__dict__:
                vocab, codes = self.__dict__[name]
                cut.__dict__[name] = (vocab, codes[rows])
        return cut


@dataclass(frozen=True)
class DatasetStats:
    n_users: int
    n_items: int
    n_records: int
    avg_length: float
    n_eval_users: int
    n_dropped_users: int


@dataclass(frozen=True, eq=False)
class Dataset:
    """Training sequences and held-out items of ascending ``users`` as int64
    codes, an item's code being its position in ``item_universe`` (the items
    of every split, ascending). User r's training items, in sequence order,
    are train_codes[train_offsets[r]:train_offsets[r + 1]]; valid_codes[r]
    and test_codes[r] are their held-out items, -1 where they have none.
    ``sequences``, ``validation`` and ``test`` are views of these arrays,
    built on first use."""

    users: tuple[str, ...]
    item_universe: tuple[str, ...]
    train_codes: np.ndarray
    train_offsets: np.ndarray
    valid_codes: np.ndarray
    test_codes: np.ndarray
    stats: DatasetStats

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        arrays = ("train_codes", "train_offsets", "valid_codes", "test_codes")
        return ((self.users, self.item_universe, self.stats) == (other.users, other.item_universe, other.stats)
                and all(np.array_equal(getattr(self, name), getattr(other, name)) for name in arrays))

    @cached_property
    def sequences(self) -> tuple[UserSequence, ...]:
        """The training sequence of each user who has one, in user order."""
        names = [self.item_universe[code] for code in self.train_codes.tolist()]
        bounds = self.train_offsets.tolist()
        return tuple(UserSequence.from_items(user, names[lo:hi])
                     for user, lo, hi in zip(self.users, bounds, bounds[1:]) if hi > lo)

    @cached_property
    def validation(self) -> dict[str, str]:
        """user -> validation item."""
        return {self.users[r]: self.item_universe[c] for r, c in enumerate(self.valid_codes.tolist()) if c >= 0}

    @cached_property
    def test(self) -> dict[str, str]:
        """user -> test item."""
        return {self.users[r]: self.item_universe[c] for r, c in enumerate(self.test_codes.tolist()) if c >= 0}


def parse_interactions(
    lines: Iterable[str], schema: ColumnSchema, on_error: str = "raise"
) -> Interactions:
    """Parse one row per well-formed line, in file order.

    A line is malformed when it has too few fields, a tab or line break in
    an id, a rating or timestamp that is not an optional '-' followed by
    ASCII digits or does not fit in int64, or a negative timestamp.
    on_error="raise" fails fast with the offending line number;
    on_error="skip" drops malformed lines and logs how many were skipped.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
    delimiter, user_col, item_col = schema.delimiter, schema.user_col, schema.item_col
    rating_col, timestamp_col = schema.rating_col, schema.timestamp_col
    needed = max(user_col, item_col, timestamp_col, rating_col if rating_col is not None else 0)
    users: list[str] = []
    items: list[str] = []
    ratings: list[int] = []
    timestamps: list[int] = []
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
            # the split files are tab-separated, one record per line
            ids = user + item
            if "\t" in ids or "\r" in ids or "\n" in ids:
                raise ValueError(f"user or item id contains a tab or line break: {user!r}, {item!r}")
            # int() would also take spaces, '+', '_' and non-ASCII digits
            rating_text = "0" if rating_col is None else fields[rating_col]
            timestamp_text = fields[timestamp_col]
            if not (rating_text.isascii() and rating_text.removeprefix("-").isdigit()):
                raise ValueError(f"rating {rating_text!r} is not an integer")
            if not (timestamp_text.isascii() and timestamp_text.removeprefix("-").isdigit()):
                raise ValueError(f"timestamp {timestamp_text!r} is not an integer")
            rating, timestamp = int(rating_text), int(timestamp_text)
            if not _INT64_MIN <= rating <= _INT64_MAX:
                raise ValueError(f"rating {rating} does not fit in int64")
            if not 0 <= timestamp <= _INT64_MAX:
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
    if skipped:
        log.warning("skipped %d malformed lines", skipped)
    return Interactions(users, items, None if rating_col is None else ratings, timestamps)


def filter_positive(table: Interactions, threshold_mode: str = "rating_equals_5") -> Interactions:
    """Keep positive feedback: rows rated exactly 5, or everything for
    review-style logs (threshold_mode="all").
    """
    if threshold_mode == "all":
        return table
    if threshold_mode != "rating_equals_5":
        raise ValueError(f"unknown threshold_mode {threshold_mode!r}")
    if table.ratings is None:
        raise ValueError("the interactions have no rating column; use threshold_mode='all'")
    keep = table.ratings == 5
    return table if keep.all() else table.take(np.flatnonzero(keep))


def deduplicate(table: Interactions) -> Interactions:
    """Keep only the earliest row per (user, item) pair, breaking timestamp
    ties by first occurrence. Output preserves the input order of survivors.
    """
    _, user_code = table.user_codes
    item_vocab, item_code = table.item_codes
    pair = user_code * len(item_vocab) + item_code
    # lexsort is stable, so rows of one pair and timestamp stay in input order
    order = np.lexsort((table.timestamps, pair))
    first = np.ones(len(order), dtype=bool)
    np.not_equal(pair[order[1:]], pair[order[:-1]], out=first[1:])
    return table if first.all() else table.take(np.sort(order[first]))


def subsample_users(table: Interactions, max_users: int, seed: int) -> Interactions:
    """Keep all rows of a seeded uniform sample of exactly max_users users,
    or everything when there are no more users than that.
    """
    if max_users < 1:
        raise ValueError(f"max_users must be >= 1, got {max_users}")
    _, user_code = table.user_codes
    present = np.unique(user_code)
    if len(present) <= max_users:
        return table
    # code order is id order: this draws the users that sampling the sorted
    # ids would
    chosen = random.Random(seed).sample(present.tolist(), max_users)
    return table.take(np.flatnonzero(np.isin(user_code, chosen)))


def build_dataset(table: Interactions) -> Dataset:
    """Split deduplicated rows into per-user training sequences and held-out
    items: chronologically last interaction -> test, second-to-last ->
    validation. Timestamp ties order by item identifier, then input order.

    Users with fewer than 3 interactions cannot hold out two items; their
    history stays in the training corpus, but they are excluded from the
    validation/test maps and counted in the stats.
    """
    user_vocab, user_code = table.user_codes
    item_vocab, item_code = table.item_codes
    # lexsort is stable, so full ties stay in input order
    order = np.lexsort((item_code, table.timestamps, user_code))
    by_user = user_code[order]
    starts = np.flatnonzero(np.diff(by_user, prepend=-1))
    lengths = np.diff(starts, append=len(order))
    held = lengths >= 3
    n_train = np.where(held, lengths - 2, lengths)
    in_train = np.arange(len(order)) - np.repeat(starts, lengths) < np.repeat(n_train, lengths)
    present = np.flatnonzero(np.bincount(item_code, minlength=len(item_vocab)))
    codes = np.searchsorted(present, item_code[order])
    universe = tuple(item_vocab[code] for code in present.tolist())
    n_users, n_records, n_eval = len(starts), len(table), int(np.count_nonzero(held))
    stats = DatasetStats(
        n_users=n_users,
        n_items=len(universe),
        n_records=n_records,
        avg_length=n_records / n_users if n_users else 0.0,
        n_eval_users=n_eval,
        n_dropped_users=n_users - n_eval,
    )
    log.info(
        "dataset: %d users (%d evaluable), %d items, %d records, avg length %.2f",
        n_users, n_eval, len(universe), n_records, stats.avg_length,
    )
    return Dataset(
        users=tuple(user_vocab[code] for code in by_user[starts].tolist()),
        item_universe=universe,
        train_codes=codes[in_train],
        train_offsets=np.concatenate(([0], np.cumsum(n_train))),
        valid_codes=np.where(held, codes[starts + lengths - 2], -1),
        test_codes=np.where(held, codes[starts + lengths - 1], -1),
        stats=stats,
    )


STATS_FILE = "stats.json"
_SPLIT_FILES = {"train": "train.tsv", "valid": "valid.tsv", "test": "test.tsv"}


def save_dataset(dataset: Dataset, out_dir: str) -> None:
    """Persist as three sorted TSV split files plus a stats JSON.

    train.tsv holds one row per (user, item) in sequence order; file order is
    the canonical chronological order within each user.
    """
    os.makedirs(out_dir, exist_ok=True)
    users, names = dataset.users, dataset.item_universe
    lines = {"train": (np.repeat(np.arange(len(users)), np.diff(dataset.train_offsets)), dataset.train_codes)}
    for split, codes in (("valid", dataset.valid_codes), ("test", dataset.test_codes)):
        lines[split] = (np.flatnonzero(codes >= 0), codes[codes >= 0])
    for split, (rows, codes) in lines.items():
        with open(_split_path(out_dir, split), "w", encoding="utf-8") as fh:
            fh.writelines(f"{users[row]}\t{names[code]}\n" for row, code in zip(rows.tolist(), codes.tolist()))
    payload = {"format_version": 1, **asdict(dataset.stats)}
    with open(os.path.join(out_dir, STATS_FILE), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _split_path(in_dir: str, split: str) -> str:
    return os.path.join(in_dir, _SPLIT_FILES[split])


def _read_split(in_dir: str, split: str) -> Iterator[tuple[int, str, str]]:
    """(line number, user, item) of each line of a split file."""
    path = _split_path(in_dir, split)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 tab-separated fields, got {len(fields)}")
            yield lineno, fields[0], fields[1]


def load_dataset(in_dir: str) -> Dataset:
    """Read a dataset that ``save_dataset`` wrote. A user's training items
    are distinct. A held-out split file holds one line per user, and its item
    must be new to the user: neither in their training sequence nor, for the
    test item, their validation item. A line that breaks this fails with its
    ``path:line``.
    """
    per_user: defaultdict[str, dict[str, int]] = defaultdict(dict)  # user -> item -> its train line
    train_path = _split_path(in_dir, "train")
    for lineno, user, item in _read_split(in_dir, "train"):
        first = per_user[user].setdefault(item, lineno)
        if first != lineno:
            raise ValueError(f"{train_path}:{lineno}: item {item!r} of user {user!r} repeats line {first}")
    splits: dict[str, dict[str, str]] = {"valid": {}, "test": {}}
    for split, name in (("valid", "validation"), ("test", "test")):
        held, path = splits[split], _split_path(in_dir, split)
        for lineno, user, item in _read_split(in_dir, split):
            if user in held:
                raise ValueError(f"{path}:{lineno}: user {user!r} repeated")
            if item in per_user.get(user, ()):
                raise ValueError(f"{path}:{lineno}: {name} item {item!r} of user {user!r} is already in "
                                 f"{_SPLIT_FILES['train']}")
            if split == "test" and splits["valid"].get(user) == item:
                raise ValueError(f"{path}:{lineno}: test item {item!r} of user {user!r} is also their "
                                 "validation item")
            held[user] = item
    # a held-out user has both a validation and a test item
    lone = sorted(splits["valid"].keys() ^ splits["test"].keys())
    if lone:
        split, other = ("valid", "test") if lone[0] in splits["valid"] else ("test", "valid")
        raise ValueError(f"{_split_path(in_dir, split)}: user {lone[0]!r} has no line in {_SPLIT_FILES[other]}")
    with open(os.path.join(in_dir, STATS_FILE), encoding="utf-8") as fh:
        payload = json.load(fh)
    payload.pop("format_version", None)
    stats = DatasetStats(**payload)
    # a held-out user may have no training line
    users = sorted(per_user.keys() | splits["valid"].keys())
    train = [item for user in users for item in per_user.get(user, ())]
    universe, codes = _intern(train + [held[user] for held in splits.values() for user in users if user in held])
    held_codes = np.full((2, len(users)), -1, dtype=np.int64)
    held_codes[:, [user in splits["valid"] for user in users]] = codes[len(train):].reshape(2, -1)
    return Dataset(
        users=tuple(users),
        item_universe=tuple(universe),
        train_codes=codes[:len(train)],
        train_offsets=np.cumsum([0] + [len(per_user.get(user, ())) for user in users]),
        valid_codes=held_codes[0],
        test_codes=held_codes[1],
        stats=stats,
    )


def check_stats_consistency(stats: DatasetStats, tolerance: float = 0.01) -> bool:
    """users * average length must reproduce the record count within tolerance."""
    if stats.n_records == 0:
        return stats.n_users == 0
    implied = stats.n_users * stats.avg_length
    return math.isclose(implied, stats.n_records, rel_tol=tolerance)
