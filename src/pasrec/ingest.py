"""Interaction-log parsing, preprocessing, and leave-last-two-out splits.

``parse_interactions`` reads a log into one columnar table,
``Interactions``: the sorted distinct user and item ids, int64 codes into
them per row, and int64 ratings and timestamps. It reads ``_BLOCK_LINES``
lines at a time: each block is joined and split into columns once, each
distinct rating or timestamp text is checked and converted once, and ids
are encoded as they come. Every later stage is an array pass over the
codes, and none reads a row's id: keep positive feedback (a mask) -> drop
duplicate (user, item) pairs keeping the earliest (one lexsort) ->
optionally subsample users -> split per user into training sequence /
validation item / test item (one lexsort).

``save_dataset`` writes the split files one ``%`` format per block of
lines, and ``stats.json``. ``load_dataset`` reads the three split files back
in blocks into user and item codes, and checks the codes of all their lines
together with array passes, a user's items across all three files by one
rule; it does not read ``stats.json``, as a ``Dataset`` derives its stats
from its arrays. Both readers name the line of the first fault they meet,
and hold one block of text at a time.

Ids are interned through a dict and ``sorted``, so a code's order is its
id's order under Python's string comparison. numpy's fixed-width strings
are avoided: they drop trailing NULs and would merge 'a\\x00' with 'a'.
"""
from __future__ import annotations

import itertools
import json
import logging
import os
import random
import re
from dataclasses import dataclass, asdict
from collections.abc import Iterable, Iterator
from functools import cached_property
from numbers import Integral

import numpy as np

from .domain import UserSequence, is_number

log = logging.getLogger(__name__)

_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1
_BLOCK_LINES = 4096  # input lines read, split and checked at a time
# how errors="surrogateescape" decodes a byte that is not UTF-8
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


class ParseError(ValueError):
    """Malformed input line, carrying the 1-based line number and the reason."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number, self.message = line_number, message


@dataclass(frozen=True)
class ColumnSchema:
    """Column layout of a delimiter-separated interaction log."""

    delimiter: str = "::"
    user_col: int = 0
    item_col: int = 1
    rating_col: int | None = 2
    timestamp_col: int = 3

    def __post_init__(self) -> None:
        for name in ("user_col", "item_col", "rating_col", "timestamp_col"):
            column = getattr(self, name)
            if column is None and name == "rating_col":
                continue  # a log without ratings
            if not (is_number(column, Integral) and column >= 0):
                raise ValueError(f"{name} must be a non-negative integer, got {column!r}")

    @classmethod
    def movielens(cls) -> "ColumnSchema":
        return cls(delimiter="::")

    @classmethod
    def csv(cls) -> "ColumnSchema":
        return cls(delimiter=",")


def _encode(names: list[str], codes: dict[str, int]) -> np.ndarray:
    """Each name's code in ``codes``, a name new to it taking the next code."""
    codes.update(zip(set(names).difference(codes), itertools.count(len(codes))))
    return np.fromiter(map(codes.__getitem__, names), dtype=np.int64, count=len(names))


def _ranks(codes: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """The names of ``codes`` in ascending order, and each code's position
    among them."""
    vocab = sorted(codes)
    rank = np.empty(len(vocab), dtype=np.int64)
    rank[np.fromiter(map(codes.__getitem__, vocab), dtype=np.int64, count=len(vocab))] = np.arange(len(vocab))
    return vocab, rank


def _intern(ids: list[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct ids, and each id's position among them."""
    codes: dict[str, int] = {}
    first = _encode(ids, codes)
    vocab, rank = _ranks(codes)
    return vocab, rank[first]


@dataclass(frozen=True, eq=False)
class Interactions:
    """Interaction events as columns, one row per event in log order.

    ``user_ids`` and ``item_ids`` are distinct ids in ascending order, and
    ``user_code`` and ``item_code`` each row's position in them, so a code
    sorts as its id does. The id lists may hold ids that no row uses: a cut
    by ``take`` shares its parent's. ``ratings`` is None for a log without
    a rating column. Timestamps are non-negative. ``from_ids`` builds a
    table from each row's ids, and ``ids`` decodes them.
    """

    user_ids: list[str]
    item_ids: list[str]
    user_code: np.ndarray
    item_code: np.ndarray
    ratings: np.ndarray | None
    timestamps: np.ndarray

    def __post_init__(self) -> None:
        columns = {name: np.asarray(getattr(self, name), dtype=np.int64)
                   for name in ("user_code", "item_code", "ratings", "timestamps")
                   if getattr(self, name) is not None}
        lengths = {name: len(column) for name, column in columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"columns differ in length: {lengths}")
        for name, column in columns.items():
            object.__setattr__(self, name, column)
        for name, ids, codes in (("user", self.user_ids, self.user_code), ("item", self.item_ids, self.item_code)):
            if any(a >= b for a, b in itertools.pairwise(ids)):
                raise ValueError(f"{name} ids are not distinct and ascending")
            if len(codes) and not 0 <= codes.min() <= codes.max() < len(ids):
                raise ValueError(f"{name} codes outside 0..{len(ids) - 1}")
        if len(self.timestamps) and self.timestamps.min() < 0:
            row = int(np.argmax(self.timestamps < 0))
            raise ValueError(f"negative timestamp {self.timestamps[row]} for user "
                             f"{self.user_ids[self.user_code[row]]!r}")

    @classmethod
    def from_ids(cls, users: Iterable[str], items: Iterable[str], ratings, timestamps) -> "Interactions":
        """The table of these rows' ids, ratings (None for none) and timestamps."""
        (user_ids, user_code), (item_ids, item_code) = _intern(list(users)), _intern(list(items))
        return cls(user_ids, item_ids, user_code, item_code, ratings, timestamps)

    def ids(self) -> tuple[list[str], list[str]]:
        """Each row's user id and item id, decoded from the codes."""
        return (np.array(self.user_ids, dtype=object)[self.user_code].tolist(),
                np.array(self.item_ids, dtype=object)[self.item_code].tolist())

    def __len__(self) -> int:
        return len(self.timestamps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interactions):
            return NotImplemented
        return (self.ids() == other.ids() and np.array_equal(self.timestamps, other.timestamps)
                and (self.ratings is None) == (other.ratings is None)
                and (self.ratings is None or np.array_equal(self.ratings, other.ratings)))

    def take(self, rows: np.ndarray) -> "Interactions":
        """The table of the rows at ``rows``, in that order."""
        return Interactions(self.user_ids, self.item_ids, self.user_code[rows], self.item_code[rows],
                            None if self.ratings is None else self.ratings[rows], self.timestamps[rows])


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
    ``stats`` counts these arrays, so it cannot disagree with them.
    ``sequences``, ``validation`` and ``test`` are views of these arrays,
    built on first use."""

    users: tuple[str, ...]
    item_universe: tuple[str, ...]
    train_codes: np.ndarray
    train_offsets: np.ndarray
    valid_codes: np.ndarray
    test_codes: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        arrays = ("train_codes", "train_offsets", "valid_codes", "test_codes")
        return ((self.users, self.item_universe) == (other.users, other.item_universe)
                and all(np.array_equal(getattr(self, name), getattr(other, name)) for name in arrays))

    @property
    def stats(self) -> DatasetStats:
        """The counts of the arrays: a user with held-out items has two
        records beside their training sequence."""
        n_users, n_eval = len(self.users), int(np.count_nonzero(self.valid_codes >= 0))
        n_records = len(self.train_codes) + 2 * n_eval
        return DatasetStats(n_users=n_users, n_items=len(self.item_universe), n_records=n_records,
                            avg_length=n_records / n_users if n_users else 0.0,
                            n_eval_users=n_eval, n_dropped_users=n_users - n_eval)

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


def _blocks(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """Consecutive blocks of at most ``_BLOCK_LINES`` lines, each with the
    1-based number of its first line."""
    lines = iter(lines)
    start = 1
    while block := list(itertools.islice(lines, _BLOCK_LINES)):
        yield start, block
        start += len(block)


def _breaks(text: str) -> bool:
    """Whether ``text`` holds a tab or a line break."""
    return "\t" in text or "\r" in text or "\n" in text


def _escaped(line: str) -> str | None:
    """Why ``line`` is not text, when it holds a byte that is not UTF-8
    (decoded by errors="surrogateescape"), or None."""
    found = _ESCAPED_BYTE.search(line)
    return found and f"byte 0x{ord(found.group()) - 0xDC00:02x} is not valid UTF-8"


def _cells(rows: list[str], delimiter: str) -> tuple[list[str], np.ndarray]:
    """The fields of every row, row after row, and each row's count of them.
    The rows are joined and split once, unless a row ending in the start of
    a multi-character delimiter could join the delimiter after it."""
    joined = delimiter.join(rows)
    if any(delimiter[:k] + delimiter in joined for k in range(1, len(delimiter))):
        cells = [cell for row in rows for cell in row.split(delimiter)]
    else:
        cells = joined.split(delimiter)
    return cells, _counts(rows, delimiter) + 1


def _counts(lines: list[str], text: str) -> np.ndarray:
    """How many times ``text`` occurs in each line."""
    return np.fromiter(map(str.count, lines, itertools.repeat(text)), dtype=np.int64, count=len(lines))


def _fields(cells: list[str], widths: np.ndarray, columns: list[int]) -> list[list[str]]:
    """The cells at ``columns`` of each line that has them, one list per
    column, for lines of ``widths`` cells laid end to end in ``cells``."""
    if len(widths) and widths[0] > max(columns) and (widths == widths[0]).all():
        return [cells[column::widths[0]] for column in columns]
    first = (np.cumsum(widths) - widths)[widths > max(columns)]
    table = np.array(cells, dtype=object)
    return [table[first + column].tolist() for column in columns]


def _concatenate(parts: list[np.ndarray]) -> np.ndarray:
    """The parts end to end. The list is emptied, freeing each part."""
    whole = np.concatenate(parts)
    parts.clear()
    return whole


def _decimal(text: str) -> str:
    """An optional '-' and ASCII digits as ``int`` would print them; ``int``
    itself refuses more than 4,300 digits, leading zeros included."""
    digits = text.lstrip("-").lstrip("0") or "0"
    return "-" + digits if text.startswith("-") and digits != "0" else digits


def _integers(texts: list[str], lowest: int) -> tuple[np.ndarray, np.ndarray]:
    """Each text's int64 value, and its fault: 1 when it is not an optional
    '-' followed by ASCII digits (``int`` would also take spaces, '+', '_'
    and non-ASCII digits), 2 when its value is outside [lowest, 2**63 - 1],
    else 0. A faulty text's value is 0. Each distinct text is checked and
    converted once."""
    values: dict[str, int] = {}
    faults: dict[str, int] = {}
    for text in set(texts):
        if not (text.isascii() and text.removeprefix("-").isdigit()):
            faults[text] = 1
        elif len(decimal := _decimal(text)) <= 20 and lowest <= (number := int(decimal)) <= _INT64_MAX:
            values[text] = number
        else:
            faults[text] = 2
    n = len(texts)
    if not faults:
        return np.fromiter(map(values.__getitem__, texts), np.int64, n), np.zeros(n, dtype=np.int8)
    return (np.fromiter(map(values.get, texts, itertools.repeat(0)), np.int64, n),
            np.fromiter(map(faults.get, texts, itertools.repeat(0)), np.int8, n))


def parse_interactions(
    lines: Iterable[str], schema: ColumnSchema, on_error: str = "raise"
) -> Interactions:
    """Parse one row per well-formed line, in file order; blank lines are
    skipped.

    A line is malformed when it holds a byte that is not UTF-8 (a file
    opened with errors="surrogateescape" yields it as a lone surrogate), has
    too few fields, has a tab or line break in an id, has a rating or
    timestamp that is not an optional '-' followed by ASCII digits or does
    not fit in int64, or has a negative timestamp; the first of these that
    fails names it. on_error="raise" fails fast with the first malformed
    line's number; on_error="skip" drops malformed lines and logs how many
    were skipped.

    Lines are read ``_BLOCK_LINES`` at a time. Each block is joined and split
    into columns once, and each distinct rating or timestamp text of a block
    is checked and converted once.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
    if not schema.delimiter:
        raise ValueError("the delimiter must not be empty")
    columns = [schema.user_col, schema.item_col, schema.timestamp_col]
    if schema.rating_col is not None:
        columns.append(schema.rating_col)
    needed = max(columns)
    codes: tuple[dict[str, int], dict[str, int]] = ({}, {})  # user and item ids
    columns_read: list[list[np.ndarray]] = [[np.zeros(0, dtype=np.int64)] for _ in range(4)]
    skipped = 0
    for start, block in _blocks(lines):
        rows = [line.rstrip("\r\n") for line in block]
        lineno = np.arange(start, start + len(rows))
        if "" in rows:
            kept = [j for j, row in enumerate(rows) if row]
            rows, lineno = [rows[j] for j in kept], lineno[kept]
        cells, widths = _cells(rows, schema.delimiter)
        # a line's fault is the first of its checks to fail, in this order:
        # 1 a byte not UTF-8, 2 too few fields, 3 a tab or line break in an
        # id, 4 rating and 5 timestamp not integers, 6 rating and 7
        # timestamp outside their range
        fault = np.zeros(len(rows), dtype=np.int8)
        text = "".join(rows)
        if not text.isascii() and _ESCAPED_BYTE.search(text):
            fault[[_ESCAPED_BYTE.search(row) is not None for row in rows]] = 1
        full = widths > needed
        fault[(fault == 0) & ~full] = 2
        user, item, stamp, *rating = _fields(cells, widths, columns)
        stamp_value, stamp_fault = _integers(stamp, 0)
        rating_value, rating_fault = _integers(rating[0], _INT64_MIN) if rating else (None, 0)
        broken = False
        if _breaks("".join(user)) or _breaks("".join(item)):
            broken = np.array([_breaks(u + i) for u, i in zip(user, item)])
        row_fault = fault[full]
        checks = (broken, rating_fault == 1, stamp_fault == 1, rating_fault == 2, stamp_fault == 2)
        for code, failed in enumerate(checks, start=3):
            row_fault[(row_fault == 0) & failed] = code
        fault[full] = row_fault
        bad = np.flatnonzero(fault)
        if len(bad) and on_error == "raise":
            row = bad[0]
            k = int(np.count_nonzero(full[:row]))
            raise ParseError(int(lineno[row]), _fault_message(
                int(fault[row]), rows[row], int(widths[row]), needed,
                *((user[k], item[k], rating[0][k] if rating else "0", stamp[k]) if full[row] else ())))
        skipped += len(bad)
        keep = row_fault == 0
        if not keep.all():
            picked = np.flatnonzero(keep).tolist()
            user, item = [user[j] for j in picked], [item[j] for j in picked]
            stamp_value = stamp_value[keep]
            rating_value = None if rating_value is None else rating_value[keep]
        for read, column in zip(columns_read, (_encode(user, codes[0]), _encode(item, codes[1]),
                                               stamp_value, rating_value)):
            if column is not None:
                read.append(column)
    if skipped:
        log.warning("skipped %d malformed lines", skipped)
    user_code, item_code, timestamps, ratings = map(_concatenate, columns_read)
    (user_ids, user_rank), (item_ids, item_rank) = map(_ranks, codes)
    return Interactions(user_ids, item_ids, user_rank[user_code], item_rank[item_code],
                        None if schema.rating_col is None else ratings, timestamps)


def _fault_message(fault: int, line: str, width: int, needed: int,
                   user: str = "", item: str = "", rating: str = "", stamp: str = "") -> str:
    """Why a line with the ``fault`` of ``parse_interactions`` is malformed."""
    if fault == 1:
        return _escaped(line)
    if fault == 2:
        return f"expected at least {needed + 1} fields, got {width}"
    if fault == 3:
        return f"user or item id contains a tab or line break: {user!r}, {item!r}"
    if fault in (4, 5):
        name, text = ("rating", rating) if fault == 4 else ("timestamp", stamp)
        return f"{name} {text!r} is not an integer"
    if fault == 6:
        return f"rating {_decimal(rating)} does not fit in int64"
    value = _decimal(stamp)
    return (f"negative timestamp {value} for user {user!r}" if value.startswith("-")
            else f"timestamp {value} does not fit in int64")


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
    pair = table.user_code * len(table.item_ids) + table.item_code
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
    present = np.unique(table.user_code)
    if len(present) <= max_users:
        return table
    # code order is id order: this draws the users that sampling the sorted
    # ids would
    chosen = random.Random(seed).sample(present.tolist(), max_users)
    return table.take(np.flatnonzero(np.isin(table.user_code, chosen)))


def build_dataset(table: Interactions) -> Dataset:
    """Split deduplicated rows into per-user training sequences and held-out
    items: chronologically last interaction -> test, second-to-last ->
    validation. Timestamp ties order by item identifier, then input order.

    Users with fewer than 3 interactions cannot hold out two items; their
    history stays in the training corpus, but they are excluded from the
    validation/test maps and counted in the stats.
    """
    # lexsort is stable, so full ties stay in input order
    order = np.lexsort((table.item_code, table.timestamps, table.user_code))
    by_user = table.user_code[order]
    starts = np.flatnonzero(np.diff(by_user, prepend=-1))
    lengths = np.diff(starts, append=len(order))
    held = lengths >= 3
    n_train = np.where(held, lengths - 2, lengths)
    in_train = np.arange(len(order)) - np.repeat(starts, lengths) < np.repeat(n_train, lengths)
    present = np.flatnonzero(np.bincount(table.item_code, minlength=len(table.item_ids)))
    codes = np.searchsorted(present, table.item_code[order])
    dataset = Dataset(
        users=tuple(table.user_ids[code] for code in by_user[starts].tolist()),
        item_universe=tuple(table.item_ids[code] for code in present.tolist()),
        train_codes=codes[in_train],
        train_offsets=np.concatenate(([0], np.cumsum(n_train))),
        valid_codes=np.where(held, codes[starts + lengths - 2], -1),
        test_codes=np.where(held, codes[starts + lengths - 1], -1),
    )
    stats = dataset.stats
    log.info(
        "dataset: %d users (%d evaluable), %d items, %d records, avg length %.2f",
        stats.n_users, stats.n_eval_users, stats.n_items, stats.n_records, stats.avg_length,
    )
    return dataset


STATS_FILE = "stats.json"
_SPLIT_FILES = {"train": "train.tsv", "valid": "valid.tsv", "test": "test.tsv"}


def save_dataset(dataset: Dataset, out_dir: str) -> None:
    """Persist as three sorted TSV split files plus a stats JSON.

    train.tsv holds one row per (user, item) in sequence order; file order is
    the canonical chronological order within each user. Each block of
    ``_BLOCK_LINES`` lines is formatted in one pass.
    """
    os.makedirs(out_dir, exist_ok=True)
    users, names = np.array(dataset.users, dtype=object), np.array(dataset.item_universe, dtype=object)
    lines = {"train": (np.repeat(np.arange(len(users)), np.diff(dataset.train_offsets)), dataset.train_codes)}
    for split, codes in (("valid", dataset.valid_codes), ("test", dataset.test_codes)):
        lines[split] = (np.flatnonzero(codes >= 0), codes[codes >= 0])
    for split, (rows, codes) in lines.items():
        with open(_split_path(out_dir, split), "w", encoding="utf-8") as fh:
            for start in range(0, len(rows), _BLOCK_LINES):
                block = slice(start, start + _BLOCK_LINES)
                cells = np.column_stack((users[rows[block]], names[codes[block]]))
                fh.write("%s\t%s\n" * len(cells) % tuple(cells.ravel().tolist()))
    payload = {"format_version": 1, **asdict(dataset.stats)}
    with open(os.path.join(out_dir, STATS_FILE), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _split_path(in_dir: str, split: str) -> str:
    return os.path.join(in_dir, _SPLIT_FILES[split])


def _split_codes(
    path: str, users: dict[str, int], items: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, str | None]:
    """The user and item codes of each line of a split file before its first
    malformed line, and that line's ``path:line`` error, or None. A line is
    malformed when it holds a byte that is not UTF-8 or does not hold two
    tab-separated fields. ``users`` and ``items`` give the codes, and take
    each new name."""
    columns: list[list[np.ndarray]] = [[np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]]
    error = None
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for start, block in _blocks(fh):
            text = "".join(block)
            tabs = _counts(block, "\t")
            bad = tabs != 1
            if not text.isascii() and _ESCAPED_BYTE.search(text):
                bad |= np.array([_ESCAPED_BYTE.search(line) is not None for line in block])
            if bad.any():
                row = int(np.argmax(bad))
                reason = _escaped(block[row]) or f"expected 2 tab-separated fields, got {tabs[row] + 1}"
                error = f"{path}:{start + row}: {reason}"
                text = "".join(block[:row])
            # a line read from a file ends in its one newline (the last line
            # perhaps in none), so with one tab in each line the cells of the
            # block alternate user and item
            cells = text.replace("\n", "\t").split("\t") if text else []
            for read, names, codes in zip(columns, (cells[0::2], cells[1::2]), (users, items)):
                read.append(_encode(names[:len(cells) // 2], codes))
            if error:
                break
    return _concatenate(columns[0]), _concatenate(columns[1]), error


def _repeats(key: np.ndarray) -> np.ndarray:
    """Whether each key equals one at an earlier position."""
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(len(key), dtype=bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    return repeat


def load_dataset(in_dir: str) -> Dataset:
    """Read a dataset that ``save_dataset`` wrote. Each of a user's items is
    on one line of the three split files, train.tsv groups its lines by
    ascending user, and a held-out file holds one line per user. The first
    line, reading train.tsv, valid.tsv and test.tsv in turn, that breaks
    this or that ``_split_codes`` finds malformed fails with its
    ``path:line``. Then, as ``build_dataset`` splits users, a held-out user
    has a line in each file, and any other user at most two training lines.

    Each file is read ``_BLOCK_LINES`` lines at a time into user and item
    codes, and every check is an array pass over the codes of all three.
    ``stats.json`` is not read: the dataset's stats are counted from the
    split files.
    """
    users: dict[str, int] = {}
    items: dict[str, int] = {}
    names = list(_SPLIT_FILES.values())
    reads = [_split_codes(os.path.join(in_dir, name), users, items) for name in names]
    sizes = [len(read[0]) for read in reads]
    ends, n_train = np.cumsum(sizes), sizes[0]
    (user_vocab, user_rank), (item_vocab, item_rank) = _ranks(users), _ranks(items)
    owner = user_rank[_concatenate([read[0] for read in reads])]
    code = item_rank[_concatenate([read[1] for read in reads])]

    def line_of(row: int) -> str:
        """``file:line`` of ``row`` of the lines of the three files."""
        split = int(np.searchsorted(ends, row, side="right"))
        return f"{names[split]}:{row - ends[split] + sizes[split] + 1}"

    # a line's fault is the first of these that holds: its user is on an
    # earlier line of its held-out file, its item on an earlier line of its
    # user, its training user sorts before the one above
    key = owner * len(items) + code
    repeat = _repeats(key)
    held_user = np.zeros(len(key), dtype=bool)
    held_user[n_train:] = _repeats(np.repeat([1, 2], sizes[1:]) * len(users) + owner[n_train:])
    unordered = np.zeros(len(key), dtype=bool)
    unordered[1:n_train] = np.diff(owner[:n_train]) < 0
    bad = np.flatnonzero(held_user | repeat | unordered)
    # a file's malformed line follows every line read from it
    for (_, _, error), end in zip(reads, ends):
        if error and end <= (bad[0] if len(bad) else len(key)):
            raise ValueError(error)
    if len(bad):
        row = bad[0]
        at, who = os.path.join(in_dir, line_of(row)), user_vocab[owner[row]]
        if held_user[row]:
            raise ValueError(f"{at}: user {who!r} repeated")
        if repeat[row]:
            first = line_of(int(np.argmax(key == key[row])))
            raise ValueError(f"{at}: item {item_vocab[code[row]]!r} of user {who!r} repeats {first}")
        raise ValueError(f"{at}: user {who!r} sorts before user {user_vocab[owner[row - 1]]!r} above it")
    held = np.full((2, len(users)), -1, dtype=np.int64)
    for side in (0, 1):
        held[side, owner[ends[side]:ends[side + 1]]] = code[ends[side]:ends[side + 1]]
    # a held-out user has both a validation and a test item; a rank sorts as
    # its name does
    lone = np.flatnonzero((held[0] >= 0) != (held[1] >= 0))
    if len(lone):
        split, other = ("valid", "test") if held[0, lone[0]] >= 0 else ("test", "valid")
        raise ValueError(f"{_split_path(in_dir, split)}: user {user_vocab[lone[0]]!r} has no line "
                         f"in {_SPLIT_FILES[other]}")
    counts = np.bincount(owner[:n_train], minlength=len(users))
    offsets = np.concatenate(([0], np.cumsum(counts)))
    # build_dataset holds out two items of a user with three or more, and
    # keeps at least one training item of a held-out user
    third = np.arange(n_train) - offsets[owner[:n_train]] >= 2
    bad = np.flatnonzero(np.concatenate((third & (held[0, owner[:n_train]] < 0),
                                         counts[owner[n_train:ends[1]]] == 0)))
    if len(bad):
        who = user_vocab[owner[bad[0]]]
        raise ValueError(f"{os.path.join(in_dir, line_of(bad[0]))}: user {who!r} " + (
            "has a third training item but no held-out item" if bad[0] < n_train
            else f"is held out but has no line in {_SPLIT_FILES['train']}"))
    return Dataset(
        users=tuple(user_vocab),
        item_universe=tuple(item_vocab),
        train_codes=code[:n_train],
        train_offsets=offsets,
        valid_codes=held[0],
        test_codes=held[1],
    )
