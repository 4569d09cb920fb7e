"""Interaction-log parsing, preprocessing, and leave-last-two-out splits.

Preprocessing pipeline: parse -> keep positive feedback -> drop duplicate
(user, item) pairs keeping the earliest -> optionally subsample users ->
split per user into training sequence / validation item / test item.
"""
from __future__ import annotations

import json
import logging
import math
import os
import random
from dataclasses import dataclass, asdict
from collections.abc import Iterable

from .domain import InteractionRecord, UserSequence

log = logging.getLogger(__name__)


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


@dataclass(frozen=True)
class DatasetStats:
    n_users: int
    n_items: int
    n_records: int
    avg_length: float
    n_eval_users: int
    n_dropped_users: int


@dataclass(frozen=True)
class Dataset:
    """Training sequences plus per-user held-out validation and test items."""

    sequences: tuple[UserSequence, ...]
    validation: dict[str, str]
    test: dict[str, str]
    item_universe: tuple[str, ...]
    stats: DatasetStats


def parse_interactions(
    lines: Iterable[str], schema: ColumnSchema, on_error: str = "raise"
) -> list[InteractionRecord]:
    """Parse one record per well-formed line, in file order.

    on_error="raise" fails fast with the offending line number;
    on_error="skip" drops malformed lines and logs how many were skipped.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
    needed = max(
        schema.user_col, schema.item_col, schema.timestamp_col,
        schema.rating_col if schema.rating_col is not None else 0,
    )
    records: list[InteractionRecord] = []
    skipped = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        fields = line.split(schema.delimiter)
        try:
            if len(fields) <= needed:
                raise ValueError(f"expected at least {needed + 1} fields, got {len(fields)}")
            user, item = fields[schema.user_col], fields[schema.item_col]
            # the split files are tab-separated, one record per line
            ids = user + item
            if "\t" in ids or "\r" in ids or "\n" in ids:
                raise ValueError(f"user or item id contains a tab or line break: {user!r}, {item!r}")
            rating = None
            if schema.rating_col is not None:
                rating = int(fields[schema.rating_col])
            records.append(
                InteractionRecord(
                    user=user,
                    item=item,
                    rating=rating,
                    timestamp=int(fields[schema.timestamp_col]),
                )
            )
        except ValueError as exc:
            if on_error == "raise":
                raise ParseError(lineno, str(exc)) from exc
            skipped += 1
    if skipped:
        log.warning("skipped %d malformed lines", skipped)
    return records


def filter_positive(
    records: list[InteractionRecord], threshold_mode: str = "rating_equals_5"
) -> list[InteractionRecord]:
    """Keep positive feedback: records rated exactly 5, or everything for
    review-style logs (threshold_mode="all").
    """
    if threshold_mode == "all":
        return list(records)
    if threshold_mode != "rating_equals_5":
        raise ValueError(f"unknown threshold_mode {threshold_mode!r}")
    for rec in records:
        if rec.rating is None:
            raise ValueError(f"record for user {rec.user!r} has no rating; use threshold_mode='all'")
    return [rec for rec in records if rec.rating == 5]


def deduplicate(records: list[InteractionRecord]) -> list[InteractionRecord]:
    """Keep only the earliest record per (user, item) pair, breaking timestamp
    ties by first occurrence. Output preserves the input order of survivors.
    """
    best: dict[tuple[str, str], tuple[int, int]] = {}
    for order, rec in enumerate(records):
        key = (rec.user, rec.item)
        seen = best.get(key)
        if seen is None or rec.timestamp < seen[0]:
            best[key] = (rec.timestamp, order)
    keep = {order for _, order in best.values()}
    return [rec for order, rec in enumerate(records) if order in keep]


def subsample_users(
    records: list[InteractionRecord], max_users: int, seed: int
) -> list[InteractionRecord]:
    """Keep all records of a seeded uniform sample of exactly max_users users,
    or everything when there are no more users than that.
    """
    if max_users < 1:
        raise ValueError(f"max_users must be >= 1, got {max_users}")
    users = sorted({rec.user for rec in records})
    if len(users) <= max_users:
        return list(records)
    chosen = set(random.Random(seed).sample(users, max_users))
    return [rec for rec in records if rec.user in chosen]


def build_dataset(records: list[InteractionRecord]) -> Dataset:
    """Split deduplicated records into per-user training sequences and
    held-out items: chronologically last interaction -> test, second-to-last
    -> validation. Timestamp ties order by item identifier, then input order.

    Users with fewer than 3 interactions cannot hold out two items; their
    history stays in the training corpus, but they are excluded from the
    validation/test maps and counted in the stats.
    """
    per_user: dict[str, list[tuple[int, str, int]]] = {}
    for order, rec in enumerate(records):
        per_user.setdefault(rec.user, []).append((rec.timestamp, rec.item, order))

    sequences: list[UserSequence] = []
    validation: dict[str, str] = {}
    test: dict[str, str] = {}
    n_dropped = 0
    for user in sorted(per_user):
        events = sorted(per_user[user])
        items = [item for _, item, _ in events]
        if len(items) < 3:
            n_dropped += 1
            sequences.append(UserSequence.from_items(user, items))
            continue
        sequences.append(UserSequence.from_items(user, items[:-2]))
        validation[user] = items[-2]
        test[user] = items[-1]

    universe = tuple(sorted({rec.item for rec in records}))
    n_users = len(per_user)
    stats = DatasetStats(
        n_users=n_users,
        n_items=len(universe),
        n_records=len(records),
        avg_length=len(records) / n_users if n_users else 0.0,
        n_eval_users=len(test),
        n_dropped_users=n_dropped,
    )
    log.info(
        "dataset: %d users (%d evaluable), %d items, %d records, avg length %.2f",
        n_users, len(test), len(universe), len(records), stats.avg_length,
    )
    return Dataset(
        sequences=tuple(sequences),
        validation=validation,
        test=test,
        item_universe=universe,
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
    with open(os.path.join(out_dir, _SPLIT_FILES["train"]), "w", encoding="utf-8") as fh:
        for seq in dataset.sequences:
            for item in seq.items:
                fh.write(f"{seq.user}\t{item}\n")
    for split, mapping in (("valid", dataset.validation), ("test", dataset.test)):
        with open(os.path.join(out_dir, _SPLIT_FILES[split]), "w", encoding="utf-8") as fh:
            for user in sorted(mapping):
                fh.write(f"{user}\t{mapping[user]}\n")
    payload = {"format_version": 1, **asdict(dataset.stats)}
    with open(os.path.join(out_dir, STATS_FILE), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(in_dir: str) -> Dataset:
    per_user: dict[str, list[str]] = {}
    with open(os.path.join(in_dir, _SPLIT_FILES["train"]), encoding="utf-8") as fh:
        for line in fh:
            user, item = line.rstrip("\n").split("\t")
            per_user.setdefault(user, []).append(item)
    splits: dict[str, dict[str, str]] = {}
    for split in ("valid", "test"):
        mapping: dict[str, str] = {}
        with open(os.path.join(in_dir, _SPLIT_FILES[split]), encoding="utf-8") as fh:
            for line in fh:
                user, item = line.rstrip("\n").split("\t")
                mapping[user] = item
        splits[split] = mapping
    with open(os.path.join(in_dir, STATS_FILE), encoding="utf-8") as fh:
        payload = json.load(fh)
    payload.pop("format_version", None)
    stats = DatasetStats(**payload)
    sequences = tuple(
        UserSequence.from_items(user, items) for user, items in sorted(per_user.items())
    )
    universe = sorted(
        {item for seq in sequences for item in seq.items}
        | set(splits["valid"].values())
        | set(splits["test"].values())
    )
    return Dataset(
        sequences=sequences,
        validation=splits["valid"],
        test=splits["test"],
        item_universe=tuple(universe),
        stats=stats,
    )


def check_stats_consistency(stats: DatasetStats, tolerance: float = 0.01) -> bool:
    """users * average length must reproduce the record count within tolerance."""
    if stats.n_records == 0:
        return stats.n_users == 0
    implied = stats.n_users * stats.avg_length
    return math.isclose(implied, stats.n_records, rel_tol=tolerance)
