"""Synthetic interaction corpora with planted sequential structure.

Items are arranged on a hidden ring; each user walks the ring, following the
planted successor with probability ``signal`` and jumping uniformly at random
otherwise. Optional ``reverse_noise`` swaps adjacent pairs after the walk,
which is exactly the kind of ordering noise the reverse factor is meant to
absorb. A walk is never cut short: once its random draws keep landing on
items it holds, it draws from the items it does not. Generation is
deterministic per seed and per user, so corpora are reproducible regardless
of how the user loop is scheduled.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .ingest import Interactions

_RESAMPLE_RETRIES = 30


@dataclass(frozen=True)
class SynthConfig:
    n_users: int
    n_items: int
    seq_length_range: tuple[int, int] = (10, 30)
    signal: float = 0.8
    reverse_noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        lo, hi = self.seq_length_range
        if lo < 3 or hi < lo:
            raise ValueError(f"sequence length range must satisfy 3 <= min <= max, got {self.seq_length_range}")
        if not 0.0 <= self.signal <= 1.0:
            raise ValueError(f"signal must lie in [0, 1], got {self.signal}")
        if not 0.0 <= self.reverse_noise <= 1.0:
            raise ValueError(f"reverse_noise must lie in [0, 1], got {self.reverse_noise}")
        if self.n_users < 1 or self.n_items < 3:
            raise ValueError("need at least 1 user and 3 items")
        if self.n_items < lo:
            raise ValueError(f"catalog of {self.n_items} items cannot fill sequences of length {lo}")


def _walk(
    rng: random.Random, ring_next: list[int], n_items: int, length: int, signal: float
) -> list[int]:
    nxt = rng.randrange(n_items)
    seq, used = [nxt], {nxt}
    while len(seq) < length:
        # nxt is the last item of the walk until the planted successor is read
        if rng.random() >= signal or (nxt := ring_next[nxt]) in used:
            for _ in range(_RESAMPLE_RETRIES):
                nxt = rng.randrange(n_items)
                if nxt not in used:
                    break
            else:
                # the retries drew only used items: draw from the unused ones
                nxt = rng.choice(sorted(set(range(n_items)) - used))
        seq.append(nxt)
        used.add(nxt)
    return seq


def generate(config: SynthConfig) -> Interactions:
    """Generate one corpus: per-user ring walks with uniform noise, adjacent
    swaps, and consecutive integer timestamps within each user. Every
    rating is 5.
    """
    ring_rng = random.Random(config.seed)
    order = list(range(config.n_items))
    ring_rng.shuffle(order)
    ring_next = [0] * config.n_items
    for pos, item in enumerate(order):
        ring_next[item] = order[(pos + 1) % config.n_items]

    item_width = len(str(config.n_items - 1))
    user_width = len(str(config.n_users - 1))
    lo, hi = config.seq_length_range
    users: list[int] = []
    items: list[int] = []
    timestamps: list[int] = []
    for u in range(config.n_users):
        rng = random.Random(config.seed * 1_000_003 + u + 1)
        length = rng.randint(lo, min(hi, config.n_items))
        seq = _walk(rng, ring_next, config.n_items, length, config.signal)
        for j in range(len(seq) - 1):
            if rng.random() < config.reverse_noise:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
        users += [u] * len(seq)
        items += seq
        timestamps += range(len(seq))
    # labels are zero-padded to one width, so label order is code order
    return Interactions([f"u{u:0{user_width}d}" for u in range(config.n_users)],
                        [f"i{i:0{item_width}d}" for i in range(config.n_items)],
                        users, items, np.full(len(users), 5, dtype=np.int64), timestamps)


def write_log(table: Interactions, path: str, delimiter: str = "::") -> None:
    """Write the table in the delimiter-separated layout the ingest side
    reads: user, item, rating, timestamp; the rating is left empty for a
    table without ratings.
    """
    ratings = [""] * len(table) if table.ratings is None else table.ratings.tolist()
    rows = zip(*table.ids(), ratings, table.timestamps.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{u}{delimiter}{i}{delimiter}{r}{delimiter}{t}\n" for u, i, r, t in rows)
