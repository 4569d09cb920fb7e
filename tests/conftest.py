import random

import pytest

from pasrec.domain import UserSequence


@pytest.fixture
def toy_corpus() -> list[UserSequence]:
    """Three users over items a, b, c with known pair statistics."""
    return [
        UserSequence.from_items("v1", ["a", "b", "c"]),
        UserSequence.from_items("v2", ["a", "c", "b"]),
        UserSequence.from_items("v3", ["b", "a"]),
    ]


def random_corpus(
    rng: random.Random,
    max_users: int = 50,
    max_items: int = 30,
    max_len: int = 20,
) -> list[UserSequence]:
    """A random corpus of deduplicated sequences, sized for oracle checks."""
    n_items = rng.randint(3, max_items)
    items = [f"i{j:03d}" for j in range(n_items)]
    n_users = rng.randint(2, max_users)
    sequences = []
    for u in range(n_users):
        length = rng.randint(1, min(max_len, n_items))
        sequences.append(UserSequence.from_items(f"u{u:03d}", rng.sample(items, length)))
    return sequences


def item_pairs(store, keys) -> list[tuple[int, int]]:
    """(lo, hi) item indices of the pair keys ``store.co`` or ``store.gaps``."""
    return [divmod(key, store.n_items) for key in keys.tolist()]
