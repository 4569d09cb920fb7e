"""Leave-one-out evaluation: ranking metrics, the per-user evaluation loop,
and validation-driven grid search.

Every user contributes the rank of their single held-out item among the full
catalog minus their known items; NDCG@K and 1-call@K are averaged over users.
"""
from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

# make_session_window is no longer called here: perfbench/tracer.py patches
# it, and positive_scores, by these names in this module's namespace
from .domain import MEASURES, SCALINGS, SimilarityParams, make_session_window  # noqa: F401
from .ingest import Dataset
from .similarity import NeighborIndex, build_neighbor_index, count_pairs, positive_scores

log = logging.getLogger(__name__)

SPLITS = ("validation", "test")
_BLOCK_CELLS = 1 << 16  # users x catalog items scored and ranked at a time


class ConfigMismatchError(ValueError):
    """Index artifact and requested configuration disagree on a field."""

    def __init__(self, field_name: str, expected: object, actual: object) -> None:
        super().__init__(f"configuration mismatch on {field_name!r}: index has {actual!r}, requested {expected!r}")
        self.field_name = field_name


def _check_top_k(top_k: int) -> None:
    # a cutoff below 1 counts every user a miss, so every configuration ties
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")


def ndcg_at_k(rank: int, top_k: int) -> float:
    """Discounted gain of the single relevant item: 1/log2(rank+1) inside the
    cutoff, 0 for a miss.
    """
    if rank > top_k:
        return 0.0
    return 1.0 / math.log2(rank + 1)


def one_call_at_k(rank: int, top_k: int) -> int:
    """1 if the held-out item made the top-K, else 0."""
    return 1 if rank <= top_k else 0


def rank_of_target(scores: np.ndarray, target_pos: np.ndarray, excluded: tuple) -> np.ndarray:
    """Rank of the item at target_pos[r] among the items of row r of
    ``scores``, by score descending, then item identifier ascending, so items
    that score zero rank by identifier. The cells that ``excluded``, a (rows,
    columns) index, names are left out. Columns must ascend with the item
    identifier.
    """
    target_score = scores[np.arange(len(scores)), target_pos][:, None]
    scores = scores.copy()
    scores[excluded] = -np.inf
    earlier = np.arange(scores.shape[1]) < target_pos[:, None]
    return 1 + (np.count_nonzero(scores > target_score, axis=1)
                + np.count_nonzero((scores == target_score) & earlier, axis=1))


@dataclass(frozen=True)
class EvalResult:
    """Metrics of one (configuration, split) evaluation."""

    measure: str
    params: SimilarityParams
    rank_by: str
    split: str
    top_k: int
    n_users: int
    n_skipped: int
    ndcg: float
    one_call: float


def evaluate(
    dataset: Dataset,
    index: NeighborIndex,
    split: str,
    top_k: int = 5,
    measure: str | None = None,
) -> EvalResult:
    """Rank each eligible user's held-out item against the full catalog minus
    their known items, and average NDCG@K and 1-call@K over users.

    The split's histories are gathered from the dataset's int64 catalog
    codes, user after user in ascending order; for the test split the
    validation item, which precedes the test item, ends the history.
    A user's known items are their whole slice, their window the last
    min(k, n) entries of it, at L = k - d + 1 for the entry d from the end,
    and their target one array element. Users are scored and ranked in
    blocks, each a slice of these arrays: ``positive_scores`` scores a
    block's windows into one [users x catalog] matrix of at most
    _BLOCK_CELLS cells, and every row is ranked by the same expression.
    Users with an empty history are skipped.
    """
    _check_top_k(top_k)
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
    if measure is not None and measure != index.measure:
        raise ConfigMismatchError("measure", measure, index.measure)
    started = time.perf_counter()
    # each catalog item's place in index.items, -1 for an item it lacks
    to_index = np.array([index.item_index.get(item, -1) for item in dataset.item_universe], dtype=np.int64)
    catalog = np.flatnonzero(to_index >= 0)
    missing = len(index.items) - len(catalog)
    if missing:
        raise ValueError(f"index covers {missing} items absent from the dataset; wrong dataset?")
    lift = catalog[np.argsort(to_index[catalog])]  # each index item's catalog position

    held_out = dataset.valid_codes if split == "validation" else dataset.test_codes
    held = held_out >= 0
    n_train = np.diff(dataset.train_offsets)
    flat = dataset.train_codes[np.repeat(held, n_train)]
    if split == "test":
        # the validation item, which precedes the test item, ends the history
        flat = np.insert(flat, np.cumsum(n_train[held]), dataset.valid_codes[held])
    lengths = np.where(held, n_train + (split == "test"), 0)
    users = np.flatnonzero(lengths)
    n_skipped = int(np.count_nonzero(held)) - len(users)
    lengths, target = lengths[users], held_out[users]
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    owner = np.repeat(np.arange(len(users)), lengths)
    # distance d from the end of the history: 1 for its last item
    distance = offsets[1:][owner] - np.arange(len(flat))
    k = index.params.k
    in_window = (distance <= k) & (to_index[flat] >= 0)

    block_users = max(1, _BLOCK_CELLS // max(1, len(to_index)))
    evaluated: list[int] = []
    for start in range(0, len(users), block_users):
        stop = min(start + block_users, len(users))
        lo, hi = offsets[start], offsets[stop]
        rows = owner[lo:hi] - start
        window = in_window[lo:hi]
        scores = np.zeros((stop - start, len(to_index)))
        scores[:, lift] = positive_scores(rows[window], to_index[flat[lo:hi][window]],
                                          k + 1 - distance[lo:hi][window], stop - start, index)
        evaluated += rank_of_target(scores, target[start:stop], (rows, flat[lo:hi])).tolist()

    n_users = len(evaluated)
    ndcg = math.fsum(ndcg_at_k(rank, top_k) for rank in evaluated) / n_users if n_users else 0.0
    one_call = math.fsum(one_call_at_k(rank, top_k) for rank in evaluated) / n_users if n_users else 0.0
    elapsed = time.perf_counter() - started
    log.info(
        "%s/%s split=%s: ndcg@%d=%.4f 1-call@%d=%.4f over %d users (%.1fs)",
        index.measure, index.params.scaling, split, top_k, ndcg, top_k, one_call, n_users, elapsed,
    )
    return EvalResult(
        measure=index.measure,
        params=index.params,
        rank_by=index.rank_by,
        split=split,
        top_k=top_k,
        n_users=n_users,
        n_skipped=n_skipped,
        ndcg=ndcg,
        one_call=one_call,
    )


DEFAULT_ELLS = (5, 10, 20, 40)


def expand_grid(
    measure: str,
    ells: tuple[int, ...] = DEFAULT_ELLS,
    lambdas: tuple[float, ...] | None = None,
    scalings: tuple[str, ...] | None = None,
    rho: float = SimilarityParams.rho,
    w: float = SimilarityParams.w,
    n_neighbors: int = SimilarityParams.n_neighbors,
) -> list[tuple[str, SimilarityParams]]:
    """Expand a hyperparameter grid for one measure, ell=k from ``ells``,
    with SimilarityParams' defaults for what is not given.

    Position-independent measures ignore lam and scaling, so only ell varies
    for bis and cosine; pas sweeps lam x scaling, pas_uni sweeps scaling.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}, expected one of {MEASURES}")
    if not ells:
        raise ValueError("empty grid: no ell values")
    scalings = scalings or SCALINGS
    if measure in ("bis", "cosine"):
        lambdas, scalings = (0.0,), (SimilarityParams.scaling,)
    elif measure == "pas_uni":
        lambdas = (1.0,)
    else:
        lambdas = lambdas or (SimilarityParams.lam,)
    return [
        (measure, SimilarityParams(ell=ell, rho=rho, lam=lam, scaling=scaling, w=w,
                                   n_neighbors=n_neighbors))
        for ell in ells for lam in lambdas for scaling in scalings
    ]


@dataclass(frozen=True)
class GridSearchResult:
    best_measure: str
    best_params: SimilarityParams
    validation: tuple[EvalResult, ...]
    test: EvalResult


def grid_search(
    dataset: Dataset,
    grid: list[tuple[str, SimilarityParams]],
    top_k: int = 5,
    rank_by: str = "bis",
) -> GridSearchResult:
    """Evaluate every configuration on the validation split, pick the best
    validation 1-call@K (ties: smaller k, then smaller lam, then scaling
    order), and report that configuration on the test split with the index
    it won with.
    """
    if not grid:
        raise ValueError("empty grid")
    _check_top_k(top_k)
    ell_max = max(params.ell for _, params in grid)
    store = count_pairs(dataset.item_universe, dataset.train_codes, dataset.train_offsets, ell_max)

    validation_rows: list[EvalResult] = []
    best_key: tuple | None = None
    best_index: NeighborIndex | None = None
    for measure, params in grid:
        index = build_neighbor_index(store, params, measure, rank_by=rank_by)
        row = evaluate(dataset, index, "validation", top_k=top_k)
        validation_rows.append(row)
        key = (-row.one_call, params.k, params.lam, SCALINGS.index(params.scaling), measure)
        if best_key is None or key < best_key:
            best_key = key
            best_index = index
        # so the next build holds at most the winner and itself
        del index

    best_measure, best_params = best_index.measure, best_index.params
    test_row = evaluate(dataset, best_index, "test", top_k=top_k)
    log.info(
        "grid search: selected %s ell=%d lam=%.2f scaling=%s (validation 1-call@%d=%.4f)",
        best_measure, best_params.ell, best_params.lam, best_params.scaling,
        top_k, -best_key[0],
    )
    return GridSearchResult(best_measure, best_params, tuple(validation_rows), test_row)


REPORT_COLUMNS = (
    "split", "measure", "rank_by", "k", "ell", "rho", "lam", "scaling", "w",
    "n_neighbors", "top_k", "n_users", "n_skipped", "ndcg_at_k", "one_call_at_k",
)


def report_rows(results: list[EvalResult]) -> list[dict[str, object]]:
    return [
        dict(zip(REPORT_COLUMNS, (
            r.split, r.measure, r.rank_by, r.params.k, r.params.ell, r.params.rho, r.params.lam,
            r.params.scaling, r.params.w, r.params.n_neighbors, r.top_k, r.n_users, r.n_skipped,
            r.ndcg, r.one_call,
        )))
        for r in results
    ]


def write_report_tsv(results: list[EvalResult], path: str) -> None:
    """One row per (configuration, split). Timing is deliberately left out so
    reruns of the same experiment are byte-identical.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#pasrec-report\t1\n")
        fh.write("\t".join(REPORT_COLUMNS) + "\n")
        for row in report_rows(results):
            fh.write("\t".join(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                               for c in REPORT_COLUMNS) + "\n")


def write_report_json(results: list[EvalResult], path: str) -> None:
    payload = {"format_version": 1, "rows": report_rows(results)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
