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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .domain import MEASURES, SimilarityParams, UserSequence, make_session_window
from .ingest import Dataset
from .predictor import positive_scores, rank_of_target
from .similarity import NeighborIndex, build_neighbor_index, count_pairs

log = logging.getLogger(__name__)

SPLITS = ("validation", "test")


class ConfigMismatchError(ValueError):
    """Index artifact and requested configuration disagree on a field."""

    def __init__(self, field_name: str, expected: object, actual: object) -> None:
        super().__init__(f"configuration mismatch on {field_name!r}: index has {actual!r}, requested {expected!r}")
        self.field_name = field_name


def ndcg_at_k(rank: int | None, top_k: int) -> float:
    """Discounted gain of the single relevant item: 1/log2(rank+1) inside the
    cutoff, 0 for a miss.
    """
    if rank is None or rank > top_k:
        return 0.0
    return 1.0 / math.log2(rank + 1)


def one_call_at_k(rank: int | None, top_k: int) -> int:
    """1 if the held-out item made the top-K, else 0."""
    return 1 if rank is not None and rank <= top_k else 0


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
    elapsed: float = field(default=0.0, compare=False)


def _eval_tasks(dataset: Dataset, split: str):
    """Per-user (user, history items, target, excluded) tuples in a canonical
    user order. For the test split the validation item rejoins the history:
    it precedes the test item chronologically.
    """
    held_out = dataset.validation if split == "validation" else dataset.test
    train_by_user = {seq.user: seq.items for seq in dataset.sequences}
    tasks = []
    for user in sorted(held_out):
        train = train_by_user.get(user, ())
        if split == "test":
            history = train + (dataset.validation[user],)
            excluded = frozenset(train) | {dataset.validation[user]}
        else:
            history = train
            excluded = frozenset(train)
        tasks.append((user, history, held_out[user], excluded))
    return tasks


def _rank_chunk(
    tasks: list, index: NeighborIndex, k: int, universe: tuple[str, ...]
) -> list[int | None]:
    universe_pos = {item: pos for pos, item in enumerate(universe)}
    ranks: list[int | None] = []
    for _user, history, target, excluded in tasks:
        if not history:
            ranks.append(None)
            continue
        window = make_session_window(UserSequence.from_items(_user, history), k)
        scores = positive_scores(window, index)
        ranks.append(rank_of_target(scores, target, excluded, universe_pos))
    return ranks


def evaluate(
    dataset: Dataset,
    index: NeighborIndex,
    split: str,
    top_k: int = 5,
    measure: str | None = None,
    workers: int = 1,
) -> EvalResult:
    """Rank each eligible user's held-out item against the full catalog minus
    their known items, and average NDCG@K and 1-call@K over users.
    """
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
    if measure is not None and measure != index.measure:
        raise ConfigMismatchError("measure", measure, index.measure)
    started = time.perf_counter()
    k = index.params.k
    tasks = _eval_tasks(dataset, split)

    if workers > 1 and len(tasks) > 1:
        size = math.ceil(len(tasks) / workers)
        chunks = [tasks[i : i + size] for i in range(0, len(tasks), size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(
                    _rank_chunk,
                    chunks,
                    [index] * len(chunks),
                    [k] * len(chunks),
                    [dataset.item_universe] * len(chunks),
                )
            )
        ranks = [rank for part in parts for rank in part]
    else:
        ranks = _rank_chunk(tasks, index, k, dataset.item_universe)

    evaluated = [rank for rank in ranks if rank is not None]
    n_skipped = len(ranks) - len(evaluated)
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
        elapsed=elapsed,
    )


DEFAULT_ELLS = (5, 10, 20, 40)
_SCALING_ORDER = {"h_a": 0, "h_b": 1, "h_c": 2}


def expand_grid(
    measure: str,
    ells: tuple[int, ...] = DEFAULT_ELLS,
    lambdas: tuple[float, ...] | None = None,
    scalings: tuple[str, ...] | None = None,
    rho: float = 0.2,
    w: float = 2.0,
    n_neighbors: int = 20,
) -> list[tuple[str, SimilarityParams]]:
    """Expand a hyperparameter grid for one measure, with the standard
    defaults: rho=0.2, w=2, 20 neighbors, ell=k from {5,10,20,40}.

    Position-independent measures ignore lam and scaling, so only ell varies
    for bis and cosine; pas sweeps lam x scaling, pas_uni sweeps scaling.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}, expected one of {MEASURES}")
    if not ells:
        raise ValueError("empty grid: no ell values")
    if measure in ("bis", "cosine"):
        lambdas = (0.0,)
        scalings = ("h_a",)
    elif measure == "pas_uni":
        lambdas = (1.0,)
        scalings = scalings or ("h_a", "h_b", "h_c")
    else:
        lambdas = lambdas or (0.5,)
        scalings = scalings or ("h_a", "h_b", "h_c")
    grid = []
    for ell in ells:
        for lam in lambdas:
            for scaling in scalings:
                grid.append(
                    (measure, SimilarityParams(ell=ell, rho=rho, lam=lam, scaling=scaling,
                                               w=w, n_neighbors=n_neighbors))
                )
    return grid


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
    workers: int = 1,
) -> GridSearchResult:
    """Evaluate every configuration on the validation split, pick the best
    validation 1-call@K (ties: smaller k, then smaller lam, then scaling
    order), and report that configuration on the test split.
    """
    if not grid:
        raise ValueError("empty grid")
    ell_max = max(params.ell for _, params in grid)
    store = count_pairs(dataset.sequences, ell_max, workers=workers)

    validation_rows: list[EvalResult] = []
    best_key: tuple | None = None
    best: tuple[str, SimilarityParams] | None = None
    for measure, params in grid:
        index = build_neighbor_index(store, params, measure, rank_by=rank_by)
        row = evaluate(dataset, index, "validation", top_k=top_k, workers=workers)
        validation_rows.append(row)
        key = (-row.one_call, params.k, params.lam, _SCALING_ORDER[params.scaling], measure)
        if best_key is None or key < best_key:
            best_key = key
            best = (measure, params)

    best_measure, best_params = best
    best_index = build_neighbor_index(store, best_params, best_measure, rank_by=rank_by)
    test_row = evaluate(dataset, best_index, "test", top_k=top_k, workers=workers)
    log.info(
        "grid search: selected %s ell=%d lam=%.2f scaling=%s (validation 1-call@%d=%.4f)",
        best_measure, best_params.ell, best_params.lam, best_params.scaling,
        top_k, -best_key[0],
    )
    return GridSearchResult(
        best_measure=best_measure,
        best_params=best_params,
        validation=tuple(validation_rows),
        test=test_row,
    )


REPORT_COLUMNS = (
    "split", "measure", "rank_by", "k", "ell", "rho", "lam", "scaling", "w",
    "n_neighbors", "top_k", "n_users", "n_skipped", "ndcg_at_k", "one_call_at_k",
)


def _result_row(result: EvalResult) -> dict[str, object]:
    p = result.params
    return {
        "split": result.split,
        "measure": result.measure,
        "rank_by": result.rank_by,
        "k": p.k,
        "ell": p.ell,
        "rho": p.rho,
        "lam": p.lam,
        "scaling": p.scaling,
        "w": p.w,
        "n_neighbors": p.n_neighbors,
        "top_k": result.top_k,
        "n_users": result.n_users,
        "n_skipped": result.n_skipped,
        "ndcg_at_k": result.ndcg,
        "one_call_at_k": result.one_call,
    }


def report_rows(results: list[EvalResult]) -> list[dict[str, object]]:
    return [_result_row(result) for result in results]


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
