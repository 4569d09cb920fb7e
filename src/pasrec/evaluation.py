"""Leave-one-out evaluation: ranking metrics, the per-user evaluation loop,
and validation-driven grid search.

Every user contributes the rank of their single held-out item among the full
catalog minus their known items; NDCG@K and 1-call@K are averaged over users.
An evaluation is a plan and a rank: ``make_plan`` does the work that depends
only on the index's neighbor selection, and ranking an index through it
gathers that index's values. ``grid_search`` ranks the configurations that
select alike through one plan.
"""
from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

# make_session_window is no longer called here: perfbench/tracer.py patches
# it by this name in this module's namespace, as it patches positive_scores
from .domain import MEASURES, SCALINGS, SimilarityParams, make_session_window  # noqa: F401
from .ingest import Dataset
from .similarity import NeighborIndex, _int_type, _ranges, build_neighbor_index, count_pairs

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


def rank_of_target(scores: np.ndarray, target_pos: np.ndarray, excluded: np.ndarray) -> np.ndarray:
    """Rank of the item at target_pos[r] among the items of row r of
    ``scores``, by score descending, then item identifier ascending, so items
    that score zero rank by identifier. The cells ``excluded``, flat
    positions in ``scores``, are left out: they are set to -inf in place.
    Columns must ascend with the item identifier.
    """
    target_score = scores[np.arange(len(scores)), target_pos][:, None]
    np.put(scores, excluded, -np.inf)
    earlier = np.arange(scores.shape[1]) < target_pos[:, None]
    # the items ranked above the target: higher, or tied and earlier
    above = scores > target_score
    above |= (scores == target_score) & earlier
    return 1 + np.count_nonzero(above, axis=1)


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


def positive_scores(
    cells: np.ndarray, value_at: np.ndarray, values: np.ndarray, n_rows: int, n_columns: int
) -> np.ndarray:
    """The float64 [n_rows x n_columns] score matrix of one block: term j adds
    the value at flat position value_at[j] of ``values`` to the cell at flat
    position cells[j] of the matrix, and a cell that no term names scores 0.
    ``values`` is read in column-major order if it is column-major in
    memory, else in row-major order, as ``ravel(order="A")`` reads it.

    One ``np.bincount`` adds the terms in input order. Given them by row,
    then window order, each score is the same float as adding the window's
    values one after another.
    """
    weights = np.take(values.ravel(order="A"), value_at)
    # the bincount of an empty block is int64
    return np.bincount(cells, weights, minlength=n_rows * n_columns).astype(
        np.float64, copy=False).reshape(n_rows, n_columns)


def window_terms(index: NeighborIndex, lift: np.ndarray, n_columns: int, n_rows: int):
    """The function that turns window items into ``positive_scores`` terms
    of ``index``, over ``n_columns`` columns where lift[i] is the column of
    index item i.

    It takes int64 arrays (row, code, position), one element per window
    item: its row in 0..n_rows - 1, its column and its L in 1..k, which only
    pas and pas_uni read, and returns (cells, value_at), each in the
    narrower of int32 and int64 that holds it. A window item adds one term
    per entry that has it as neighbor, in entry order within the item; the
    entries are grouped by neighbor column once, here, so a call only
    gathers. A column with no index item has no entry.
    """
    cell_type, value_type = _int_type(n_rows * n_columns), _int_type(index.values.size)
    # grouped by the neighbor's catalog column, not its index position: the
    # two orders differ where the index lists items out of catalog order
    nbr_column = lift[index.nbrs]
    order = np.argsort(nbr_column, kind="stable")
    # each column's entries are first[c]:first[c] + degree[c] of ``order``
    degree = np.bincount(nbr_column, minlength=n_columns)
    first = np.cumsum(degree) - degree
    target_column = lift[index.targets[order]].astype(cell_type)
    # the steps between rows and between columns in ravel(order="A")
    n_entries, width = index.values.shape
    row_step, column_step = (1, n_entries) if index.values.flags.f_contiguous else (width, 1)
    value_row = (order * row_step).astype(value_type)
    k = index.params.k
    positional = index.measure in ("pas", "pas_uni")

    def terms(row: np.ndarray, code: np.ndarray, position: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        counts = degree[code]
        entry = _ranges(first[code], counts)
        # each term array is made in its own type and added to in place
        cells = np.repeat((row * n_columns).astype(cell_type), counts)
        cells += target_column[entry]
        value_at = value_row[entry]
        if positional:
            # column L holds the value at window position L
            if len(position) and not 1 <= position.min() <= position.max() <= k:
                raise ValueError(f"window positions outside 1..{k}")
            value_at += np.repeat((position * column_step).astype(value_type), counts)
        return cells, value_at

    return terms


@dataclass(frozen=True)
class Block:
    """A block of a split's users as a ``ScoringPlan`` holds it. Its rows are
    ``n_rows`` consecutive users; ``target`` holds the catalog position of
    each row's held-out item, ``excluded`` the flat cells of each row's known
    items, and ``cells`` and ``value_at`` the terms ``positive_scores`` adds.
    """

    n_rows: int
    target: np.ndarray
    excluded: np.ndarray
    cells: np.ndarray
    value_at: np.ndarray


def _layout(index: NeighborIndex) -> tuple[tuple[int, ...], bool]:
    """What a plan's value positions depend on: the shape of ``values`` and
    whether it is column-major. Only pas and pas_uni hold more than one
    column, so the shape also says whether the window position picks one."""
    return index.values.shape, index.values.flags.f_contiguous


@dataclass(frozen=True, eq=False)
class ScoringPlan:
    """The work of scoring one split of a dataset that depends only on the
    index's neighbor selection: the blocks, each with its score terms in
    catalog coordinates. Every index with the same items, targets,
    neighbors, k and value layout ranks through the same plan.
    """

    split: str
    items: tuple[str, ...]
    targets: np.ndarray
    nbrs: np.ndarray
    k: int
    layout: tuple[tuple[int, ...], bool]
    n_columns: int
    n_skipped: int
    blocks: tuple[Block, ...]

    def serves(self, index: NeighborIndex) -> bool:
        """Whether ``index`` ranks through this plan."""
        return (self.items == index.items and self.k == index.params.k and self.layout == _layout(index)
                and np.array_equal(self.targets, index.targets) and np.array_equal(self.nbrs, index.nbrs))


def make_plan(dataset: Dataset, index: NeighborIndex, split: str) -> ScoringPlan:
    """The ``ScoringPlan`` of ``split`` for ``index``'s neighbor selection.

    The split's histories are gathered from the dataset's int64 catalog
    codes, user after user in ascending order; for the test split the
    validation item, which precedes the test item, ends the history. A
    user's known items are their whole slice, their window the last min(k,
    n) entries of it, at L = k - d + 1 for the entry d from the end, and
    their target one array element. Users with an empty history are
    skipped. The others are cut into blocks of at most _BLOCK_CELLS cells
    of a [users x catalog] matrix, each a slice of these arrays. The plan's
    integer arrays take the narrower of int32 and int64 that holds them.
    """
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
    # each catalog item's place in index.items, -1 for an item it lacks
    to_index = np.array([index.item_index.get(item, -1) for item in dataset.item_universe], dtype=np.int64)
    catalog = np.flatnonzero(to_index >= 0)
    missing = len(index.items) - len(catalog)
    if missing:
        raise ValueError(f"index covers {missing} items absent from the dataset; wrong dataset?")
    n_columns = len(to_index)
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
    in_window = distance <= k

    block_users = max(1, _BLOCK_CELLS // max(1, n_columns))
    terms = window_terms(index, lift, n_columns, block_users)
    cell_type = _int_type(block_users * n_columns)
    blocks = []
    for start in range(0, len(users), block_users):
        stop = min(start + block_users, len(users))
        lo, hi = offsets[start], offsets[stop]
        rows, codes, window = owner[lo:hi] - start, flat[lo:hi], in_window[lo:hi]
        excluded = (rows * n_columns + codes).astype(cell_type)
        blocks.append(Block(stop - start, target[start:stop], excluded,
                            *terms(rows[window], codes[window], k + 1 - distance[lo:hi][window])))
    return ScoringPlan(split, index.items, index.targets, index.nbrs, k, _layout(index), n_columns,
                       n_skipped, tuple(blocks))


def _rank(plan: ScoringPlan, index: NeighborIndex, top_k: int, started: float) -> EvalResult:
    """``index``'s metrics on the plan's split: each block's scores are one
    gather of the index's values and one ``positive_scores`` call, and each
    row is ranked by ``rank_of_target``."""
    evaluated: list[int] = []
    for block in plan.blocks:
        scores = positive_scores(block.cells, block.value_at, index.values, block.n_rows, plan.n_columns)
        evaluated += rank_of_target(scores, block.target, block.excluded).tolist()

    n_users = len(evaluated)
    ndcg = math.fsum(ndcg_at_k(rank, top_k) for rank in evaluated) / n_users if n_users else 0.0
    one_call = math.fsum(one_call_at_k(rank, top_k) for rank in evaluated) / n_users if n_users else 0.0
    elapsed = time.perf_counter() - started
    log.info(
        "%s/%s split=%s: ndcg@%d=%.4f 1-call@%d=%.4f over %d users (%.1fs)",
        index.measure, index.params.scaling, plan.split, top_k, ndcg, top_k, one_call, n_users, elapsed,
    )
    return EvalResult(
        measure=index.measure,
        params=index.params,
        rank_by=index.rank_by,
        split=plan.split,
        top_k=top_k,
        n_users=n_users,
        n_skipped=plan.n_skipped,
        ndcg=ndcg,
        one_call=one_call,
    )


def evaluate(
    dataset: Dataset,
    index: NeighborIndex,
    split: str,
    top_k: int = 5,
    measure: str | None = None,
) -> EvalResult:
    """Rank each eligible user's held-out item against the full catalog minus
    their known items, and average NDCG@K and 1-call@K over users: the
    split's ``make_plan``, ranked with the index's values.
    """
    _check_top_k(top_k)
    if measure is not None and measure != index.measure:
        raise ConfigMismatchError("measure", measure, index.measure)
    started = time.perf_counter()
    return _rank(make_plan(dataset, index, split), index, top_k, started)


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
    plan: ScoringPlan | None = None
    for measure, params in grid:
        index = build_neighbor_index(store, params, measure, rank_by=rank_by)
        started = time.perf_counter()
        if plan is None or not plan.serves(index):
            # the builds of one selection share its plan
            plan = None
            plan = make_plan(dataset, index, "validation")
        row = _rank(plan, index, top_k, started)
        validation_rows.append(row)
        key = (-row.one_call, params.k, params.lam, SCALINGS.index(params.scaling), measure)
        if best_key is None or key < best_key:
            best_key = key
            best_index = index
        # so the next build holds at most the winner and itself
        del index

    del plan
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
