"""Position-aware item-to-item similarity and sequential recommendation."""

from .domain import (
    MEASURES,
    SCALINGS,
    SessionWindow,
    SimilarityParams,
    UserSequence,
    make_session_window,
)
from .evaluation import (
    EvalResult,
    GridSearchResult,
    evaluate,
    expand_grid,
    grid_search,
    ndcg_at_k,
    one_call_at_k,
)
from .ingest import (
    ColumnSchema,
    Dataset,
    DatasetStats,
    Interactions,
    build_dataset,
    deduplicate,
    filter_positive,
    load_dataset,
    parse_interactions,
    save_dataset,
    subsample_users,
)
from .similarity import (
    NeighborIndex,
    PairStore,
    average_uni_by_gap,
    build_neighbor_index,
    count_pairs,
    scale,
)
from .synth import SynthConfig, generate, write_log

__version__ = "0.1.0"

__all__ = [
    "MEASURES",
    "SCALINGS",
    "SessionWindow",
    "SimilarityParams",
    "UserSequence",
    "make_session_window",
    "EvalResult",
    "GridSearchResult",
    "evaluate",
    "expand_grid",
    "grid_search",
    "ndcg_at_k",
    "one_call_at_k",
    "ColumnSchema",
    "Dataset",
    "DatasetStats",
    "Interactions",
    "build_dataset",
    "deduplicate",
    "filter_positive",
    "load_dataset",
    "parse_interactions",
    "save_dataset",
    "subsample_users",
    "NeighborIndex",
    "PairStore",
    "average_uni_by_gap",
    "build_neighbor_index",
    "count_pairs",
    "scale",
    "SynthConfig",
    "generate",
    "write_log",
]
