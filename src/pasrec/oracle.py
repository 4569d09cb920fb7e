"""Brute-force reference implementations of every similarity measure and of
the prediction rule, used to cross-check the engine.

Everything here recounts from the raw sequences on every call: a literal
double loop over users and items, no shared counting code with the engine,
no precomputed statistics. Clarity over speed; intended for test-scale data
only (tens of users, tens of items).
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from decimal import Decimal

from .domain import SessionWindow, SimilarityParams, UserSequence, make_session_window


def _scale(x: float, scaling: str, w: float) -> float:
    if scaling == "h_a":
        return x
    if scaling == "h_b":
        return x / w
    if scaling == "h_c":
        return w * math.floor(x / w)
    raise ValueError(f"unknown scaling {scaling!r}")


def _reverse_limit(rho: float, ell: int) -> Decimal:
    # -rho*ell in decimal arithmetic: 0.58 * 50 is 29 here, not 28.999999999999996
    return -Decimal(repr(rho)) * ell


def _union_size(sequences: Sequence[UserSequence], item_a: str, item_b: str) -> int:
    users_a = {s.user for s in sequences if item_a in s.position}
    users_b = {s.user for s in sequences if item_b in s.position}
    return len(users_a | users_b)


def oracle_bis(
    sequences: Sequence[UserSequence], i_from: str, i_to: str, ell: int, rho: float
) -> float:
    """Bidirectional similarity from i_from to i_to, recounted from scratch.

    Counts users whose position gap p(i_to) - p(i_from) lies in
    [-rho*ell, ell], divided by the size of the user-set union.
    """
    lo = _reverse_limit(rho, ell)
    count = 0
    for seq in sequences:
        pos = seq.position
        if i_from in pos and i_to in pos:
            gap = pos[i_to] - pos[i_from]
            if lo <= gap <= ell:
                count += 1
    union = _union_size(sequences, i_from, i_to)
    return count / union if union else 0.0


def oracle_pas(
    sequences: Sequence[UserSequence],
    i_from: str,
    i_to: str,
    params: SimilarityParams,
    t: int,
) -> float:
    """Position-aware similarity from i_from to i_to at window position t.

    Literal per-user evaluation of the convex combination of the
    bidirectional indicator and the position-aware indicator, then one
    division by the user-set union.
    """
    k = params.k
    if not 1 <= t <= k:
        raise ValueError(f"window position t={t} outside 1..{k}")
    threshold = _scale(k - t, params.scaling, params.w)
    lo = _reverse_limit(params.rho, params.ell)
    total = 0.0
    for seq in sequences:
        pos = seq.position
        if i_from in pos and i_to in pos:
            gap = pos[i_to] - pos[i_from]
            delta_bis = 1.0 if lo <= gap <= params.ell else 0.0
            delta_pos = 1.0 if threshold < gap <= params.ell else 0.0
            total += (1.0 - params.lam) * delta_bis + params.lam * delta_pos
    union = _union_size(sequences, i_from, i_to)
    return total / union if union else 0.0


def oracle_cosine(sequences: Sequence[UserSequence], i_from: str, i_to: str) -> float:
    """Cosine similarity over binary user-item incidence, from scratch."""
    users_from = {s.user for s in sequences if i_from in s.position}
    users_to = {s.user for s in sequences if i_to in s.position}
    if not users_from or not users_to:
        return 0.0
    co = len(users_from & users_to)
    return co / math.sqrt(len(users_from) * len(users_to))


def _ranking_score(
    sequences: Sequence[UserSequence],
    candidate: str,
    target: str,
    params: SimilarityParams,
    measure: str,
    rank_by: str,
) -> float:
    if measure == "cosine":
        return oracle_cosine(sequences, candidate, target)
    if measure == "pas_uni":
        uni = SimilarityParams(
            ell=params.ell, rho=params.rho, lam=1.0, scaling=params.scaling,
            w=params.w, n_neighbors=params.n_neighbors,
        )
        return oracle_pas(sequences, candidate, target, uni, t=params.k)
    if measure == "pas" and rank_by == "max_t":
        return oracle_pas(sequences, candidate, target, params, t=params.k)
    # bis, and the default position-independent ranking for pas
    return oracle_bis(sequences, candidate, target, params.ell, params.rho)


def oracle_neighborhood(
    sequences: Sequence[UserSequence],
    target: str,
    params: SimilarityParams,
    measure: str,
    rank_by: str = "bis",
) -> list[str]:
    """Top-n neighbor set of ``target`` with the engine's ranking rule.

    Only candidates with a strictly positive ranking score are returned;
    zero-score items contribute nothing to any prediction, so their presence
    or absence in the stored set is immaterial.
    """
    all_items = sorted({item for s in sequences for item in s.items})
    scored = []
    for candidate in all_items:
        if candidate == target:
            continue
        score = _ranking_score(sequences, candidate, target, params, measure, rank_by)
        if score > 0.0:
            scored.append((candidate, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return [candidate for candidate, _ in scored[: params.n_neighbors]]


def oracle_predict(
    sequences: Sequence[UserSequence],
    user: str,
    target: str,
    params: SimilarityParams,
    measure: str,
    rank_by: str = "bis",
) -> float:
    """Predicted preference of ``user`` for ``target``: the sum of oracle
    similarities from window items that fall inside the oracle neighborhood.
    """
    seq = next(s for s in sequences if s.user == user)
    window = make_session_window(seq, params.k)
    neighborhood = set(oracle_neighborhood(sequences, target, params, measure, rank_by))
    total = 0.0
    for item in window.items:
        if item not in neighborhood:
            continue
        total += _window_item_similarity(sequences, item, target, params, measure, window)
    return total


def _window_item_similarity(
    sequences: Sequence[UserSequence],
    item: str,
    target: str,
    params: SimilarityParams,
    measure: str,
    window: SessionWindow,
) -> float:
    if measure == "bis":
        return oracle_bis(sequences, item, target, params.ell, params.rho)
    if measure == "cosine":
        return oracle_cosine(sequences, item, target)
    if measure == "pas_uni":
        uni = SimilarityParams(
            ell=params.ell, rho=params.rho, lam=1.0, scaling=params.scaling,
            w=params.w, n_neighbors=params.n_neighbors,
        )
        return oracle_pas(sequences, item, target, uni, t=window.window_position[item])
    return oracle_pas(sequences, item, target, params, t=window.window_position[item])
