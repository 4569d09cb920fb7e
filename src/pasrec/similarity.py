"""Count-based item-to-item similarity engine.

The whole similarity family is a fold over one sufficient statistic: for each
ordered item pair (i_from, i_to), the histogram of signed position gaps
p(i_to) - p(i_from) across users, plus user-set cardinalities. The corpus is
scanned once; every measure, at every hyperparameter setting, is then a cheap
aggregation over the per-pair histograms.

One routine, ``_numerators``, does every such aggregation: it counts the
users whose gap lies in [low, ell] for a list of integer lower bounds, reading
the stored histogram of either direction through a sign. The scalar
functions, neighbor selection, the stored t = 1..k vectors and the sparsity
profile all take their numerators from it, and nothing derived is cached on
the store. Both bounds are exact integers before a histogram is read: the
reverse bound is -floor(rho*ell) with rho*ell in decimal arithmetic (0.58 * 50
is 29, where floats give 28.999999999999996), and gap > h(k-t) is
gap >= floor(h(k-t)) + 1.

Measures:
  bis      users with gap in [-rho*ell, ell], over the user-set union
  pas_uni  users with gap in (h(k-t), ell], over the union (position-aware)
  pas      convex combination of the two indicators (lam=0 -> bis, lam=1 -> pas_uni)
  cosine   co-occurrence count over sqrt(|U_from| * |U_to|)
"""
from __future__ import annotations

import heapq
import json
import logging
import math
from array import array
from dataclasses import dataclass
from collections.abc import Sequence
from fractions import Fraction

from .domain import MEASURES, SCALINGS, SimilarityParams, UserSequence

log = logging.getLogger(__name__)

RANK_CRITERIA = ("bis", "max_t")


@dataclass(frozen=True)
class PairStats:
    """Directed sufficient statistic for one ordered pair (i_from, i_to).

    gap_counts   users per signed gap p(i_to) - p(i_from), |gap| <= ell_max
    co_users     users containing both items, at any gap
    union_users  |U_from ∪ U_to|
    """

    gap_counts: dict[int, int]
    co_users: int
    union_users: int


def scale(x: float, scaling: str, w: float) -> float:
    """Threshold scaling h(x): h_a(x)=x, h_b(x)=x/w, h_c(x)=w*floor(x/w)."""
    if w <= 1.0:
        raise ValueError(f"scaling parameter w must be > 1, got {w}")
    if x < 0:
        raise ValueError(f"scaling argument must be non-negative, got {x}")
    if scaling == "h_a":
        return x
    if scaling == "h_b":
        return x / w
    if scaling == "h_c":
        return w * math.floor(x / w)
    raise ValueError(f"unknown scaling {scaling!r}")


def _combine(n_bis: int, n_uni: int, lam: float, union: int) -> float:
    # single shared expression so every code path is bit-identical
    return ((1.0 - lam) * n_bis + lam * n_uni) / union


def _bis_low(rho: float, ell: int) -> int:
    """Smallest gap inside [-rho*ell, ell]: -floor(rho*ell), with rho read as
    the decimal it prints as, so 0.58 * 50 is exactly 29."""
    return -math.floor(Fraction(repr(rho)) * ell)


def _uni_low(k: int, t: int, scaling: str, w: float) -> int:
    """Smallest integer gap above the threshold h(k - t)."""
    return math.floor(scale(k - t, scaling, w)) + 1


def _numerators(
    hist: dict[int, int], sign: int, ell: int, lows: Sequence[int]
) -> list[int]:
    """For each bound in ``lows``, the users whose directed gap lies in
    [low, ell]; ``hist`` maps a gap g to its users and the directed gap is
    sign * g, so a canonical histogram serves both directions uncopied.

    This is the only fold over a gap histogram: a bis numerator is the count
    at _bis_low, a pas_uni numerator the count at _uni_low.
    """
    least = min(lows)
    counts = [0] * len(lows)
    for g, c in hist.items():
        d = sign * g
        if least <= d <= ell:
            for j, low in enumerate(lows):
                if d >= low:
                    counts[j] += c
    return counts


def bis_similarity(pair: PairStats, ell: int, rho: float) -> float:
    """Bidirectional similarity: gap in [-rho*ell, ell], over the union."""
    if pair.union_users == 0:
        return 0.0
    (n_bis,) = _numerators(pair.gap_counts, 1, ell, (_bis_low(rho, ell),))
    return n_bis / pair.union_users


def pas_uni_similarity(
    pair: PairStats, ell: int, k: int, t: int, scaling: str, w: float
) -> float:
    """Unidirectional position-aware similarity at window position t.

    Counts users with gap strictly above h(k - t) and at most ell.
    """
    if not 1 <= t <= k:
        raise ValueError(f"window position t={t} outside 1..{k}")
    if pair.union_users == 0:
        return 0.0
    (n_uni,) = _numerators(pair.gap_counts, 1, ell, (_uni_low(k, t, scaling, w),))
    return n_uni / pair.union_users


def pas_similarity(pair: PairStats, params: SimilarityParams, t: int) -> float:
    """Position-aware similarity: (1-lam)*bis + lam*pas_uni, one division.

    Reduces bit-exactly to bis_similarity at lam=0 and to pas_uni_similarity
    at lam=1.
    """
    k = params.k
    if not 1 <= t <= k:
        raise ValueError(f"window position t={t} outside 1..{k}")
    if pair.union_users == 0:
        return 0.0
    lows = (_bis_low(params.rho, params.ell), _uni_low(k, t, params.scaling, params.w))
    n_bis, n_uni = _numerators(pair.gap_counts, 1, params.ell, lows)
    return _combine(n_bis, n_uni, params.lam, pair.union_users)


def cosine_similarity(pair: PairStats, count_i: int, count_j: int) -> float:
    """Cosine over binary incidence: co_users / sqrt(count_i * count_j)."""
    if count_i == 0 or count_j == 0:
        return 0.0
    return pair.co_users / math.sqrt(count_i * count_j)


class PairStore:
    """Per-pair gap histograms and co-occurrence counts for a training corpus.

    Pairs are stored once per unordered pair under (a, b) with a < b in the
    interned index order (item identifiers sorted ascending); the stored gap
    is p(b) - p(a), so the directed view for (b -> a) is the negation.
    Histograms are restricted to |gap| <= ell_max; co-occurrence counts and
    per-item user counts are exact regardless of the band, which keeps the
    union denominators and the cosine baseline exact for every pair.
    """

    def __init__(
        self,
        items: tuple[str, ...],
        item_users: list[int],
        co: dict[tuple[int, int], int],
        gaps: dict[tuple[int, int], dict[int, int]],
        ell_max: int,
    ) -> None:
        self.items = items
        self.item_index = {item: idx for idx, item in enumerate(items)}
        self.item_users = item_users
        self.co = co
        self.gaps = gaps
        self.ell_max = ell_max

    @property
    def n_items(self) -> int:
        return len(self.items)

    def user_count(self, item: str) -> int:
        idx = self.item_index.get(item)
        return 0 if idx is None else self.item_users[idx]

    def _union(self, a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        return self.item_users[a] + self.item_users[b] - self.co.get(key, 0)

    def pair_stats(self, i_from: str, i_to: str) -> PairStats:
        """Directed view for (i_from -> i_to); empty stats for unseen items."""
        a = self.item_index.get(i_from)
        b = self.item_index.get(i_to)
        if a is None or b is None or a == b:
            known = [x for x in (a, b) if x is not None]
            union = self.item_users[known[0]] if len(known) == 1 else 0
            return PairStats(gap_counts={}, co_users=0, union_users=union)
        key = (a, b) if a < b else (b, a)
        hist = self.gaps.get(key, {})
        if a < b:
            gap_counts = dict(hist)
        else:
            gap_counts = {-g: c for g, c in hist.items()}
        return PairStats(
            gap_counts=gap_counts,
            co_users=self.co.get(key, 0),
            union_users=self._union(a, b),
        )


def count_pairs(sequences: Sequence[UserSequence], ell_max: int) -> PairStore:
    """Scan the corpus once and build the pair-statistics store.

    The scan visits each within-user item pair once: the co-occurrence count
    is exact, the gap histogram is kept only for |gap| <= ell_max. It runs in
    one process and writes straight into the dicts the store keeps, so the
    counts exist once; a worker pool would have to pickle partial stores back
    and merge them into a second copy, which costs more than the scan.
    """
    if ell_max < 1:
        raise ValueError(f"ell_max must be >= 1, got {ell_max}")
    sequences = list(sequences)
    items = tuple(sorted({item for seq in sequences for item in seq.items}))
    item_index = {item: idx for idx, item in enumerate(items)}

    item_users = [0] * len(items)
    co: dict[tuple[int, int], int] = {}
    gaps: dict[tuple[int, int], dict[int, int]] = {}
    for seq in sequences:
        idxs = [item_index[item] for item in seq.items]
        for j, b in enumerate(idxs):
            item_users[b] += 1
            for d in range(1, j + 1):
                a = idxs[j - d]
                if a < b:
                    key, gap = (a, b), d
                else:
                    key, gap = (b, a), -d
                co[key] = co.get(key, 0) + 1
                if d <= ell_max:
                    hist = gaps.get(key)
                    if hist is None:
                        hist = gaps[key] = {}
                    hist[gap] = hist.get(gap, 0) + 1

    log.info(
        "counted %d sequences: %d items, %d co-occurring pairs, %d within gap band %d",
        len(sequences), len(items), len(co), len(gaps), ell_max,
    )
    return PairStore(items, item_users, co, gaps, ell_max)


class NeighborIndex:
    """Per-item nearest neighbors with precomputed similarity values.

    Each entry is (neighbor_index, value, vector): ``value`` is the stored
    position-independent similarity (bidirectional for bis/pas/pas_uni,
    cosine for cosine) and ``vector`` holds the per-window-position values
    for t = 1..k (empty for position-independent measures).
    """

    FORMAT = "pasrec-index"
    VERSION = 1

    def __init__(
        self,
        measure: str,
        params: SimilarityParams,
        items: tuple[str, ...],
        entries: list[list[tuple[int, float, tuple[float, ...]]]],
        rank_by: str = "bis",
    ) -> None:
        self.measure = measure
        self.params = params
        self.items = items
        self.item_index = {item: idx for idx, item in enumerate(items)}
        self.entries = entries
        self.rank_by = rank_by
        self._reverse: dict[int, list[tuple[int, float, tuple[float, ...]]]] | None = None

    @property
    def reverse(self) -> dict[int, list[tuple[int, float, tuple[float, ...]]]]:
        """Inverted view: neighbor index -> [(target, value, vector), ...]."""
        if self._reverse is None:
            rev: dict[int, list[tuple[int, float, tuple[float, ...]]]] = {}
            for target, row in enumerate(self.entries):
                for nbr, value, vector in row:
                    rev.setdefault(nbr, []).append((target, value, vector))
            self._reverse = rev
        return self._reverse

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NeighborIndex):
            return NotImplemented
        return (
            self.measure == other.measure
            and self.params == other.params
            and self.rank_by == other.rank_by
            and self.items == other.items
            and self.entries == other.entries
        )

    def save(self, path: str) -> None:
        params = self.params
        header = {
            "ell": params.ell, "rho": params.rho, "lam": params.lam,
            "scaling": params.scaling, "w": params.w, "n_neighbors": params.n_neighbors,
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"#{self.FORMAT}\t{self.VERSION}\n")
            fh.write(f"#measure\t{self.measure}\n")
            fh.write(f"#rank_by\t{self.rank_by}\n")
            fh.write(f"#params\t{json.dumps(header, sort_keys=True)}\n")
            fh.write(f"#items\t{json.dumps(list(self.items))}\n")
            for target, row in enumerate(self.entries):
                for nbr, value, vector in row:
                    packed = ",".join(repr(v) for v in vector)
                    fh.write(f"{target}\t{nbr}\t{value!r}\t{packed}\n")

    @classmethod
    def load(cls, path: str) -> "NeighborIndex":
        with open(path, encoding="utf-8") as fh:
            if fh.readline().rstrip("\n").split("\t") != [f"#{cls.FORMAT}", str(cls.VERSION)]:
                raise ValueError(f"{path}: not a {cls.FORMAT} v{cls.VERSION} artifact")

            def header(lineno: int, key: str, parse, choices=None):
                line = fh.readline()
                name, tab, value = line.rstrip("\n").partition("\t")
                try:
                    if not line:
                        raise ValueError(f"file ends before the #{key} header line")
                    if name != f"#{key}" or not tab:
                        raise ValueError(f"expected a '#{key}<tab>value' header line")
                    if choices is not None and value not in choices:
                        raise ValueError(f"unknown {key} {value!r}, expected one of {choices}")
                    return parse(value)
                except (ValueError, TypeError) as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None

            measure = header(2, "measure", str, MEASURES)
            rank_by = header(3, "rank_by", str, RANK_CRITERIA)
            params = header(4, "params", lambda v: SimilarityParams(**json.loads(v)))
            items = header(5, "items", lambda v: tuple(json.loads(v)))
            n_items = len(items)
            entries: list[list[tuple[int, float, tuple[float, ...]]]] = [[] for _ in items]
            # entry lines follow the five header lines
            for lineno, line in enumerate(fh, start=6):
                fields = line.rstrip("\n").split("\t")
                try:
                    if len(fields) != 4:
                        raise ValueError(f"expected 4 tab-separated fields, got {len(fields)}")
                    target_s, nbr_s, value_s, packed = fields
                    target, nbr = int(target_s), int(nbr_s)
                    if not (0 <= target < n_items and 0 <= nbr < n_items):
                        raise ValueError(f"item id outside [0, {n_items}): target {target}, neighbor {nbr}")
                    vector = tuple(float(v) for v in packed.split(",")) if packed else ()
                    entries[target].append((nbr, float(value_s), vector))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
        return cls(measure, params, items, entries, rank_by=rank_by)


def build_neighbor_index(
    store: PairStore,
    params: SimilarityParams,
    measure: str,
    rank_by: str = "bis",
) -> NeighborIndex:
    """Select the top n_neighbors per item and precompute stored similarities.

    Candidates are the pairs the store observed: gap-band co-occurrences for
    the positional measures, any co-occurrence for cosine. Ranking is by the
    measure's position-independent criterion (bidirectional value for bis and
    pas, the t=k position-aware value for pas_uni, cosine for cosine;
    rank_by="max_t" switches pas to its t=k value). Ties break toward the
    smaller item identifier.

    Each stored pair is folded once per direction to rank; only the selected
    entries are folded again for their t = 1..k vectors.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}, expected one of {MEASURES}")
    if rank_by not in RANK_CRITERIA:
        raise ValueError(f"unknown rank criterion {rank_by!r}")
    if store.ell_max < params.ell:
        raise ValueError(f"store gap band {store.ell_max} narrower than ell={params.ell}")

    ell = params.ell
    users = store.item_users
    bis_low = _bis_low(params.rho, ell)
    uni_lows = [_uni_low(params.k, t, params.scaling, params.w) for t in range(1, params.k + 1)]
    lam = 1.0 if measure == "pas_uni" else params.lam
    # pas_uni, and pas ranked by its largest value, rank at t = k
    rank_by_uni = measure == "pas_uni" or (measure == "pas" and rank_by == "max_t")
    rank_lows = (bis_low, uni_lows[-1]) if rank_by_uni else (bis_low,)

    # per target: negated scores and their candidates, so that ascending
    # (-score, candidate) order is the ranking; arrays keep them unboxed
    negs = [array("d") for _ in range(store.n_items)]
    cands = [array("l") for _ in range(store.n_items)]
    if measure == "cosine":
        for (a, b), co in store.co.items():
            neg = -(co / math.sqrt(users[a] * users[b]))
            negs[b].append(neg)
            cands[b].append(a)
            negs[a].append(neg)
            cands[a].append(b)
    else:
        for (a, b), hist in store.gaps.items():
            union = store._union(a, b)
            for cand, target, sign in ((a, b, 1), (b, a, -1)):
                nums = _numerators(hist, sign, ell, rank_lows)
                score = _combine(nums[0], nums[1], lam, union) if rank_by_uni else nums[0] / union
                negs[target].append(-score)
                cands[target].append(cand)

    lows = [bis_low, *uni_lows] if measure in ("pas", "pas_uni") else [bis_low]
    entries: list[list[tuple[int, float, tuple[float, ...]]]] = []
    for target in range(store.n_items):
        row: list[tuple[int, float, tuple[float, ...]]] = []
        for neg, cand in heapq.nsmallest(params.n_neighbors, zip(negs[target], cands[target])):
            if measure == "cosine":
                row.append((cand, -neg, ()))
                continue
            key, sign = ((cand, target), 1) if cand < target else ((target, cand), -1)
            union = store._union(cand, target)
            n_bis, *n_uni = _numerators(store.gaps[key], sign, ell, lows)
            row.append((cand, n_bis / union, tuple(_combine(n_bis, n, lam, union) for n in n_uni)))
        entries.append(row)

    log.info(
        "built %s index: %d items, %d neighbor entries",
        measure, store.n_items, sum(len(row) for row in entries),
    )
    return NeighborIndex(measure, params, store.items, entries, rank_by=rank_by)


def average_uni_by_gap(
    store: PairStore, ell: int = 10, n_neighbors: int = 20, w: float = 2.0
) -> dict[str, list[float]]:
    """Average position-aware similarity per window gap G = k - t, by scaling.

    Neighbor sets are the top n_neighbors per item ranked at t = k, where the
    threshold h(0) = 0 makes the ranking identical for every scaling; the
    averages then show how fast each scaled variant decays as the query item
    sits further from the prediction point.
    """
    params = SimilarityParams(ell=ell, rho=0.2, lam=1.0, scaling="h_a", w=w,
                              n_neighbors=n_neighbors)
    index = build_neighbor_index(store, params, "pas_uni")
    pairs = [
        (store.gaps[min(nbr, target), max(nbr, target)], 1 if nbr < target else -1,
         store._union(nbr, target))
        for target, row in enumerate(index.entries)
        for nbr, _value, _vector in row
    ]
    profile: dict[str, list[float]] = {}
    for scaling in SCALINGS:
        lows = [_uni_low(ell, t, scaling, w) for t in range(1, ell + 1)]
        # values[i][t - 1]: pair i at window position t
        values = [[n / union for n in _numerators(hist, sign, ell, lows)]
                  for hist, sign, union in pairs]
        profile[scaling] = [
            math.fsum(v[ell - gap - 1] for v in values) / len(values) if values else 0.0
            for gap in range(ell)
        ]
    return profile
