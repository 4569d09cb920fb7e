"""Count-based item-to-item similarity engine.

The whole similarity family is a fold over one sufficient statistic: for each
ordered item pair (i_from, i_to), the histogram of signed position gaps
p(i_to) - p(i_from) across users, plus user-set cardinalities. The corpus is
scanned once; every measure, at every hyperparameter setting, is then a cheap
aggregation over the per-pair histograms.

The store is columnar (see ``PairStore``): sorted int64 pair keys with their
co-occurrence counts, and all gap histograms as entry columns in pair order,
each entry a gap with its users, where the entries of one pair are one
slice found by its index.

One routine, ``_numerators``, does every such aggregation: given histogram
entries and the row each one counts toward, it counts the users whose
directed gap lies in [low, ell] for a list of integer lower bounds, one
``np.bincount`` per bound, and either direction of a pair reads the same
entries through a sign. Neighbor selection scans every entry, the stored
t = 1..k vectors and the sparsity profile only the entries of the selected
pairs, which it carries by index; only ``PairStore.numerators``, for
arbitrary pairs, searches their keys in ``gaps``. Both bounds are exact
integers before a histogram is read: the reverse bound is -floor(rho*ell)
with rho*ell in decimal arithmetic (0.58 * 50 is 29, where floats give
28.999999999999996), and gap > h(k-t) is gap >= floor(h(k-t)) + 1. Every
stored value is one expression evaluated elementwise in float64 on exact
integer counts, so it is the same float a per-pair loop over the counts
gives. A per-pair value is read from a built index or from
``PairStore.numerators``; ``pasrec.oracle`` recounts it from the sequences.

Measures:
  bis      users with gap in [-rho*ell, ell], over the user-set union
  pas_uni  users with gap in (h(k-t), ell], over the union (position-aware)
  pas      convex combination of the two indicators (lam=0 -> bis, lam=1 -> pas_uni)
  cosine   co-occurrence count over sqrt(|U_from| * |U_to|)
"""
from __future__ import annotations

import functools
import itertools
import json
import logging
import math
from dataclasses import asdict, dataclass
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from .domain import MEASURES, SCALINGS, SimilarityParams

log = logging.getLogger(__name__)

RANK_CRITERIA = ("bis", "max_t")

_INT64_MAX = int(np.iinfo(np.int64).max)


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


def _combine(n_bis, n_uni, lam: float, union):
    # one shared expression, elementwise on int64 arrays, so ranking scores
    # and stored values are bit-identical
    return ((1.0 - lam) * n_bis + lam * n_uni) / union


def _bis_low(rho: float, ell: int) -> int:
    """Smallest gap inside [-rho*ell, ell]: -floor(rho*ell), with rho read as
    the decimal it prints as, so 0.58 * 50 is exactly 29."""
    return -math.floor(Fraction(repr(rho)) * ell)


def _uni_low(k: int, t: int, scaling: str, w: float) -> int:
    """Smallest integer gap above the threshold h(k - t)."""
    return math.floor(scale(k - t, scaling, w)) + 1


def _numerators(
    row: np.ndarray, gap: np.ndarray, users: np.ndarray, n_rows: int, ell: int, lows: Sequence[int]
) -> np.ndarray:
    """Users whose directed gap lies in [low, ell], for each row and each
    bound in ``lows``, as an int64 array of shape (n_rows, len(lows)).

    Histogram entry j puts users[j] users at directed gap gap[j] into row
    row[j]; a row's entries need be neither adjacent nor in order. Each bound
    is one ``np.bincount`` of the entries in range, whose float64 sums of
    whole user counts are exact.

    This is the only fold over gap histograms: a bis numerator is the count
    at _bis_low, a pas_uni numerator the count at _uni_low.
    """
    # float64 weights, so no bound casts them again
    users = np.multiply(users, gap <= ell, dtype=np.float64)
    nums = np.empty((n_rows, len(lows)), dtype=np.int64)
    for column, low in enumerate(lows):
        nums[:, column] = np.bincount(row, weights=users * (gap >= low), minlength=n_rows)
    return nums


class PairStore:
    """Gap histograms and co-occurrence counts for a training corpus, as
    integer columns, int64 but for ``hist_gap``.

    items       item identifiers, ascending; an item's index is its position
    item_users  users per item
    co          keys lo*n + hi (lo < hi) of the co-occurring pairs, ascending
    co_users    users holding both items of each pair in ``co``
    gaps        keys of the pairs with a histogram entry, ascending
    gap_union   |U_lo ∪ U_hi| of each pair in ``gaps``
    starts      the histogram entries of gaps[j] are starts[j]:starts[j + 1]
    hist_gap    gap p(hi) - p(lo) of each histogram entry, ascending within
                its pair, in the narrowest signed type that holds the longest
                sequence's length; the directed view for (hi -> lo) is the
                negation
    hist_users  users of each histogram entry

    Histograms are restricted to |gap| <= ell_max; co-occurrence counts and
    per-item user counts are exact regardless of the band, which keeps the
    union denominators and the cosine baseline exact for every pair.

    ``last_selection`` is a one-slot memo of ``_selection``: the last neighbor
    selection with its fold, keyed on the inputs the selection reads.
    """

    def __init__(
        self,
        items: tuple[str, ...],
        item_users: np.ndarray,
        co: np.ndarray,
        co_users: np.ndarray,
        gaps: np.ndarray,
        starts: np.ndarray,
        hist_gap: np.ndarray,
        hist_users: np.ndarray,
        ell_max: int,
    ) -> None:
        self.items = items
        self.item_users = item_users
        self.co = co
        self.co_users = co_users
        self.gaps = gaps
        lo, hi = np.divmod(gaps, len(items))
        self.gap_union = item_users[lo] + item_users[hi] - co_users[np.searchsorted(co, gaps)]
        self.starts = starts
        self.hist_gap = hist_gap
        self.hist_users = hist_users
        self.ell_max = ell_max
        self.last_selection: tuple | None = None

    @property
    def n_items(self) -> int:
        return len(self.items)

    def _pair_key(self, a, b):
        """Key of each unordered item pair (a, b)."""
        return np.minimum(a, b) * self.n_items + np.maximum(a, b)

    def _band_fold(self, ell: int, lows: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """(pair, nums): the pairs gaps[pair] with a histogram entry in
        [-ell, ell], ascending, and ``_numerators`` of both directions of
        each, row r for lo -> hi and row r + len(pair) for hi -> lo.

        Every entry is folded once per direction. With every low above -ell,
        an entry outside [-ell, ell] counts at no bound, so it needs no mask.
        """
        n_pairs = len(self.gaps)
        entry_pair = np.repeat(np.arange(n_pairs), np.diff(self.starts))
        pair = np.flatnonzero(np.bincount(entry_pair, weights=np.abs(self.hist_gap) <= ell,
                                          minlength=n_pairs))
        nums = [_numerators(entry_pair, gap, self.hist_users, n_pairs, ell, lows)[pair]
                for gap in (self.hist_gap, -self.hist_gap)]
        return pair, np.concatenate(nums)

    def _fold(self, begin, end, forward, ell: int, lows: Sequence[int]) -> np.ndarray:
        """``_numerators`` of the rows r that read the histogram entries
        begin[r]:end[r], forward where ``forward`` holds and negated elsewhere."""
        counts = end - begin
        row = np.repeat(np.arange(len(counts)), counts)
        entry = np.arange(len(row)) + np.repeat(begin - np.cumsum(counts) + counts, counts)
        gap = self.hist_gap[entry]
        return _numerators(row, np.where(forward[row], gap, -gap), self.hist_users[entry],
                           len(begin), ell, lows)

    def union(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """|U_a ∪ U_b| of any item pairs."""
        key = self._pair_key(a, b)
        at = np.searchsorted(self.co, key)
        # users of both items: co_users where the key is in ``co`` (the -1
        # sentinel stops a key past the last one), all of U_a where a is b
        both = np.where(np.append(self.co, -1)[at] == key, np.append(self.co_users, 0)[at], 0)
        both = np.where(a == b, self.item_users[a], both)
        return self.item_users[a] + self.item_users[b] - both

    def numerators(self, cand: np.ndarray, target: np.ndarray, ell: int,
                   lows: Sequence[int]) -> np.ndarray:
        """``_numerators`` for the directed pairs cand -> target; a pair
        without histogram entries counts 0."""
        key = self._pair_key(cand, target)
        at = np.searchsorted(self.gaps, key)
        # an absent key, one past the last included, reads starts[at]:starts[at]
        found = np.append(self.gaps, -1)[at] == key
        return self._fold(self.starts[at], self.starts[at + found], cand < target, ell, lows)


def _counted(parts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys of the arrays ``parts``, ascending, with their
    counts; ``parts`` is emptied before the sort, which then holds one copy."""
    keys = np.concatenate(parts)
    parts.clear()
    return np.unique(keys, return_counts=True)


def count_pairs(catalog: Sequence[str], codes: np.ndarray, offsets: np.ndarray, ell_max: int) -> PairStore:
    """Scan the corpus once and build the pair-statistics store.

    The corpus is int64 positions in the ascending ``catalog``: user r's
    distinct items, in sequence order, are codes[offsets[r]:offsets[r + 1]],
    as a ``Dataset`` holds its training items. The store's items are the
    catalog items the corpus holds. The pairs at position distance d are the
    corpus against itself shifted by d, kept where both events belong to one
    user. One vectorized pass per d packs them into pair keys (all d: exact
    co-occurrence) and histogram keys (pair*(2*ell_max + 1) + gap + ell_max,
    d <= ell_max), and ``np.unique`` counts each; the sorted histogram keys
    then split into the entry columns in one linear pass.
    """
    if ell_max < 1:
        raise ValueError(f"ell_max must be >= 1, got {ell_max}")
    # a user's items are distinct, so an item's events are its users
    present, flat, item_users = np.unique(codes, return_inverse=True, return_counts=True)
    items = tuple(catalog[code] for code in present.tolist())
    n = len(items)
    width = 2 * ell_max + 1
    if n * n * width > _INT64_MAX:
        raise ValueError(
            f"histogram keys n_items**2 * (2*ell_max + 1) overflow int64 "
            f"(n_items={n}, ell_max={ell_max})"
        )
    lengths = np.diff(offsets)
    longest = int(lengths.max(initial=0))
    # 0-based position of every event within its user's sequence
    pos = np.arange(len(flat)) - np.repeat(offsets[:-1], lengths)

    co_parts = [np.empty(0, dtype=np.int64)]
    hist_parts = [np.empty(0, dtype=np.int64)]
    for d in range(1, longest):
        same_user = pos[d:] >= d
        earlier, later = flat[:-d][same_user], flat[d:][same_user]
        pair = np.minimum(earlier, later) * n + np.maximum(earlier, later)
        co_parts.append(pair)
        if d <= ell_max:
            hist_parts.append(pair * width + np.where(earlier < later, d + ell_max, ell_max - d))
    co, co_users = _counted(co_parts)
    # hist_gap holds the histogram keys until they are split, in place
    hist_gap, hist_users = _counted(hist_parts)
    pair = hist_gap // width
    hist_gap -= pair * width + ell_max
    # every |gap| is below the longest length, and so is its negation
    hist_gap = hist_gap.astype(np.min_scalar_type(-max(longest, 1)))
    # one pair's entries are adjacent; pair keys are >= 0, so the prepended
    # -1 makes the first entry a step
    starts = np.flatnonzero(np.diff(pair, prepend=-1))
    gaps = pair[starts]
    starts = np.append(starts, len(pair))
    del pair

    store = PairStore(items, item_users, co, co_users, gaps, starts, hist_gap, hist_users, ell_max)
    log.info(
        "counted %d sequences: %d items, %d co-occurring pairs, %d within gap band %d",
        np.count_nonzero(lengths), n, len(store.co), len(store.gaps), ell_max,
    )
    return store


_BLOCK_LINES = 8192  # index lines save formats at a time
_MEMO_LIMIT = 1 << 16  # strings a load memo holds before it starts over


def _memo(memo: dict, parse, text: str):
    """parse(text), parsed once per distinct text through memo, which starts
    over when it holds _MEMO_LIMIT strings, so input that seldom repeats a
    string loads in bounded memory. A parse that raises is not kept."""
    value = memo.get(text)
    if value is None:
        if len(memo) >= _MEMO_LIMIT:
            memo.clear()
        value = memo[text] = parse(text)
    return value


def _canonical(parse, write):
    """``parse``, restricted to the text that ``write`` gives for the parsed
    value: Python's int and float also take spaces, a sign, leading zeros and
    digit underscores, which ``save`` never writes."""
    def parse_canonical(text: str):
        value = parse(text)
        if write(value) != text:
            raise ValueError(f"non-canonical number {text!r}, written {write(value)!r}")
        return value
    return parse_canonical


def _item_names(text: str) -> tuple[str, ...]:
    """The #items header value: a JSON list of distinct item name strings."""
    names = json.loads(text)
    items = tuple(names)
    if (not isinstance(names, list) or not all(isinstance(name, str) for name in items)
            or len(set(items)) < len(items)):
        raise ValueError("expected a JSON list of distinct item name strings")
    return items


@dataclass(eq=False)
class NeighborIndex:
    """Per-item nearest neighbors with precomputed similarity values, as one
    row per neighbor entry across three arrays, sorted by target, then rank:

    targets  int64 item index of the entry's target
    nbrs     int64 item index of the neighbor
    values   float64 [entries x (1 + v)]: column 0 the position-independent
             value (bidirectional for bis/pas/pas_uni, cosine for cosine),
             column t the value at window position t = 1..v, where v is k
             for pas/pas_uni and 0 for bis/cosine
    """

    FORMAT = "pasrec-index"
    VERSION = 1

    measure: str
    params: SimilarityParams
    items: tuple[str, ...]
    targets: np.ndarray
    nbrs: np.ndarray
    values: np.ndarray
    rank_by: str = "bis"

    def __post_init__(self) -> None:
        self.item_index = {item: idx for idx, item in enumerate(self.items)}

    @functools.cached_property
    def entries(self) -> list[list[tuple[int, float, tuple[float, ...]]]]:
        """Rows of (neighbor, value, vector) per target in Python types, for
        readers that walk one target's neighbors; derived from the arrays."""
        rows: list[list[tuple[int, float, tuple[float, ...]]]] = [[] for _ in self.items]
        for target, nbr, (value, *vector) in zip(self.targets.tolist(), self.nbrs.tolist(),
                                                 self.values.tolist()):
            rows[target].append((nbr, value, tuple(vector)))
        return rows

    @functools.cached_property
    def inverted(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries grouped by neighbor, ``(starts, targets, values)``: rows
        starts[j]:starts[j + 1] name neighbor j, and row r holds an entry of
        item targets[r] with values[r] its row of ``self.values``.
        """
        order = np.argsort(self.nbrs, kind="stable")
        starts = np.searchsorted(self.nbrs[order], np.arange(len(self.items) + 1))
        return starts, self.targets[order], self.values[order]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NeighborIndex):
            return NotImplemented
        return (
            self.measure == other.measure
            and self.params == other.params
            and self.rank_by == other.rank_by
            and self.items == other.items
            and np.array_equal(self.targets, other.targets)
            and np.array_equal(self.nbrs, other.nbrs)
            and np.array_equal(self.values, other.values)
        )

    def save(self, path: str) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        names = np.array([str(item) for item in range(len(self.items))], dtype=object)
        line = "%s\t%s\t%s\t" + ",".join(["%s"] * (values.shape[1] - 1)) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"#{self.FORMAT}\t{self.VERSION}\n")
            fh.write(f"#measure\t{self.measure}\n")
            fh.write(f"#rank_by\t{self.rank_by}\n")
            fh.write(f"#params\t{json.dumps(asdict(self.params), sort_keys=True)}\n")
            fh.write(f"#items\t{json.dumps(list(self.items))}\n")
            for start in range(0, len(self.targets), _BLOCK_LINES):
                block = slice(start, start + _BLOCK_LINES)
                # the values are ratios of small counts and repeat heavily: repr
                # each distinct float of the block once, keyed by its bits so
                # -0.0 stays apart from 0.0
                bits, cell = np.unique(values[block].view(np.int64), return_inverse=True)
                texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
                cells = np.column_stack((names[self.targets[block]], names[self.nbrs[block]],
                                         texts[cell.reshape(values[block].shape)]))
                fh.write(line * len(cells) % tuple(cells.ravel().tolist()))

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
            items = header(5, "items", _item_names)
            vector_length = params.k if measure in ("pas", "pas_uni") else 0
            parse_id, parse_value = _canonical(int, str), _canonical(float, repr)
            # one memo each: a packed vector "0.5" is not the value "0.5"
            ids, floats, vectors = {}, {}, {}

            def vector(packed: str) -> tuple[float, ...]:
                cells = packed.split(",") if packed else ()
                if len(cells) != vector_length:
                    raise ValueError(f"vector of {len(cells)} values, {measure} stores {vector_length}")
                return tuple(_memo(floats, parse_value, cell) for cell in cells)

            targets, nbrs, values, rows = [], [], [], []
            # entry lines follow the five header lines; the first bad line fails
            for lineno, line in enumerate(fh, start=6):
                fields = line.rstrip("\n").split("\t")
                try:
                    if len(fields) != 4:
                        raise ValueError(f"expected 4 tab-separated fields, got {len(fields)}")
                    target = _memo(ids, parse_id, fields[0])
                    nbr = _memo(ids, parse_id, fields[1])
                    if not (0 <= target < len(items) and 0 <= nbr < len(items)):
                        raise ValueError(f"item id outside [0, {len(items)}): target {target}, neighbor {nbr}")
                    value = _memo(floats, parse_value, fields[2])
                    row = _memo(vectors, vector, fields[3])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                targets.append(target)
                nbrs.append(nbr)
                values.append(value)
                rows.append(row)
        flat = np.fromiter(itertools.chain.from_iterable(rows), np.float64, len(rows) * vector_length)
        targets, nbrs = np.array(targets, dtype=np.int64), np.array(nbrs, dtype=np.int64)
        values = np.column_stack((np.array(values, dtype=np.float64), flat.reshape(len(rows), vector_length)))
        # scoring needs finite values and no measure is negative; a share may
        # round an ulp above 1, so there is no upper bound
        bad = np.argwhere(~((values >= 0.0) & (values < np.inf)))
        if len(bad):
            row, column = bad[0]
            raise ValueError(f"{path}:{row + 6}: {float(values[row, column])!r} outside [0, inf)")
        # scoring adds one value per (target, neighbor) entry
        keys = targets * len(items) + nbrs
        by_key = np.argsort(keys, kind="stable")
        repeats = by_key[1:][keys[by_key[1:]] == keys[by_key[:-1]]]
        if len(repeats):
            row = repeats.min()
            raise ValueError(f"{path}:{row + 6}: repeated entry for target {targets[row]}, neighbor {nbrs[row]}")
        # the builder never pairs an item with itself and keeps at most
        # n_neighbors rows per target
        selves = np.flatnonzero(targets == nbrs)
        if len(selves):
            row = selves[0]
            raise ValueError(f"{path}:{row + 6}: item {targets[row]} is its own neighbor")
        order = np.argsort(targets, kind="stable")
        slot = np.arange(len(order)) - np.searchsorted(targets[order], targets[order])
        extra = order[slot >= params.n_neighbors]
        if len(extra):
            row = extra.min()
            raise ValueError(f"{path}:{row + 6}: target {targets[row]} has more than "
                             f"n_neighbors={params.n_neighbors} entries")
        return cls(measure, params, items, targets[order], nbrs[order], values[order], rank_by=rank_by)


def _select(
    store: PairStore, params: SimilarityParams, measure: str, rank_by: str
) -> tuple[np.ndarray, ...]:
    """(target, candidate, ranking score, pair, union) of the top n_neighbors
    candidates per target, in index row order: target ascending, then score
    descending (equal floats tie), then candidate ascending. Row r reads the
    histogram of gaps[pair[r]], and union[r] is its |U_cand ∪ U_target|;
    pair and union are None for cosine.

    The order is one ``argsort`` of an int64 key packing the target, the
    dense rank of the score among the distinct scores and the candidate;
    a ValueError names the sizes when n_items**2 * distinct scores does not
    fit in int64.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}, expected one of {MEASURES}")
    if rank_by not in RANK_CRITERIA:
        raise ValueError(f"unknown rank criterion {rank_by!r}")
    if store.ell_max < params.ell:
        raise ValueError(f"store gap band {store.ell_max} narrower than ell={params.ell}")

    n = store.n_items
    if measure == "cosine":
        lo, hi = np.divmod(store.co, n)
        users = store.item_users
        score = np.tile(store.co_users / np.sqrt(users[lo] * users[hi]), 2)
        pair = union = None
    else:
        # the candidates are the pairs with a histogram entry in [-ell, ell]:
        # those of a store banded at ell, however wide this store's band is;
        # every bound is above -ell, as rho < 1
        ell = params.ell
        lows = [_bis_low(params.rho, ell)]
        # pas_uni, and pas ranked by its largest value, rank at t = k
        by_uni = measure == "pas_uni" or (measure == "pas" and rank_by == "max_t")
        if by_uni:
            lows.append(_uni_low(params.k, params.k, params.scaling, params.w))
        pair, nums = store._band_fold(ell, lows)
        lo, hi = np.divmod(store.gaps[pair], n)
        union = store.gap_union[pair]
        if by_uni:
            lam = 1.0 if measure == "pas_uni" else params.lam
            score = _combine(nums[:, 0], nums[:, 1], lam, np.tile(union, 2))
        else:
            score = nums[:, 0] / np.tile(union, 2)
        del nums  # not held through the sort below
    # both directions of every candidate pair: row r is lo[r] -> hi[r], row
    # r + len(lo) the reverse
    cand, target = np.concatenate((lo, hi)), np.concatenate((hi, lo))

    distinct, rank = np.unique(-score, return_inverse=True)
    n_scores = len(distinct)
    if n * n * n_scores > _INT64_MAX:
        raise ValueError(
            f"selection keys n_items**2 * distinct scores overflow int64 "
            f"(n_items={n}, distinct scores={n_scores})"
        )
    # the (target, candidate) pairs are distinct, so the keys are too and an
    # unstable sort gives the one order
    order = np.argsort((target * n_scores + rank) * n + cand)
    # a row's slot is its place among its target's rows, which are adjacent
    counts = np.bincount(target, minlength=n)
    slot = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
    keep = order[slot < params.n_neighbors]
    if pair is not None:
        pair, union = pair[keep % len(lo)], union[keep % len(lo)]
    return target[keep], cand[keep], score[keep], pair, union


def _selection(
    store: PairStore, params: SimilarityParams, measure: str, rank_by: str
) -> tuple[np.ndarray, ...]:
    """(target, candidate, ranking score, union, numerators) of ``_select``'s
    rows. Column 0 of the numerators counts the gaps in [bis_low, ell] and,
    for pas and pas_uni, column j the gaps in [j, ell] for j = 1..k; union and
    numerators are None for cosine. The fold reads only the histogram entries
    of the selected rows, found through the pairs ``_select`` carries.

    Every ``_uni_low`` lies in [1, k], so these columns serve every scaling
    and w. The selection reads neither scaling nor w (pas_uni and max_t rank
    at h(0) = 0), and lam only when pas ranks by max_t, so the store keeps
    the last selection keyed on what it does read: the builds of one ell
    share one selection and one fold. The arrays are read-only, as the
    indexes built from them share them.
    """
    key = (measure, rank_by, params.ell, params.rho, params.n_neighbors,
           params.lam if measure == "pas" and rank_by == "max_t" else None)
    if store.last_selection is None or store.last_selection[0] != key:
        # free the old selection before making the new one
        store.last_selection = None
        target, cand, score, pair, union = _select(store, params, measure, rank_by)
        nums = None
        if measure != "cosine":
            lows = [_bis_low(params.rho, params.ell)]
            if measure in ("pas", "pas_uni"):
                lows += range(1, params.k + 1)
            nums = store._fold(store.starts[pair], store.starts[pair + 1], cand < target,
                               params.ell, lows)
        arrays = (target, cand, score, union, nums)
        for array in arrays:
            if array is not None:
                array.flags.writeable = False
        store.last_selection = (key, arrays)
    return store.last_selection[1]


def build_neighbor_index(
    store: PairStore,
    params: SimilarityParams,
    measure: str,
    rank_by: str = "bis",
) -> NeighborIndex:
    """Select the top n_neighbors per item and precompute stored similarities.

    Candidates are the pairs the store observed: for the positional measures
    those with a gap in [-ell, ell], so a store banded wider than ell gives
    the index of one banded at ell; any co-occurrence for cosine. Ranking is
    by the measure's position-independent criterion (bidirectional value for
    bis and pas, the t=k position-aware value for pas_uni, cosine for cosine;
    rank_by="max_t" switches pas to its t=k value). Ties break toward the
    smaller item identifier.

    Every candidate pair is folded once per direction to rank, and the
    selected entries once more at every bound a vector can read. The store
    keeps both for the next build with the same selection inputs, which then
    only gathers its columns and combines them.
    """
    target, cand, score, union, nums = _selection(store, params, measure, rank_by)
    if measure == "cosine":
        values = score[:, None]
    else:
        columns = [0]
        if measure in ("pas", "pas_uni"):
            # column j counts the gaps in [j, ell]
            columns += [_uni_low(params.k, t, params.scaling, params.w) for t in range(1, params.k + 1)]
        lam = 1.0 if measure == "pas_uni" else params.lam
        nums = nums[:, columns]
        values = np.column_stack((nums[:, 0] / union,
                                  _combine(nums[:, :1], nums[:, 1:], lam, union[:, None])))

    log.info(
        "built %s index: %d items, %d neighbor entries", measure, store.n_items, len(target),
    )
    return NeighborIndex(measure, params, store.items, target, cand, values, rank_by=rank_by)


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
    *_, union, nums = _selection(store, params, "pas_uni", "bis")
    profile: dict[str, list[float]] = {}
    for scaling in SCALINGS:
        # column j of nums counts the gaps in [j, ell]
        columns = [_uni_low(ell, t, scaling, w) for t in range(1, ell + 1)]
        # values[i, t - 1]: pair i at window position t
        values = nums[:, columns] / union[:, None]
        profile[scaling] = [
            math.fsum(values[:, ell - gap - 1].tolist()) / len(values) if len(values) else 0.0
            for gap in range(ell)
        ]
    return profile
