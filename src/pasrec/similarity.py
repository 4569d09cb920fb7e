"""Count-based item-to-item similarity engine.

The whole similarity family is a fold over one sufficient statistic: for each
ordered item pair (i_from, i_to), the histogram of signed position gaps
p(i_to) - p(i_from) across users, plus user-set cardinalities. The corpus is
scanned once; every measure, at every hyperparameter setting, is then a cheap
aggregation over the per-pair histograms.

The store is columnar (see ``PairStore``): sorted int64 pair keys with their
co-occurrence counts, and all gap histograms as one sorted array of entry keys
with the running sum of their users, so the users of one pair with gap in
[x, y] are a difference of that running sum at two ``searchsorted`` positions.

One routine, ``_numerators``, does every such aggregation: for many pairs at
once it counts the users whose directed gap lies in [low, ell] for a list of
integer lower bounds, reading the canonical histogram of either direction
through a sign. Neighbor selection, the stored t = 1..k vectors and the
sparsity profile all take their numerators from it. Both bounds are exact
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

from .domain import MEASURES, SCALINGS, SimilarityParams, UserSequence

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
    keys: np.ndarray, cum: np.ndarray, base, forward, ell: int, lows: Sequence[int]
) -> np.ndarray:
    """Users whose directed gap lies in [low, ell], for each histogram and
    each bound in ``lows``, as an int64 array of shape (len(base), len(lows)).

    Histogram h holds its entry for gap g at key base[h] + g of the ascending
    ``keys``, and cum[j] is the users of the entries before j. The directed
    gap is g where ``forward`` holds and -g elsewhere, so a canonical
    histogram serves both directions uncopied.

    This is the only fold over gap histograms: a bis numerator is the count
    at _bis_low, a pas_uni numerator the count at _uni_low.
    """
    lows = np.asarray(lows, dtype=np.int64)
    forward = np.asarray(forward)[..., None]
    base = np.asarray(base, dtype=np.int64)[:, None]

    def users_upto(gap):
        return cum[np.searchsorted(keys, base + gap, side="right")]

    # stored gaps in [low, ell] forward and in [-ell, -low] backward: one end
    # of the range is the same for every bound
    fixed = users_upto(np.where(forward, ell, -ell - 1))
    moving = users_upto(np.where(forward, lows - 1, -lows))
    return np.where(forward, fixed - moving, moving - fixed)


def _pair_keys(hist_keys: np.ndarray, width: int) -> np.ndarray:
    """The distinct pair keys of ascending histogram keys, ascending."""
    # one pair's entries are adjacent in the ascending keys; pair keys are
    # >= 0, so the prepended -1 makes the first entry a step
    pairs = hist_keys // width
    return pairs[np.diff(pairs, prepend=-1) != 0]


class PairStore:
    """Gap histograms and co-occurrence counts for a training corpus, as
    sorted int64 columns.

    items       item identifiers, ascending; an item's index is its position
    item_users  users per item
    co          keys lo*n + hi (lo < hi) of the co-occurring pairs, ascending
    co_users    users holding both items of each pair in ``co``
    gaps        keys of the pairs with a histogram entry, ascending: the
                values of hist_keys // width, each taken where it steps up
    hist_keys   histogram entries (lo*n + hi)*(2*ell_max + 1) + gap + ell_max,
                ascending, with gap = p(hi) - p(lo); the directed view for
                (hi -> lo) is the negation
    hist_cum    hist_cum[j]: users of the histogram entries before j

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
        hist_keys: np.ndarray,
        hist_users: np.ndarray,
        ell_max: int,
    ) -> None:
        self.items = items
        self.item_users = item_users
        self.co = co
        self.co_users = co_users
        self.ell_max = ell_max
        self.width = 2 * ell_max + 1
        self.hist_keys = hist_keys
        self.hist_cum = np.concatenate(([0], np.cumsum(hist_users)))
        self.gaps = _pair_keys(hist_keys, self.width)
        self.last_selection: tuple | None = None

    @property
    def n_items(self) -> int:
        return len(self.items)

    def _pair_key(self, a, b):
        """Key of each unordered item pair (a, b)."""
        return np.minimum(a, b) * self.n_items + np.maximum(a, b)

    def union(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """|U_a ∪ U_b| of co-occurring item pairs."""
        at = np.searchsorted(self.co, self._pair_key(a, b))
        return self.item_users[a] + self.item_users[b] - self.co_users[at]

    def numerators(self, cand: np.ndarray, target: np.ndarray, ell: int,
                   lows: Sequence[int]) -> np.ndarray:
        """``_numerators`` for the directed pairs cand -> target."""
        base = self._pair_key(cand, target) * self.width + self.ell_max
        return _numerators(self.hist_keys, self.hist_cum, base, cand < target, ell, lows)


def count_pairs(sequences: Sequence[UserSequence], ell_max: int) -> PairStore:
    """Scan the corpus once and build the pair-statistics store.

    Every event is one entry of a flat item-index array; the pairs at
    position distance d are that array against itself shifted by d, kept
    where both events belong to one user. One vectorized pass per d packs
    them into pair keys (all d: exact co-occurrence) and histogram keys
    (d <= ell_max), and ``np.unique`` counts each; the in-band pair keys are
    then one linear pass over the sorted histogram keys.
    """
    if ell_max < 1:
        raise ValueError(f"ell_max must be >= 1, got {ell_max}")
    sequences = list(sequences)
    items = tuple(sorted({item for seq in sequences for item in seq.items}))
    n = len(items)
    width = 2 * ell_max + 1
    if n * n * width > _INT64_MAX:
        raise ValueError(
            f"histogram keys n_items**2 * (2*ell_max + 1) overflow int64 "
            f"(n_items={n}, ell_max={ell_max})"
        )
    item_index = {item: idx for idx, item in enumerate(items)}

    flat = np.array([item_index[item] for seq in sequences for item in seq.items], dtype=np.int64)
    lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
    # 0-based position of every event within its user's sequence
    pos = np.arange(len(flat)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    item_users = np.bincount(flat, minlength=n)

    co_parts = [np.empty(0, dtype=np.int64)]
    hist_parts = [np.empty(0, dtype=np.int64)]
    for d in range(1, int(lengths.max(initial=0))):
        same_user = pos[d:] >= d
        earlier, later = flat[:-d][same_user], flat[d:][same_user]
        pair = np.minimum(earlier, later) * n + np.maximum(earlier, later)
        co_parts.append(pair)
        if d <= ell_max:
            hist_parts.append(pair * width + np.where(earlier < later, d + ell_max, ell_max - d))
    co, co_users = np.unique(np.concatenate(co_parts), return_counts=True)
    hist_keys, hist_users = np.unique(np.concatenate(hist_parts), return_counts=True)

    store = PairStore(items, item_users, co, co_users, hist_keys, hist_users, ell_max)
    log.info(
        "counted %d sequences: %d items, %d co-occurring pairs, %d within gap band %d",
        len(sequences), n, len(store.co), len(store.gaps), ell_max,
    )
    return store


_BLOCK_LINES = 8192  # index lines formatted or parsed at a time
_MEMO_LIMIT = 1 << 16  # strings a load memo holds before it starts over


class _Parsed(dict):
    """A memo of one parse over strings: each distinct string is parsed once,
    to its value or to the ValueError the parse raised. It starts over when
    it holds _MEMO_LIMIT strings, so input that seldom repeats a string loads
    in bounded memory."""

    def __init__(self, parse) -> None:
        super().__init__()
        self.parse = parse
        self.errors = 0  # failed parses since creation, across clears

    def __missing__(self, text: str):
        if len(self) >= _MEMO_LIMIT:
            self.clear()
        try:
            self[text] = self.parse(text)
        except ValueError as exc:
            self[text] = exc
            self.errors += 1
        return self[text]

    def failed(self, parsed: list) -> np.ndarray:
        """Which of parsed, values of this memo, are a ValueError."""
        if not self.errors:
            return np.zeros(len(parsed), dtype=bool)
        return np.fromiter(map(isinstance, parsed, itertools.repeat(ValueError)), bool, len(parsed))


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
            in_range = range(len(items)).__contains__
            vector_length = params.k if measure in ("pas", "pas_uni") else 0
            ints, floats = _Parsed(_canonical(int, str)), _Parsed(_canonical(float, repr))

            def vector(packed: str) -> tuple[float, ...]:
                cells = packed.split(",") if packed else ()
                if len(cells) != vector_length:
                    raise ValueError(f"vector of {len(cells)} values, {measure} stores {vector_length}")
                values = tuple(map(floats.__getitem__, cells))
                if ValueError in map(type, values):
                    raise next(value for value in values if isinstance(value, ValueError))
                return values

            vectors = _Parsed(vector)

            def entry_block(lineno: int):
                """(targets, nbrs, values) of the next block of entry lines,
                the first of them line lineno; None at the end of the file."""
                lines = list(itertools.islice(fh, _BLOCK_LINES))
                if not lines:
                    return None
                fields = [line.rstrip("\n").split("\t") for line in lines]
                # each check runs, in the order a line is checked, on the lines
                # before the first failure so far: the first bad line of the
                # block then reports the first check it fails
                end, error = len(fields), ""

                def check(bad: np.ndarray, describe) -> None:
                    nonlocal end, error
                    hits = np.flatnonzero(bad[:end])
                    if len(hits):
                        end = int(hits[0])
                        error = describe(end)

                check(np.fromiter(map(len, fields), np.intp, end) != 4,
                      lambda i: f"expected 4 tab-separated fields, got {len(fields[i])}")
                target_s, nbr_s, value_s, vector_s = zip(*fields[:end]) if end else ((),) * 4
                targets = list(map(ints.__getitem__, target_s))
                nbrs = list(map(ints.__getitem__, nbr_s))
                check(ints.failed(targets) | ints.failed(nbrs),
                      lambda i: targets[i] if isinstance(targets[i], ValueError) else nbrs[i])
                check(~(np.fromiter(map(in_range, targets[:end]), bool, end)
                        & np.fromiter(map(in_range, nbrs[:end]), bool, end)),
                      lambda i: f"item id outside [0, {len(items)}): "
                                f"target {targets[i]}, neighbor {nbrs[i]}")
                values = list(map(floats.__getitem__, value_s[:end]))
                check(floats.failed(values), values.__getitem__)
                rows = list(map(vectors.__getitem__, vector_s[:end]))
                check(vectors.failed(rows), rows.__getitem__)
                if end < len(fields):
                    raise ValueError(f"{path}:{lineno + end}: {error}")
                flat = np.fromiter(itertools.chain.from_iterable(rows), np.float64, end * vector_length)
                return (np.array(targets, dtype=np.int64), np.array(nbrs, dtype=np.int64),
                        np.column_stack((np.array(values, dtype=np.float64),
                                         flat.reshape(end, vector_length))))

            blocks = [(np.empty(0, np.int64), np.empty(0, np.int64),
                       np.empty((0, 1 + vector_length)))]
            # entry lines follow the five header lines
            for lineno in itertools.count(6, _BLOCK_LINES):
                block = entry_block(lineno)
                if block is None:
                    break
                blocks.append(block)
        targets, nbrs, values = map(np.concatenate, zip(*blocks))
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(target, candidate, ranking score) of the top n_neighbors candidates
    per target, in index row order: target ascending, then score descending
    (equal floats tie), then candidate ascending.

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

    if measure == "cosine":
        pairs = store.co
    else:
        # the pairs with a histogram entry in [-ell, ell]: those of a store
        # banded at ell, however wide this store's band is
        keys = store.hist_keys
        pairs = _pair_keys(keys[np.abs(keys % store.width - store.ell_max) <= params.ell], store.width)
    lo, hi = np.divmod(pairs, store.n_items)
    # both directions of every candidate pair
    cand, target = np.concatenate((lo, hi)), np.concatenate((hi, lo))
    if measure == "cosine":
        users = store.item_users
        score = np.tile(store.co_users / np.sqrt(users[lo] * users[hi]), 2)
    else:
        ell = params.ell
        bis_low = _bis_low(params.rho, ell)
        union = np.tile(store.union(lo, hi), 2)
        # pas_uni, and pas ranked by its largest value, rank at t = k
        if measure == "pas_uni" or (measure == "pas" and rank_by == "max_t"):
            lam = 1.0 if measure == "pas_uni" else params.lam
            uni_low = _uni_low(params.k, params.k, params.scaling, params.w)
            nums = store.numerators(cand, target, ell, (bis_low, uni_low))
            score = _combine(nums[:, 0], nums[:, 1], lam, union)
        else:
            score = store.numerators(cand, target, ell, (bis_low,))[:, 0] / union

    n = store.n_items
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
    return target[keep], cand[keep], score[keep]


def _selection(
    store: PairStore, params: SimilarityParams, measure: str, rank_by: str
) -> tuple[np.ndarray, ...]:
    """(target, candidate, ranking score, union, numerators) of ``_select``'s
    rows. Column 0 of the numerators counts the gaps in [bis_low, ell] and,
    for pas and pas_uni, column j the gaps in [j, ell] for j = 1..k; union and
    numerators are None for cosine.

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
        target, cand, score = _select(store, params, measure, rank_by)
        union = nums = None
        if measure != "cosine":
            lows = [_bis_low(params.rho, params.ell)]
            if measure in ("pas", "pas_uni"):
                lows += range(1, params.k + 1)
            union = store.union(cand, target)
            nums = store.numerators(cand, target, params.ell, lows)
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
