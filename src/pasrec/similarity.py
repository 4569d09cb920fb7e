"""Count-based item-to-item similarity engine.

The whole similarity family is a fold over one sufficient statistic: for each
ordered item pair (i_from, i_to), the histogram of signed position gaps
p(i_to) - p(i_from) across users, plus user-set cardinalities. The corpus is
scanned once; every measure, at every hyperparameter setting, is then a cheap
aggregation over the per-pair histograms.

The store is columnar (see ``PairStore``): sorted pair keys with their
co-occurrence counts, and all gap histograms as entry columns in pair order,
each entry a gap with its users, where the entries of one pair are one
slice found by its index.

One routine, ``_numerators``, does every such aggregation: given histogram
entries and the row each one counts toward, it counts the users whose
directed gap lies in [low, ell] for a list of integer lower bounds, one
``np.bincount`` per bound, and either direction of a pair reads the same
entries through a sign. Neighbor selection scans every entry, the stored
t = 1..k vectors and the sparsity profile only the entries of the selected
pairs, which ``PairStore.numerators`` finds by searching their keys in
``gaps``, as it does for any pairs. Both bounds are exact
integers before a histogram is read: the reverse bound is -floor(rho*ell)
with rho*ell in decimal arithmetic (0.58 * 50 is 29, where floats give
28.999999999999996), and gap > h(k-t) is gap >= floor(h(k-t)) + 1. Every
stored value is one expression evaluated elementwise in float64 on exact
integer counts, so it is the same float a per-pair loop over the counts
gives. A per-pair value is read from a built index or from
``PairStore.numerators``; ``pasrec.oracle`` recounts it from the sequences.
``positive_scores`` adds a window's stored values through the index's
by-neighbor view.

Measures:
  bis      users with gap in [-rho*ell, ell], over the user-set union
  pas_uni  users with gap in (h(k-t), ell], over the union (position-aware)
  pas      convex combination of the two indicators (lam=0 -> bis, lam=1 -> pas_uni)
  cosine   co-occurrence count over sqrt(|U_from| * |U_to|)
"""
from __future__ import annotations

import functools
import json
import logging
import math
import os
from dataclasses import asdict, dataclass
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from .domain import MEASURES, SCALINGS, SimilarityParams
from .ingest import _escaped, _repeats

log = logging.getLogger(__name__)

RANK_CRITERIA = ("bis", "max_t")

_INT32_MAX = int(np.iinfo(np.int32).max)
_INT64_MAX = int(np.iinfo(np.int64).max)


def _int_type(largest: int) -> type:
    """The narrower of int32 and int64 that holds ``largest``."""
    return np.int32 if largest <= _INT32_MAX else np.int64


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
    # one shared expression, elementwise on integer counts, so ranking
    # scores and stored values are bit-identical
    return ((1.0 - lam) * n_bis + lam * n_uni) / union


def _bis_low(rho: float, ell: int) -> int:
    """Smallest gap inside [-rho*ell, ell]: -floor(rho*ell), with rho read as
    the decimal it prints as, so 0.58 * 50 is exactly 29."""
    return -math.floor(Fraction(repr(rho)) * ell)


def _uni_low(k: int, t: int, scaling: str, w: float) -> int:
    """Smallest integer gap above the threshold h(k - t)."""
    return math.floor(scale(k - t, scaling, w)) + 1


def _ranges(begin: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges begin[i]:begin[i] + counts[i], laid end to end."""
    return np.arange(counts.sum()) + np.repeat(begin - np.cumsum(counts) + counts, counts)


def _numerators(
    row: np.ndarray, gap: np.ndarray, users: np.ndarray, n_rows: int, ell: int, lows: Sequence[int]
) -> np.ndarray:
    """Users whose directed gap lies in [low, ell], for each row and each
    bound in ``lows``, as an array of shape (n_rows, len(lows)) in the type
    of ``users``: a store's rows count each user at most once, and its count
    type holds the number of users.

    Histogram entry j puts users[j] users at directed gap gap[j] into row
    row[j]; a row's entries need be neither adjacent nor in order. Each bound
    is one ``np.bincount`` of the entries in range, whose float64 sums of
    whole user counts are exact.

    This is the only fold over gap histograms: a bis numerator is the count
    at _bis_low, a pas_uni numerator the count at _uni_low.
    """
    nums = np.empty((n_rows, len(lows)), dtype=users.dtype)
    # float64 weights, so no bound casts them again
    users = np.multiply(users, gap <= ell, dtype=np.float64)
    for column, low in enumerate(lows):
        nums[:, column] = np.bincount(row, weights=users * (gap >= low), minlength=n_rows)
    return nums


class PairStore:
    """Gap histograms and co-occurrence counts for a training corpus, as
    integer columns. Pair keys (``co``, ``gaps``) take the narrower of int32
    and int64 that holds n_items**2, counts (``co_users``, ``gap_union``,
    ``hist_users``) the one that holds the number of sequences, ``starts``
    the one that holds the entry count; ``item_users`` is int64.

    items       item identifiers, ascending; an item's index is its position
    item_users  users per item
    co          keys lo*n + hi (lo < hi) of the co-occurring pairs, ascending
    co_users    users holding both items of each pair in ``co``
    gaps        keys of the pairs with a histogram entry, ascending
    gap_union   |U_lo ∪ U_hi| of each pair in ``gaps``
    starts      the histogram entries of gaps[j] are starts[j]:starts[j + 1]
    hist_gap    gap p(hi) - p(lo) of each histogram entry, ascending within
                its pair, in the narrowest signed type that holds the widest
                gap stored, min(ell_max, longest sequence - 1), and one more,
                so its negation, the directed view for (hi -> lo), fits too
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
        self.gap_union = (item_users[lo] + item_users[hi]
                          - co_users[np.searchsorted(co, gaps)]).astype(co_users.dtype)
        self.starts = starts
        self.hist_gap = hist_gap
        self.hist_users = hist_users
        self.ell_max = ell_max
        self.last_selection: tuple | None = None

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def nbytes(self) -> int:
        """Bytes of the store's columns."""
        return sum(column.nbytes for column in (
            self.item_users, self.co, self.co_users, self.gaps, self.gap_union, self.starts,
            self.hist_gap, self.hist_users))

    def _band_fold(self, ell: int, lows: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """(pair, nums): the pairs gaps[pair] with a histogram entry in
        [-ell, ell], ascending, and ``_numerators`` of both directions of
        each, row r for lo -> hi and row r + len(pair) for hi -> lo.

        Every entry is folded once per direction, and no more. With every
        low above -ell, an entry outside [-ell, ell] counts at no bound, so
        it needs no mask; lows[0], the bis bound -floor(rho*ell) <= 0, counts
        an entry in [-ell, ell] in one direction or the other.
        """
        n_pairs = len(self.gaps)
        entry_pair = np.repeat(np.arange(n_pairs), np.diff(self.starts))
        forward, reverse = (_numerators(entry_pair, gap, self.hist_users, n_pairs, ell, lows)
                            for gap in (self.hist_gap, -self.hist_gap))
        # '|' of the non-negative counts, as a sum could overflow their type
        pair = np.flatnonzero(forward[:, 0] | reverse[:, 0])
        return pair, np.concatenate((forward[pair], reverse[pair]))

    def _find(self, keys: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(at, found): where the key of each unordered item pair (a, b) is
        or would be in ``keys``, ``co`` or ``gaps``, and whether it is there.
        The keys take the column's type, so the search casts them, not the
        column, and are searched in ascending order, as numpy starts each
        search from the last one's result: for a selection's rows that more
        than pays for the sort."""
        key = (np.minimum(a, b) * self.n_items + np.maximum(a, b)).astype(keys.dtype)
        order = np.argsort(key)
        at = np.empty(len(key), dtype=np.intp)
        at[order] = np.searchsorted(keys, key[order])
        # a key past the last one is at len(keys), and not found
        found = at < len(keys)
        found[found] = keys[at[found]] == key[found]
        return at, found

    def union(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """|U_a ∪ U_b| of any item pairs."""
        at, found = self._find(self.co, a, b)
        # users of both items: all of U_a where a is b, co_users where the
        # pair is in ``co``, which holds no pair of an item with itself
        both = np.where(a == b, self.item_users[a], 0)
        both[found] = self.co_users[at[found]]
        return self.item_users[a] + self.item_users[b] - both

    def numerators(self, cand: np.ndarray, target: np.ndarray, ell: int,
                   lows: Sequence[int]) -> np.ndarray:
        """``_numerators`` for the directed pairs cand -> target, in the type
        of ``hist_users``: row r reads pair r's histogram entries forward
        where cand < target and negated elsewhere; a pair without histogram
        entries counts 0."""
        at, found = self._find(self.gaps, cand, target)
        # an absent pair reads starts[at]:starts[at]
        begin = self.starts[at]
        counts = self.starts[at + found] - begin
        row = np.repeat(np.arange(len(counts)), counts)
        entry = _ranges(begin, counts)
        gap = self.hist_gap[entry]
        return _numerators(row, np.where((cand < target)[row], gap, -gap), self.hist_users[entry],
                           len(counts), ell, lows)


def _counted(keys: np.ndarray, count_type: type) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys``, ascending, with their counts as ``count_type``;
    ``keys`` is sorted in place and cut into runs of equal keys."""
    keys.sort()
    step = np.empty(len(keys), dtype=bool)
    step[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=step[1:])
    starts = np.flatnonzero(step)
    del step
    # run lengths written straight into count_type, with no int64 copy
    counts = np.empty(len(starts), dtype=count_type)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1:] = len(keys) - starts[-1:]
    return keys[starts], counts


def count_pairs(catalog: Sequence[str], codes: np.ndarray, offsets: np.ndarray, ell_max: int) -> PairStore:
    """Scan the corpus once and build the pair-statistics store.

    The corpus is int64 positions in the ascending ``catalog``: user r's
    distinct items, in sequence order, are codes[offsets[r]:offsets[r + 1]],
    as a ``Dataset`` holds its training items. The store's items are the
    catalog items the corpus holds. The pairs at position distance d are the
    corpus against itself shifted by d, kept where both events belong to one
    user; a user of length L has L - d of them, so both key buffers are
    sized before the scan. One vectorized pass per d writes them, in place,
    as pair keys (all d: exact co-occurrence) and histogram keys
    (pair*(2*ell_max + 1) + gap + ell_max, d <= ell_max), each buffer in the
    narrower of int32 and int64 that holds its largest key, and ``_counted``
    counts each by an in-place sort; the sorted histogram keys then split
    into the entry columns in one linear pass.
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
    pair_type = _int_type(n * n)
    # no count exceeds the number of sequences
    count_type = _int_type(len(offsets) - 1)
    lengths = np.diff(offsets)
    longest = int(lengths.max(initial=0))
    # the widest gap a histogram holds
    band = max(min(ell_max, longest - 1), 0)
    # 0-based position of every event within its user's sequence
    pos = np.arange(len(flat)) - np.repeat(offsets[:-1], lengths)
    flat = flat.astype(pair_type)

    # sum over d <= m of L - d is m*L - m*(m + 1)/2 pairs per user
    in_band = np.minimum(lengths - 1, band).clip(0)
    co = np.empty(int((lengths * (lengths - 1) // 2).sum()), dtype=pair_type)
    # an empty corpus still keeps width and ell_max inside the key type
    hist = np.empty(int((in_band * lengths - in_band * (in_band + 1) // 2).sum()),
                    dtype=_int_type(max(n, 1) ** 2 * width))
    occurrences, key_bytes = len(co) + len(hist), co.nbytes + hist.nbytes
    key_types = " and ".join(sorted({co.dtype.name, hist.dtype.name}))
    co_end = hist_end = 0
    for d in range(1, longest):
        same_user = pos[d:] >= d
        earlier, later = flat[:-d][same_user], flat[d:][same_user]
        pair = np.minimum(earlier, later)
        pair *= n
        pair += np.maximum(earlier, later)
        co[co_end:co_end + len(pair)] = pair
        co_end += len(pair)
        if d <= band:
            # the histogram key may be wider than the pair key
            hist[hist_end:hist_end + len(pair)] = (np.multiply(pair, width, dtype=hist.dtype)
                                                   + np.where(earlier < later, d + ell_max, ell_max - d))
            hist_end += len(pair)
    del pos, flat
    co, co_users = _counted(co, count_type)
    hist, hist_users = _counted(hist, count_type)
    pair = hist // width
    hist -= pair * width + ell_max
    # every |gap| is at most band, and the type holds -(band + 1), so the
    # negation of every gap fits too
    hist_gap = hist.astype(np.min_scalar_type(-(band + 1)))
    del hist
    # one pair's entries are adjacent; pair keys are >= 0, so the prepended
    # -1 makes the first entry a step
    starts = np.flatnonzero(np.diff(pair, prepend=-1))
    gaps = pair[starts].astype(pair_type)
    starts = np.append(starts, len(pair)).astype(_int_type(len(pair)))
    del pair

    store = PairStore(items, item_users, co, co_users, gaps, starts, hist_gap, hist_users, ell_max)
    log.info(
        "counted %d sequences: %d items, %d co-occurring pairs, %d within gap band %d; "
        "%d pair occurrences sorted as %s keys (%.1f MB) into a %.1f MB store",
        np.count_nonzero(lengths), n, len(store.co), len(store.gaps), ell_max,
        occurrences, key_types, key_bytes / 1e6, store.nbytes / 1e6,
    )
    return store


_BLOCK_LINES = 8192  # index lines save formats at a time
_MEMO_LIMIT = 1 << 16  # texts a load memo holds before it starts over


class _Rows(dict):
    """The value-and-vector texts of index entry lines, each mapped to its
    row of ``rows``, a float64 [rows x width] buffer. A text is parsed once,
    into the next row; its float texts go through the memo ``floats``,
    which holds canonical ones only. Both memos start over at _MEMO_LIMIT
    texts, so an index that seldom repeats a text loads in bounded memory,
    and ``rows`` keeps every row. Looking up a text that is not a value and
    a vector of ``width - 1`` canonical floats raises ValueError."""

    def __init__(self, width: int):
        super().__init__()
        self.rows = np.empty((256, width))
        self.count = 0
        self.floats: dict[str, float] = {}

    def __missing__(self, text: str) -> int:
        value, tab, vector = text.rstrip("\n").partition("\t")
        # a tab in the vector lands in a cell, which no float is written as
        cells = [value, *vector.split(",")] if vector else [value]
        if not tab or len(cells) != self.rows.shape[1]:
            raise ValueError(f"{len(cells)} values in a row of {self.rows.shape[1]}")
        try:
            row = list(map(self.floats.__getitem__, cells))
        except KeyError:
            # a text not seen yet: parse and check every cell of the row
            row = list(map(float, cells))
            if list(map(repr, row)) != cells:
                raise ValueError("non-canonical number") from None
            if len(self.floats) >= _MEMO_LIMIT:
                self.floats.clear()
            self.floats.update(zip(cells, row))
        if self.count == len(self.rows):
            self.rows = np.concatenate((self.rows, np.empty_like(self.rows)))
        self.rows[self.count] = row
        if len(self) >= _MEMO_LIMIT:
            self.clear()
        code = self[text] = self.count
        self.count += 1
        return code


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


_parse_id, _parse_float = _canonical(int, str), _canonical(float, repr)


# the #params and #items header values, as save writes them and load takes them
def _params_text(params: SimilarityParams) -> str:
    return json.dumps(asdict(params), sort_keys=True)


def _items_text(items: tuple[str, ...]) -> str:
    return json.dumps(list(items))


def _item_names(text: str) -> tuple[str, ...]:
    """The #items header value: a JSON list of distinct item name strings."""
    names = json.loads(text)
    items = tuple(names)
    if (not isinstance(names, list) or not all(isinstance(name, str) for name in items)
            or len(set(items)) < len(items)):
        raise ValueError("expected a JSON list of distinct item name strings")
    return items


def _entry_error(line: str, n_items: int, measure: str, vector_length: int) -> str | None:
    """Why the index entry ``line`` is refused, or None. The checks run in
    this order: bytes that are not UTF-8, the field count, the ids, their
    range, the value, the vector length, then its cells."""
    if reason := _escaped(line):
        return reason
    fields = line.rstrip("\n").split("\t")
    try:
        if len(fields) != 4:
            raise ValueError(f"expected 4 tab-separated fields, got {len(fields)}")
        target, nbr = _parse_id(fields[0]), _parse_id(fields[1])
        if not (0 <= target < n_items and 0 <= nbr < n_items):
            raise ValueError(f"item id outside [0, {n_items}): target {target}, neighbor {nbr}")
        _parse_float(fields[2])
        cells = fields[3].split(",") if fields[3] else ()
        if len(cells) != vector_length:
            raise ValueError(f"vector of {len(cells)} values, {measure} stores {vector_length}")
        for cell in cells:
            _parse_float(cell)
    except ValueError as exc:
        return str(exc)
    return None


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
        """Write the index to ``path`` as format v1 text. The lines go to a
        new file beside ``path``, which replaces ``path`` once complete: v1
        holds no entry count, so a file cut at a line boundary would load."""
        values = np.asarray(self.values, dtype=np.float64)
        names = np.array([str(item) for item in range(len(self.items))], dtype=object)
        line = "%s\t%s\t%s\t" + ",".join(["%s"] * (values.shape[1] - 1)) + "\n"
        # not tempfile, whose files only their owner may read: the index
        # keeps the permissions that the umask gives a new file
        partial = f"{path}.{os.urandom(4).hex()}.partial"
        fh = open(partial, "x", encoding="utf-8")
        try:
            with fh:
                fh.write(f"#{self.FORMAT}\t{self.VERSION}\n")
                fh.write(f"#measure\t{self.measure}\n")
                fh.write(f"#rank_by\t{self.rank_by}\n")
                fh.write(f"#params\t{_params_text(self.params)}\n")
                fh.write(f"#items\t{_items_text(self.items)}\n")
                for start in range(0, len(self.targets), _BLOCK_LINES):
                    block = slice(start, start + _BLOCK_LINES)
                    # the values are ratios of small counts and repeat heavily:
                    # repr each distinct float of the block once, keyed by its
                    # bits so -0.0 stays apart from 0.0
                    bits, cell = np.unique(values[block].view(np.int64), return_inverse=True)
                    texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
                    cells = np.column_stack((names[self.targets[block]], names[self.nbrs[block]],
                                             texts[cell.reshape(values[block].shape)]))
                    fh.write(line * len(cells) % tuple(cells.ravel().tolist()))
            os.replace(partial, path)
        except BaseException:
            os.unlink(partial)
            raise

    @classmethod
    def load(cls, path: str) -> "NeighborIndex":
        """The index saved at ``path``. A file that is not a valid index
        fails as ``path:line: reason`` at its first bad line. A file that
        loads is one that ``save`` writes: it saves back to the same bytes."""
        # a byte that is not UTF-8 reads as a lone surrogate, which no check
        # takes, and each line names its own bad bytes before any other fault
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            magic = fh.readline()
            if reason := _escaped(magic):
                raise ValueError(f"{path}:1: {reason}")
            if magic.rstrip("\n").split("\t") != [f"#{cls.FORMAT}", str(cls.VERSION)]:
                raise ValueError(f"{path}:1: not a {cls.FORMAT} v{cls.VERSION} artifact")

            def header(lineno: int, key: str, parse, write=str, choices=None):
                nonlocal line
                line = fh.readline()
                name, tab, value = line.rstrip("\n").partition("\t")
                try:
                    if not line:
                        raise ValueError(f"file ends before the #{key} header line")
                    if reason := _escaped(line):
                        raise ValueError(reason)
                    if name != f"#{key}" or not tab:
                        raise ValueError(f"expected a '#{key}<tab>value' header line")
                    if choices is not None and value not in choices:
                        raise ValueError(f"unknown {key} {value!r}, expected one of {choices}")
                    parsed = parse(value)
                    # other spacing or key order, which save never writes
                    if write(parsed) != value:
                        raise ValueError(f"#{key} value not written as save writes it")
                    return parsed
                except (ValueError, TypeError) as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None

            measure = header(2, "measure", str, choices=MEASURES)
            rank_by = header(3, "rank_by", str, choices=RANK_CRITERIA)
            params = header(4, "params", lambda v: SimilarityParams(**json.loads(v)), _params_text)
            items = header(5, "items", _item_names, _items_text)
            vector_length = params.k if measure in ("pas", "pas_uni") else 0
            # each entry line is split once at its first two tabs: a hit in
            # ``ids`` is an id in canonical form and in range, and ``memo``
            # parses each distinct value-and-vector text once. This takes
            # exactly the lines ``_entry_error`` takes, so a valid index takes
            # no per-line check, and the first line refused is the first bad
            # line: only it is checked again, for the reason
            ids = {str(item): item for item in range(len(items))}
            memo = _Rows(1 + vector_length)
            targets, nbrs, codes = [], [], []
            try:
                for line in fh:
                    target, nbr, rest = line.split("\t", 2)
                    targets.append(ids[target])
                    nbrs.append(ids[nbr])
                    codes.append(memo[rest])
            except (KeyError, ValueError):
                if reason := _entry_error(line, len(items), measure, vector_length):
                    raise ValueError(f"{path}:{len(codes) + 6}: {reason}") from None
                raise  # not reached: every line refused fails a check
            # only the last line read, a header or an entry, can lack one
            if not line.endswith("\n"):
                raise ValueError(f"{path}:{len(codes) + 5}: line ends without a newline")
        targets, nbrs, codes = (np.array(column, dtype=np.int64) for column in (targets, nbrs, codes))
        rows = memo.rows[:memo.count]
        del memo  # its texts: only their rows are read from here on
        # scoring needs finite values and no measure is negative; a share may
        # round an ulp above 1, so there is no upper bound. The distinct rows
        # are checked, and the first line holding a bad one fails
        ok = (rows >= 0.0) & (rows < np.inf)
        bad = np.flatnonzero(~ok.all(axis=1)[codes])
        if len(bad):
            row = codes[bad[0]]
            raise ValueError(f"{path}:{bad[0] + 6}: {float(rows[row, np.argmin(ok[row])])!r} outside [0, inf)")
        values = rows[codes]
        # scoring adds one value per (target, neighbor) entry
        repeat = _repeats(targets * len(items) + nbrs)
        if repeat.any():
            row = int(np.argmax(repeat))
            raise ValueError(f"{path}:{row + 6}: repeated entry for target {targets[row]}, neighbor {nbrs[row]}")
        # the builder never pairs an item with itself and keeps at most
        # n_neighbors rows per target
        selves = np.flatnonzero(targets == nbrs)
        if len(selves):
            row = selves[0]
            raise ValueError(f"{path}:{row + 6}: item {targets[row]} is its own neighbor")
        # save writes the entries by target, so they need no sort
        down = np.flatnonzero(targets[1:] < targets[:-1]) + 1
        if len(down):
            row = down[0]
            raise ValueError(f"{path}:{row + 6}: target {targets[row]} below target {targets[row - 1]} "
                             "of the line above: entries ascend by target")
        slot = np.arange(len(targets)) - np.searchsorted(targets, targets)
        extra = np.flatnonzero(slot >= params.n_neighbors)
        if len(extra):
            row = extra[0]
            raise ValueError(f"{path}:{row + 6}: target {targets[row]} has more than "
                             f"n_neighbors={params.n_neighbors} entries")
        return cls(measure, params, items, targets, nbrs, values, rank_by=rank_by)


def positive_scores(
    row: np.ndarray, nbr: np.ndarray, position: np.ndarray, n_rows: int, index: NeighborIndex
) -> np.ndarray:
    """The float64 score of every item of ``index.items`` for each of
    ``n_rows`` windows, as a [windows x items] matrix in index order: the sum
    of the stored similarities from the window items among the item's
    neighbors, 0 if there are none. Element j of the int64 arrays is a window
    item: ``row[j]`` its window, ``nbr[j]`` its position in ``index.items``
    and ``position[j]`` its L in 1..k, which only pas and pas_uni read.

    The inverted rows of every window item are gathered at once and added
    with one ``np.bincount``, which adds in input order. Given the items by
    window, then window order, each score is the same float as adding the
    window's items one after another.
    """
    starts, targets, values = index.inverted
    if index.measure in ("pas", "pas_uni"):
        # column L holds the value at window position L
        if len(position) and not 1 <= position.min() <= position.max() <= index.params.k:
            raise ValueError(f"window positions outside 1..{index.params.k}")
        column = position
    else:
        # bis and cosine read column 0
        column = np.zeros_like(position)
    counts = starts[nbr + 1] - starts[nbr]
    # the inverted rows of nbr[j] are starts[nbr[j]] + 0, 1, ..., counts[j] - 1
    rows = _ranges(starts[nbr], counts)
    n = len(index.items)
    # a target appears at most once among one neighbor's rows
    cells = np.repeat(row * n, counts) + targets[rows]
    weights = values[rows, np.repeat(column, counts)]
    return np.bincount(cells, weights, minlength=n_rows * n).reshape(n_rows, n)


def _select(
    store: PairStore, params: SimilarityParams, measure: str, rank_by: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(target, candidate, ranking score, ranked) of the top n_neighbors
    candidates per target, in index row order: target ascending, then score
    descending (equal floats tie), then candidate ascending. ``ranked``
    counts the candidate rows, one per direction of each candidate pair.

    Each candidate row is one int64 key packing its target, the dense rank
    of its score among the distinct scores, largest first, and its
    candidate. One in-place sort of the keys orders the rows, and the first
    n_neighbors keys of each target decode into the kept rows, each score
    read back from the distinct scores. A ValueError names the sizes when
    n_items**2 * distinct scores does not fit in int64.
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
        del pair
        # nums[0] the rows lo -> hi, nums[1] the rows hi -> lo, each over union
        nums = nums.reshape(2, len(lo), len(lows))
        if by_uni:
            lam = 1.0 if measure == "pas_uni" else params.lam
            score = _combine(nums[..., 0], nums[..., 1], lam, union).ravel()
        else:
            score = (nums[..., 0] / union).ravel()
        del nums, union  # not held through the sort below
    # both directions of every candidate pair: row r is lo[r] -> hi[r], row
    # r + len(lo) the reverse
    ranked = len(score)
    per_target = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
    distinct = np.unique(score)
    n_scores = len(distinct)
    if n * n * n_scores > _INT64_MAX:
        raise ValueError(
            f"selection keys n_items**2 * distinct scores overflow int64 "
            f"(n_items={n}, distinct scores={n_scores})"
        )
    # (target * n_scores + rank) * n + candidate, built in place one
    # direction at a time; lo and hi may be int32, so every product is
    # taken in the int64 key
    key = np.empty(ranked, dtype=np.int64)
    for rows, to, by in ((slice(0, len(lo)), hi, lo), (slice(len(lo), ranked), lo, hi)):
        part = key[rows]
        part[...] = to
        part *= n_scores
        part += n_scores - 1
        part -= np.searchsorted(distinct, score[rows])
        part *= n
        part += by
    # only the keys are held through the sort
    del score, lo, hi, to, by, part
    # the (target, candidate) pairs are distinct, so the keys are too and an
    # unstable sort gives the one order
    key.sort()
    # a target's keys are adjacent; keep the first n_neighbors of each
    kept = np.minimum(per_target, params.n_neighbors)
    target, rank_cand = np.divmod(key[_ranges(np.cumsum(per_target) - per_target, kept)], n_scores * n)
    del key
    rank, cand = np.divmod(rank_cand, n)
    return target, cand, distinct[n_scores - 1 - rank], ranked


def _selection(
    store: PairStore, params: SimilarityParams, measure: str, rank_by: str
) -> tuple[tuple[np.ndarray | None, ...], int]:
    """((target, candidate, ranking score, union, numerators), ranked) of
    ``_select``'s rows and count of candidate rows. Column 0 of the
    numerators counts the gaps in [bis_low, ell] and, for pas and pas_uni,
    column j the gaps in [j, ell] for j = 1..k; union and numerators are
    None for cosine. The fold, ``PairStore.numerators``, reads only the
    histogram entries of the selected rows.

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
        target, cand, score, ranked = _select(store, params, measure, rank_by)
        union = nums = None
        if measure != "cosine":
            union = store.gap_union[store._find(store.gaps, cand, target)[0]]
            lows = [_bis_low(params.rho, params.ell)]
            if measure in ("pas", "pas_uni"):
                lows += range(1, params.k + 1)
            nums = store.numerators(cand, target, params.ell, lows)
        arrays = (target, cand, score, union, nums)
        for array in arrays:
            if array is not None:
                array.flags.writeable = False
        store.last_selection = (key, arrays, ranked)
    return store.last_selection[1:]


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
    (target, cand, score, union, nums), ranked = _selection(store, params, measure, rank_by)
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
        "built %s index: %d items, %d neighbor entries from %d candidate rows ranked",
        measure, store.n_items, len(target), ranked,
    )
    return NeighborIndex(measure, params, store.items, target, cand, values, rank_by=rank_by)


def average_uni_by_gap(
    store: PairStore, ell: int = 10, n_neighbors: int = SimilarityParams.n_neighbors,
    w: float = SimilarityParams.w,
) -> dict[str, list[float]]:
    """Average position-aware similarity per window gap G = k - t, by scaling.

    Neighbor sets are the top n_neighbors per item ranked at t = k, where the
    threshold h(0) = 0 makes the ranking identical for every scaling; the
    averages then show how fast each scaled variant decays as the query item
    sits further from the prediction point.
    """
    profile: dict[str, list[float]] = {}
    for scaling in SCALINGS:
        params = SimilarityParams(ell=ell, lam=1.0, scaling=scaling, w=w, n_neighbors=n_neighbors)
        # values[i, t - 1]: entry i at window position t; the store's memo
        # gives every scaling one selection
        values = build_neighbor_index(store, params, "pas_uni").values[:, 1:]
        profile[scaling] = [math.fsum(values[:, ell - gap - 1].tolist()) / len(values) if len(values) else 0.0
                            for gap in range(ell)]
    return profile
