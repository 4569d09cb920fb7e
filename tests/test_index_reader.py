"""``NeighborIndex.load`` against the line-at-a-time reader it replaced, and
its memory bound.

``reference_load`` is the v1 reader that parsed and checked each entry line
in turn, memoising ids, values and packed vectors, and then ran the array
checks, among them that the entry lines ascend by target as ``save`` writes
them. The property saves random indexes of all four measures, breaks each
with one random fault, and requires the same index, to the bit, or the same
message at the same line. The load memos are a few texts long, so they
start over between any two lines. Bytes that are not UTF-8 are left out:
the reference raised them where its text reader first decoded them, before
it parsed the lines decoded with them, while ``load`` names the first bad
line (``tests/test_similarity.py`` checks both orders).
"""
import itertools
import json
import re
import tracemalloc
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pasrec.similarity as similarity
from pasrec.domain import MEASURES, SimilarityParams
from pasrec.similarity import RANK_CRITERIA, NeighborIndex

REFERENCE_MEMO_LIMIT = 1 << 16


def reference_memo(memo: dict, parse, text: str):
    """parse(text), parsed once per distinct text through memo."""
    value = memo.get(text)
    if value is None:
        if len(memo) >= REFERENCE_MEMO_LIMIT:
            memo.clear()
        value = memo[text] = parse(text)
    return value


def reference_canonical(parse, write):
    def parse_canonical(text: str):
        value = parse(text)
        if write(value) != text:
            raise ValueError(f"non-canonical number {text!r}, written {write(value)!r}")
        return value
    return parse_canonical


def reference_item_names(text: str) -> tuple[str, ...]:
    names = json.loads(text)
    items = tuple(names)
    if (not isinstance(names, list) or not all(isinstance(name, str) for name in items)
            or len(set(items)) < len(items)):
        raise ValueError("expected a JSON list of distinct item name strings")
    return items


def reference_load(path: str):
    """(measure, params, items, rank_by, targets, nbrs, values) of the index
    at ``path``, read one entry line at a time."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        if fh.readline().rstrip("\n").split("\t") != ["#pasrec-index", "1"]:
            raise ValueError(f"{path}:1: not a pasrec-index v1 artifact")

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
        items = header(5, "items", reference_item_names)
        vector_length = params.k if measure in ("pas", "pas_uni") else 0
        parse_id, parse_value = reference_canonical(int, str), reference_canonical(float, repr)
        ids, floats, vectors = {}, {}, {}

        def vector(packed: str) -> tuple[float, ...]:
            cells = packed.split(",") if packed else ()
            if len(cells) != vector_length:
                raise ValueError(f"vector of {len(cells)} values, {measure} stores {vector_length}")
            return tuple(reference_memo(floats, parse_value, cell) for cell in cells)

        targets, nbrs, values, rows = [], [], [], []
        for lineno, line in enumerate(fh, start=6):
            fields = line.rstrip("\n").split("\t")
            try:
                if len(fields) != 4:
                    raise ValueError(f"expected 4 tab-separated fields, got {len(fields)}")
                target = reference_memo(ids, parse_id, fields[0])
                nbr = reference_memo(ids, parse_id, fields[1])
                if not (0 <= target < len(items) and 0 <= nbr < len(items)):
                    raise ValueError(f"item id outside [0, {len(items)}): target {target}, neighbor {nbr}")
                value = reference_memo(floats, parse_value, fields[2])
                row = reference_memo(vectors, vector, fields[3])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            targets.append(target)
            nbrs.append(nbr)
            values.append(value)
            rows.append(row)
        fh.seek(0)
        text = fh.read()
        if not text.endswith("\n"):
            lineno = text.count("\n") + 1
            raise ValueError(f"{path}:{lineno}: line ends without a newline")
    flat = np.fromiter(itertools.chain.from_iterable(rows), np.float64, len(rows) * vector_length)
    targets, nbrs = np.array(targets, dtype=np.int64), np.array(nbrs, dtype=np.int64)
    values = np.column_stack((np.array(values, dtype=np.float64), flat.reshape(len(rows), vector_length)))
    bad = np.argwhere(~((values >= 0.0) & (values < np.inf)))
    if len(bad):
        row, column = bad[0]
        raise ValueError(f"{path}:{row + 6}: {float(values[row, column])!r} outside [0, inf)")
    keys = targets * len(items) + nbrs
    by_key = np.argsort(keys, kind="stable")
    repeats = by_key[1:][keys[by_key[1:]] == keys[by_key[:-1]]]
    if len(repeats):
        row = repeats.min()
        raise ValueError(f"{path}:{row + 6}: repeated entry for target {targets[row]}, neighbor {nbrs[row]}")
    selves = np.flatnonzero(targets == nbrs)
    if len(selves):
        row = selves[0]
        raise ValueError(f"{path}:{row + 6}: item {targets[row]} is its own neighbor")
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
    return measure, params, items, rank_by, targets, nbrs, values


def outcome(read, path):
    """What ``read(path)`` returns, values as bits, or the message it raises."""
    try:
        result = read(path)
    except ValueError as exc:
        return str(exc)
    if isinstance(result, NeighborIndex):
        result = (result.measure, result.params, result.items, result.rank_by,
                  result.targets, result.nbrs, result.values)
    *head, targets, nbrs, values = result
    return (*head, targets.dtype, targets.tolist(), nbrs.dtype, nbrs.tolist(), values.dtype,
            values.shape, values.tobytes())


# stored values repeat, and include -0.0, the smallest subnormal, exponent
# notation either way and one ulp above 1
VALUES = [0.0, -0.0, 0.5, 1.0, 0.25, 1 / 3, 0.1, 5e-324, 1e-05, 1e16, 1.0000000000000002]
value_cells = st.one_of(st.sampled_from(VALUES), st.floats(0.0, 1e3, allow_nan=False))


@st.composite
def saved_index(draw):
    """A random index, with its item count and vector length."""
    measure = draw(st.sampled_from(MEASURES))
    n_items = draw(st.integers(2, 7))
    params = SimilarityParams(ell=draw(st.integers(1, 3)), n_neighbors=draw(st.integers(1, 3)))
    width = 1 + (params.k if measure in ("pas", "pas_uni") else 0)
    pairs = []
    for target in range(n_items):
        others = [nbr for nbr in range(n_items) if nbr != target]
        pairs += [(target, nbr) for nbr in draw(
            st.lists(st.sampled_from(others), unique=True, max_size=params.n_neighbors))]
    cells = draw(st.lists(value_cells, min_size=len(pairs) * width, max_size=len(pairs) * width))
    targets = np.array([target for target, _ in pairs], dtype=np.int64)
    nbrs = np.array([nbr for _, nbr in pairs], dtype=np.int64)
    index = NeighborIndex(measure, params, tuple(f"i{n}" for n in range(n_items)), targets, nbrs,
                          np.array(cells, dtype=np.float64).reshape(len(pairs), width),
                          rank_by=draw(st.sampled_from(RANK_CRITERIA)))
    return index, n_items, width - 1


def bad_number(draw, text: str) -> str:
    """``text`` as a number ``save`` never writes, or not a number."""
    return draw(st.sampled_from([f"+{text}", f" {text}", f"{text} ", f"0{text}", f"{text}_0",
                                 f"{text}0", f"-{text}", "x", ""]))


FAULTS = ["none", "fields", "id", "range", "value", "cell", "length", "repeat", "self", "cap",
          "out_of_range_value", "order", "blank"]


def corrupt(draw, kind: str, lines: list[str], n_items: int, vector_length: int) -> list[str]:
    """``lines`` with one fault of the given kind in the entry lines,
    ``lines[5:]``; a fault may happen to leave a valid index."""
    if kind == "none":
        return lines
    body = lines[5:]
    if not body:
        body = [f"0\t1\t0.5\t{','.join(['0.5'] * vector_length)}"]
    at = draw(st.integers(0, len(body) - 1))
    fields = body[at].split("\t")
    if kind == "fields":
        cut = draw(st.integers(0, 5))
        body[at] = "\t".join(fields[:cut]) if cut < 4 else "\t".join(fields + ["x"] * (cut - 3))
    elif kind == "id":
        column = draw(st.integers(0, 1))
        fields[column] = bad_number(draw, fields[column])
        body[at] = "\t".join(fields)
    elif kind == "range":
        fields[draw(st.integers(0, 1))] = str(draw(st.sampled_from([n_items, n_items + 3, -1])))
        body[at] = "\t".join(fields)
    elif kind in ("value", "cell", "out_of_range_value"):
        cells = fields[3].split(",") if fields[3] else []
        where = draw(st.integers(-1, len(cells) - 1)) if kind != "value" else -1
        text = fields[2] if where < 0 else cells[where]
        text = (bad_number(draw, text) if kind != "out_of_range_value"
                else draw(st.sampled_from(["-0.5", "-5e-324", "nan", "inf", "-inf"])))
        if where < 0:
            fields[2] = text
        else:
            cells[where] = text
            fields[3] = ",".join(cells)
        body[at] = "\t".join(fields)
    elif kind == "length":
        cells = fields[3].split(",") if fields[3] else []
        fields[3] = ",".join(draw(st.sampled_from([cells[:-1], cells + ["0.5"], []])))
        body[at] = "\t".join(fields)
    elif kind == "repeat":
        body.insert(draw(st.integers(0, len(body))), body[at])
    elif kind == "self":
        fields[1] = fields[0]
        body[at] = "\t".join(fields)
    elif kind == "cap":
        fields[1] = str(draw(st.integers(0, n_items - 1)))
        body.insert(draw(st.integers(0, len(body))), "\t".join(fields))
    elif kind == "order":
        body = draw(st.permutations(body))
    else:  # blank
        body.insert(draw(st.integers(0, len(body))), "")
    return lines[:5] + list(body)


class TestLoadAgainstReference:
    @pytest.mark.parametrize("fault", FAULTS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), limit=st.integers(1, 7), last_newline=st.booleans())
    def test_same_index_or_same_first_error(self, tmp_path_factory, fault, data, limit, last_newline):
        index, n_items, vector_length = data.draw(saved_index())
        path = tmp_path_factory.mktemp("index") / "index.tsv"
        index.save(str(path))
        lines = corrupt(data.draw, fault, path.read_text(encoding="utf-8").splitlines(), n_items,
                        vector_length)
        path.write_text("\n".join(lines) + ("\n" if last_newline else ""), encoding="utf-8")
        with mock.patch.object(similarity, "_MEMO_LIMIT", limit):
            got = outcome(NeighborIndex.load, str(path))
        assert got == outcome(reference_load, str(path))


EDITS = ["drop", "repeat", "swap", "move", "field", "respace", "reorder", "cut", "cut_byte", "crlf"]


def edit(draw, kind: str, lines: list[str]) -> str:
    """The text of ``lines`` with one edit of the given kind, anywhere in the
    file; an edit may happen to leave the text as it was."""
    lines = list(lines)
    at = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[at]
    elif kind == "repeat":
        lines.insert(draw(st.integers(0, len(lines))), lines[at])
    elif kind == "swap":
        other = draw(st.integers(0, len(lines) - 1))
        lines[at], lines[other] = lines[other], lines[at]
    elif kind == "move":
        lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(at))
    elif kind == "field":
        # another field of the same column, a number, or a few characters
        fields = lines[at].split("\t")
        column = draw(st.integers(0, len(fields) - 1))
        seen = sorted({line.split("\t")[column] for line in lines if line.count("\t") >= column})
        fields[column] = draw(st.one_of(st.sampled_from(seen + ["0", "1", "3", "0.5", "-0.0"]),
                                        st.text("0123456789.-+e x#[]", max_size=5)))
        lines[at] = "\t".join(fields)
    elif kind == "respace":
        at = draw(st.integers(0, min(4, len(lines) - 1)))
        spaces = [i for i, char in enumerate(lines[at]) if char == " "]
        if spaces and draw(st.booleans()):
            i = draw(st.sampled_from(spaces))
            lines[at] = lines[at][:i] + lines[at][i + 1:]
        else:
            i = draw(st.integers(0, len(lines[at])))
            lines[at] = lines[at][:i] + " " + lines[at][i:]
    elif kind == "reorder":
        # the #params keys in another order
        params = json.loads(lines[3].split("\t", 1)[1])
        lines[3] = "#params\t" + json.dumps(dict(draw(st.permutations(list(params.items())))))
    elif kind == "cut":  # at a line boundary
        lines = lines[:draw(st.integers(0, len(lines)))]
    ends = ["\n"] * len(lines)
    if kind == "crlf":  # one line ended as on Windows or classic Mac OS
        ends[at] = draw(st.sampled_from(["\r\n", "\r"]))
    text = "".join(map(str.__add__, lines, ends))
    # cut_byte: the file cut by its last byte, the newline of its last line
    return text[:-1] if kind == "cut_byte" else text


class TestFixedPoint:
    """An index that loads is one that ``save`` writes: every edit of a saved
    index either fails with its ``path:line`` or saves back to the edited
    bytes."""

    @pytest.mark.parametrize("kind", EDITS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_edited_index_fails_with_location_or_saves_back(self, tmp_path_factory, kind, data):
        index, _, _ = data.draw(saved_index())
        folder = tmp_path_factory.mktemp("index")
        path, again = folder / "index.tsv", folder / "again.tsv"
        index.save(str(path))
        path.write_bytes(edit(data.draw, kind, path.read_text(encoding="utf-8").splitlines()).encode("utf-8"))
        try:
            loaded = NeighborIndex.load(str(path))
        except ValueError as exc:
            assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc)), str(exc)
        else:
            loaded.save(str(again))
            assert again.read_bytes() == path.read_bytes()


def test_reference_reads_what_save_writes(tmp_path):
    index = NeighborIndex("pas", SimilarityParams(ell=2, n_neighbors=2), ("a", "b", "c"),
                          np.array([0, 0, 2]), np.array([1, 2, 0]),
                          np.array([[0.5, 0.25, -0.0], [1 / 3, 5e-324, 1e16], [1.0, 0.1, 0.5]]))
    path = str(tmp_path / "index.tsv")
    index.save(path)
    assert outcome(reference_load, path) == outcome(lambda _: index, path)


def reference_save_text(index: NeighborIndex) -> str:
    """The v1 text of ``index``, written one value at a time."""
    lines = ["#pasrec-index\t1\n", f"#measure\t{index.measure}\n", f"#rank_by\t{index.rank_by}\n",
             f"#params\t{json.dumps(asdict(index.params), sort_keys=True)}\n",
             f"#items\t{json.dumps(list(index.items))}\n"]
    for t, n, (v, *vector) in zip(index.targets.tolist(), index.nbrs.tolist(), index.values.tolist()):
        lines.append(f"{t}\t{n}\t{v!r}\t{','.join(map(repr, vector))}\n")
    return "".join(lines)


# floats that are easy to write wrong: -0.0 beside 0.0, the smallest
# subnormal and one ulp above 1
SPECIAL = [0.0, -0.0, 5e-324, 1.0000000000000002]


@st.composite
def index_of_repeated_rows(draw):
    """A random index whose entries draw their rows from a few, so rows
    repeat within and across save's blocks."""
    measure = draw(st.sampled_from(MEASURES))
    n_items = draw(st.integers(2, 7))
    params = SimilarityParams(ell=draw(st.integers(1, 3)), n_neighbors=n_items - 1)
    width = 1 + (params.k if measure in ("pas", "pas_uni") else 0)
    pool = [[SPECIAL[(row + column) % 4] for column in range(width)] for row in range(4)]
    pool += draw(st.lists(st.lists(value_cells, min_size=width, max_size=width), max_size=4))
    pairs = draw(st.lists(st.tuples(st.integers(0, n_items - 1), st.integers(0, n_items - 1)),
                          max_size=25))
    rows = [draw(st.sampled_from(pool)) for _ in pairs]
    return NeighborIndex(measure, params, tuple(f"i{n}" for n in range(n_items)),
                         np.array([target for target, _ in pairs], dtype=np.int64),
                         np.array([nbr for _, nbr in pairs], dtype=np.int64),
                         np.array(rows, dtype=np.float64).reshape(len(pairs), width),
                         rank_by=draw(st.sampled_from(RANK_CRITERIA)))


@settings(max_examples=200, deadline=None)
@given(index=index_of_repeated_rows(), block_lines=st.integers(1, 5))
def test_save_writes_each_value_as_its_repr(tmp_path_factory, index, block_lines):
    path = tmp_path_factory.mktemp("index") / "index.tsv"
    with mock.patch.object(similarity, "_BLOCK_LINES", block_lines):
        index.save(str(path))
    assert path.read_bytes() == reference_save_text(index).encode("utf-8")


class TestBoundedMemory:
    """Peak memory of a load per entry line, for an index of all-distinct
    values, with memos that start over many times.

    The loaded values take 88 bytes per line at k = 10, and the buffer of
    distinct rows at most twice that before the one gather; the id and row
    code lists about 80 more. The line-at-a-time reader kept a tuple of new
    floats per line and peaked near 700 bytes per line; this loader peaks
    near 350."""

    def test_all_distinct_load_peak_per_line(self, tmp_path):
        n_items = 100
        pairs = [(t, n) for t in range(n_items) for n in range(n_items) if n != t]
        targets, nbrs = (np.array(column, dtype=np.int64) for column in zip(*pairs))
        values = np.random.default_rng(7).random((len(pairs), 11))
        index = NeighborIndex("pas", SimilarityParams(ell=10, n_neighbors=n_items - 1),
                              tuple(f"i{n}" for n in range(n_items)), targets, nbrs, values)
        path = str(tmp_path / "index.tsv")
        index.save(path)
        with mock.patch.object(similarity, "_MEMO_LIMIT", 256):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                loaded = NeighborIndex.load(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert loaded == index
        assert len(pairs) > 30 * 256
        assert peak / len(pairs) <= 450
