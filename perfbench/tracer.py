"""Spans around the calls into each pasrec layer, recorded from outside the
package.

``Tracer.install`` replaces the names that ``pasrec.cli`` and
``pasrec.evaluation`` look up from the other modules (plus
``NeighborIndex.save``/``load``) with wrappers that record a span per call:
name, start, end, parent span and run id. Spans stay in memory until the run
ends. Counters are taken at the same boundaries from each call's arguments
and result, so ratios are measured where the work happens. ``uninstall``
puts the original functions back.

Work that ``evaluate`` and ``count_pairs`` hand to a process pool runs in
the children; their spans are not collected.
"""
from __future__ import annotations

import contextlib
import os
import resource
import time
from collections import defaultdict

import pasrec.cli as cli
import pasrec.evaluation as evaluation
from pasrec.similarity import NeighborIndex

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _current_rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


# counters: tracer, call args, result -> None
def _after_count(tr, args, kwargs, store):
    tr.count("similarity.co_pairs", len(store.co))
    tr.count("similarity.band_pairs", len(store.gaps))
    tr.maximum("similarity.rss_after_count_mb", _current_rss_mb())


def _after_build(tr, args, kwargs, index):
    tr.count("similarity.build_index_calls", 1)
    tr.count("similarity.index_entries", sum(len(row) for row in index.entries))
    tr.count("similarity.neighbor_slots", len(index.items) * index.params.n_neighbors)
    selection = hash(tuple(tuple(nbr for nbr, _, _ in row) for row in index.entries))
    seen = tr.selections.setdefault(tr.run_id, set())
    if selection in seen:
        tr.count("similarity.repeat_selections", 1)
    seen.add(selection)


def _index_bytes(tr, args, kwargs, result):
    tr.count("similarity.index_bytes", os.path.getsize(args[-1]))


def _records(name):
    return lambda tr, args, kwargs, result: tr.count(name, len(result))


def _after_positive_scores(tr, args, kwargs, scores):
    tr.count("predictor.calls", 1)
    tr.count("predictor.candidates", len(scores))


def _after_window(tr, args, kwargs, window):
    tr.count("domain.calls", 1)


def _after_evaluate(tr, args, kwargs, result):
    tr.count("evaluation.users", result.n_users)


def _after_grid(tr, args, kwargs, result):
    tr.count("evaluation.grid_configs", len(result.validation))


# (span name, owner modules or class, attribute, counter hook)
_TARGETS = (
    ("synth.generate", (cli,), "generate", _records("synth.records")),
    ("synth.write_log", (cli,), "write_log", None),
    ("ingest.parse_interactions", (cli,), "parse_interactions", _records("ingest.records")),
    ("ingest.filter_positive", (cli,), "filter_positive", None),
    ("ingest.deduplicate", (cli,), "deduplicate", None),
    ("ingest.subsample_users", (cli,), "subsample_users", None),
    ("ingest.build_dataset", (cli,), "build_dataset", None),
    ("ingest.save_dataset", (cli,), "save_dataset", None),
    ("ingest.load_dataset", (cli,), "load_dataset", None),
    ("similarity.count_pairs", (cli, evaluation), "count_pairs", _after_count),
    ("similarity.build_neighbor_index", (cli, evaluation), "build_neighbor_index", _after_build),
    ("similarity.average_uni_by_gap", (cli,), "average_uni_by_gap", None),
    ("evaluation.evaluate", (cli, evaluation), "evaluate", _after_evaluate),
    ("evaluation.grid_search", (cli,), "grid_search", _after_grid),
    ("domain.make_session_window", (evaluation,), "make_session_window", _after_window),
    ("predictor.positive_scores", (evaluation,), "positive_scores", _after_positive_scores),
)


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, run id]
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.selections: dict[int, set[int]] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float) -> None:
        self.counters[self.run_id][name] += amount

    def maximum(self, name: str, value: float) -> None:
        run = self.counters[self.run_id]
        run[name] = max(run[name], value)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.run_id]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, owners, attr, after in _TARGETS:
            traced = self.wrap(name, getattr(owners[0], attr), after)
            for owner in owners:
                self._replace(owner, attr, traced)
        self._replace(
            NeighborIndex, "save",
            self.wrap("similarity.index_save", NeighborIndex.save, _index_bytes),
        )
        self._replace(
            NeighborIndex, "load",
            staticmethod(self.wrap("similarity.index_load", NeighborIndex.load, _index_bytes)),
        )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def rusage_cpu() -> tuple[float, float]:
    """(this process, reaped children) user+system CPU seconds so far."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime
