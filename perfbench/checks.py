"""Output checks for the benchmark: content digests, invariants, and index
entries recomputed with the brute-force oracle.

Digests are taken over what the artifacts mean, read back through pasrec's
own loaders (``load_dataset``, ``NeighborIndex.load``) or parsed from the
report JSON and the sparsity table, so a change to headers or layout alone
does not change them. ``file_digest`` hashes raw bytes: outputs of the
passes and set-up runs within one benchmark run must match byte for byte.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import asdict

from pasrec.domain import SimilarityParams
from pasrec.ingest import load_dataset
from pasrec.oracle import oracle_bis, oracle_cosine, oracle_pas
from pasrec.similarity import NeighborIndex

TOLERANCE = 1e-12
ORACLE_SAMPLES = 20
# configuration snapshots name their own output path, which differs per pass
_SNAPSHOTS = ("run_config.json",)


def _sha(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path: str) -> str:
    """Raw-byte digest of a file, or of every file in a directory except
    configuration snapshots."""
    h = hashlib.sha256()
    names = sorted(os.listdir(path)) if os.path.isdir(path) else [""]
    for name in names:
        if name in _SNAPSHOTS:
            continue
        h.update(name.encode("utf-8") + b"\0")
        with open(os.path.join(path, name) if name else path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def read_report_rows(out_dir: str) -> list[dict]:
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)["rows"]


def read_sparsity(out_dir: str) -> list[dict[str, float]]:
    """Rows of the sparsity table as {column: value}, comment lines skipped."""
    with open(os.path.join(out_dir, "sparsity.tsv"), encoding="utf-8") as fh:
        lines = [line.rstrip("\n").split("\t") for line in fh if not line.startswith("#")]
    header, body = lines[0], lines[1:]
    return [{col: float(value) for col, value in zip(header, row)} for row in body]


def _dataset_payload(dataset) -> dict:
    return {
        "sequences": [[seq.user, list(seq.items)] for seq in dataset.sequences],
        "validation": dataset.validation,
        "test": dataset.test,
        "item_universe": list(dataset.item_universe),
        "stats": asdict(dataset.stats),
    }


def _index_payload(index: NeighborIndex) -> dict:
    return {
        "measure": index.measure,
        "rank_by": index.rank_by,
        "params": asdict(index.params),
        "items": list(index.items),
        "entries": [[[nbr, value, list(vector)] for nbr, value, vector in row]
                    for row in index.entries],
    }


class Checker:
    """Checks outputs, caching loaded datasets so each is read once."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._datasets: dict[str, tuple] = {}

    def dataset(self, path: str):
        """(dataset, item -> indices of training sequences holding it)."""
        key = file_digest(path)
        if key not in self._datasets:
            dataset = load_dataset(path)
            by_item: dict[str, list[int]] = {}
            for pos, seq in enumerate(dataset.sequences):
                for item in seq.items:
                    by_item.setdefault(item, []).append(pos)
            self._datasets[key] = (dataset, by_item)
        return self._datasets[key]

    def check(self, kind: str, path: str, dataset_path: str, rows: int = 0) -> tuple[str, list[str]]:
        """(content digest, invariant and oracle failures) of one output."""
        dataset, _ = self.dataset(dataset_path)
        if kind == "dataset":
            return _sha(_dataset_payload(dataset)), dataset_problems(dataset)
        if kind == "index":
            index = NeighborIndex.load(path)
            picks = pick_entries(index, random.Random(self.seed), ORACLE_SAMPLES)
            return _sha(_index_payload(index)), self.oracle_problems(index, dataset_path, picks)
        if kind == "report":
            found = read_report_rows(path)
            return _sha(found), report_problems(found, rows, dataset.stats.n_eval_users)
        if kind == "sparsity":
            found = read_sparsity(path)
            return _sha(found), sparsity_problems(found, rows)
        raise ValueError(f"unknown output kind {kind!r}")

    def oracle_problems(self, index: NeighborIndex, dataset_path: str,
                        picks: list[tuple[int, int]]) -> list[str]:
        """Recompute the picked (target, slot) entries from scratch."""
        dataset, by_item = self.dataset(dataset_path)
        found = []
        for target, slot in picks:
            nbr, value, vector = index.entries[target][slot]
            i_from, i_to = index.items[nbr], index.items[target]
            # sequences holding neither item add nothing to any count or union
            users = sorted(set(by_item.get(i_from, ())) | set(by_item.get(i_to, ())))
            corpus = [dataset.sequences[pos] for pos in users]
            want_value, want_vector = oracle_entry(corpus, i_from, i_to, index)
            got = [value, *vector]
            want = [want_value, *want_vector]
            if len(got) != len(want) or any(
                not abs(g - w) <= TOLERANCE for g, w in zip(got, want)
            ):
                found.append(f"index entry {i_from}->{i_to}: stored {got}, oracle {want}")
        return found


def oracle_entry(corpus, i_from: str, i_to: str, index: NeighborIndex):
    """The (value, vector) an index entry for i_from -> i_to must hold."""
    params = index.params
    if index.measure == "cosine":
        return oracle_cosine(corpus, i_from, i_to), []
    value = oracle_bis(corpus, i_from, i_to, params.ell, params.rho)
    if index.measure == "bis":
        return value, []
    if index.measure == "pas_uni":
        params = SimilarityParams(ell=params.ell, rho=params.rho, lam=1.0,
                                  scaling=params.scaling, w=params.w,
                                  n_neighbors=params.n_neighbors)
    return value, [oracle_pas(corpus, i_from, i_to, params, t) for t in range(1, params.k + 1)]


def pick_entries(index: NeighborIndex, rng: random.Random, n: int) -> list[tuple[int, int]]:
    slots = [(target, slot) for target, row in enumerate(index.entries) for slot in range(len(row))]
    return rng.sample(slots, min(n, len(slots)))


def dataset_problems(dataset) -> list[str]:
    stats = dataset.stats
    found = []
    if not stats.n_eval_users == len(dataset.test) == len(dataset.validation):
        found.append(f"n_eval_users {stats.n_eval_users} but {len(dataset.validation)} "
                     f"validation and {len(dataset.test)} test users")
    if stats.n_users != len(dataset.sequences):
        found.append(f"n_users {stats.n_users} but {len(dataset.sequences)} sequences")
    return found


def report_problems(rows: list[dict], expected_rows: int, n_eval_users: int) -> list[str]:
    found = []
    if len(rows) != expected_rows:
        found.append(f"{len(rows)} report rows, expected {expected_rows}")
    for row in rows:
        ndcg, one_call = row["ndcg_at_k"], row["one_call_at_k"]
        if not 0.0 <= ndcg <= one_call <= 1.0:
            found.append(f"row {row['split']} ell={row['ell']} {row['scaling']}: "
                         f"violates 0 <= ndcg {ndcg} <= 1-call {one_call} <= 1")
        if row["n_users"] != n_eval_users:
            found.append(f"row {row['split']} ell={row['ell']} {row['scaling']}: "
                         f"n_users {row['n_users']} != n_eval_users {n_eval_users}")
    return found


def sparsity_problems(rows: list[dict[str, float]], expected_rows: int) -> list[str]:
    found = []
    if len(rows) != expected_rows:
        found.append(f"{len(rows)} sparsity rows, expected {expected_rows}")
    for row in rows:
        for col, value in row.items():
            if col != "G" and not (math.isfinite(value) and 0.0 <= value <= 1.0):
                found.append(f"sparsity G={row['G']:g} {col}={value} outside [0, 1]")
    return found
