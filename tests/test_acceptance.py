"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see them live).

The randomized-corpus criteria share one stream of 200 seeded instances; the
directional criteria run on fixed-seed synthetic corpora at desk scale.
"""
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import pasrec
from conftest import (
    assert_pairs_match_oracle,
    count_corpus,
    directed_pairs,
    predicted_score,
    random_corpus,
    reduction_mismatches,
    uni_values,
)
from pasrec.cli import main as cli_main
from pasrec.domain import SimilarityParams, make_session_window
from pasrec.evaluation import expand_grid, grid_search, ndcg_at_k, one_call_at_k
from pasrec.ingest import build_dataset
from pasrec.oracle import oracle_predict
from pasrec.similarity import average_uni_by_gap, build_neighbor_index
from pasrec.synth import SynthConfig, generate, write_log

TOLERANCE = 1e-12

N_INSTANCES = 200
INSTANCE_SEED = 20240808

PARAM_CYCLE = [
    SimilarityParams(ell=ell, rho=rho, lam=lam, scaling=scaling, w=2.0, n_neighbors=n)
    for ell in (2, 3, 5)
    for rho in (0.2, 0.5)
    for lam in (0.0, 0.5, 1.0)
    for scaling in ("h_a", "h_b", "h_c")
    for n in (3, 20)
]


@contextmanager
def criterion(cid: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {cid}] {description}: FAIL", flush=True)
        raise
    print(f"[criterion {cid}] {description}: PASS", flush=True)


@pytest.fixture(scope="module")
def oracle_instances():
    """200 seeded random corpora with cycled parameter settings."""
    rng = random.Random(INSTANCE_SEED)
    instances = []
    for trial in range(N_INSTANCES):
        corpus = random_corpus(rng, max_users=50, max_items=30, max_len=20)
        params = PARAM_CYCLE[trial % len(PARAM_CYCLE)]
        sample_seed = rng.randrange(2**31)
        instances.append((corpus, params, sample_seed))
    return instances


@pytest.fixture(scope="module")
def fig2_dataset():
    config = SynthConfig(
        n_users=5000, n_items=500, seq_length_range=(15, 40), signal=0.8,
        reverse_noise=0.0, seed=2024,
    )
    return build_dataset(generate(config))


@pytest.fixture(scope="module")
def quality_dataset():
    config = SynthConfig(
        n_users=5000, n_items=500, seq_length_range=(15, 40), signal=0.8,
        reverse_noise=0.1, seed=2025,
    )
    return build_dataset(generate(config))


def test_criterion_1_oracle_equivalence(oracle_instances):
    with criterion(1, "engine matches brute-force oracle within 1e-12"):
        started = time.monotonic()
        measures = ("bis", "pas", "pas_uni", "cosine")
        for trial, (corpus, params, sample_seed) in enumerate(oracle_instances):
            rng = random.Random(sample_seed)
            store = count_corpus(corpus, ell_max=params.ell)
            items = sorted({i for s in corpus for i in s.items})
            pairs = [tuple(rng.sample(items, 2)) for _ in range(20)]
            pairs.append((items[0], "item-never-observed"))
            assert_pairs_match_oracle(corpus, store, params, pairs, TOLERANCE)
            measure = measures[trial % len(measures)]
            index = build_neighbor_index(store, params, measure)
            for seq in rng.sample(corpus, min(2, len(corpus))):
                window = make_session_window(seq, params.k)
                for target in rng.sample(items, min(3, len(items))):
                    assert predicted_score(window, target, index) == pytest.approx(
                        oracle_predict(corpus, seq.user, target, params, measure),
                        abs=TOLERANCE,
                    )
        elapsed = time.monotonic() - started
        assert elapsed < 120, f"oracle equivalence took {elapsed:.0f}s, budget 120s"


def test_criterion_2_reduction_identities(oracle_instances):
    with criterion(2, "lam=0 equals bis and lam=1 equals pas_uni, exactly"):
        mismatches = 0
        for corpus, params, _ in oracle_instances:
            mismatches += reduction_mismatches(count_corpus(corpus, ell_max=params.ell), params)
        assert mismatches == 0


def test_criterion_3_position_monotonicity(oracle_instances):
    with criterion(3, "pas_uni non-decreasing in t for every stored pair"):
        violations = cells = 0
        for corpus, params, _ in oracle_instances:
            store = count_corpus(corpus, ell_max=params.ell)
            values = uni_values(store, *directed_pairs(store), params.ell, "h_a", 2.0)
            violations += np.count_nonzero((np.diff(values, axis=1) < 0).any(axis=1))
            cells += values.size
        assert violations == 0
        # both directions of every stored pair at every t, over the 200 corpora
        assert cells == 172_974


def test_criterion_4_scaling_dominance(oracle_instances):
    with criterion(4, "h_b and h_c thresholds never fall below h_a pointwise"):
        violations = comparisons = 0
        for corpus, params, _ in oracle_instances:
            store = count_corpus(corpus, ell_max=params.ell)
            pairs = directed_pairs(store)
            base = uni_values(store, *pairs, params.ell, "h_a", 2.0)
            for scaling in ("h_b", "h_c"):
                violations += np.count_nonzero(uni_values(store, *pairs, params.ell, scaling, 2.0) < base)
                comparisons += base.size
        assert violations == 0
        assert comparisons == 345_948


def test_criterion_5_sparsity_profile_shape(fig2_dataset):
    with criterion(5, "per-gap averages decay, scaled variants retain mass"):
        started = time.monotonic()
        store = count_corpus(fig2_dataset.sequences, ell_max=10)
        profile = average_uni_by_gap(store, ell=10, n_neighbors=20, w=2.0)
        for scaling in ("h_a", "h_b", "h_c"):
            column = profile[scaling]
            assert len(column) == 10
            assert all(x >= y for x, y in zip(column, column[1:])), scaling
        h_a, h_b = profile["h_a"], profile["h_b"]
        assert h_a[0] > 0.0
        assert h_a[9] < 0.25 * h_a[0]
        # at G=0 both thresholds are h(0)=0, so equality is forced there;
        # strictly more mass is required wherever the thresholds differ
        assert h_b[0] >= h_a[0]
        for g in range(1, 10):
            assert h_b[g] > h_a[g], f"G={g}"
        elapsed = time.monotonic() - started
        assert elapsed < 300, f"sparsity profile took {elapsed:.0f}s, budget 300s"


@pytest.fixture(scope="module")
def quality_results(quality_dataset):
    started = time.monotonic()
    results = {}
    for measure, lambdas in (("cosine", None), ("bis", None), ("pas", (0.5,))):
        grid = expand_grid(measure, lambdas=lambdas)
        results[measure] = grid_search(quality_dataset, grid, top_k=5)
    return results, time.monotonic() - started


def test_criterion_6_directional_quality(quality_results):
    with criterion(6, "grid-searched pas beats cosine and never trails bis"):
        results, elapsed = quality_results
        pas = results["pas"].test.one_call
        bis = results["bis"].test.one_call
        cosine = results["cosine"].test.one_call
        assert pas >= cosine + 0.05, f"pas {pas:.4f} vs cosine {cosine:.4f}"
        assert pas >= bis - 0.005, f"pas {pas:.4f} vs bis {bis:.4f}"
        assert elapsed < 600, f"directional study took {elapsed:.0f}s, budget 600s"


def test_criterion_7_metric_correctness(quality_results):
    with criterion(7, "metric closed forms and ndcg <= 1-call on all reports"):
        assert ndcg_at_k(1, 5) == 1.0
        assert ndcg_at_k(3, 5) == pytest.approx(0.5, abs=0)
        assert ndcg_at_k(7, 5) == 0.0
        assert one_call_at_k(5, 5) == 1
        assert one_call_at_k(6, 5) == 0
        results, _ = quality_results
        rows = [
            row
            for result in results.values()
            for row in list(result.validation) + [result.test]
        ]
        assert rows
        for row in rows:
            assert 0.0 <= row.ndcg <= 1.0
            assert 0.0 <= row.one_call <= 1.0
            assert row.ndcg <= row.one_call + TOLERANCE


def _run_pipeline(base_dir, tag: str, workers: str) -> dict[str, bytes]:
    raw = base_dir / f"raw-{tag}.dat"
    data = base_dir / f"data-{tag}"
    index = base_dir / f"index-{tag}.tsv"
    report = base_dir / f"report-{tag}"
    assert cli_main([
        "synth", "--out", str(raw), "--users", "400", "--items", "60",
        "--min-len", "6", "--max-len", "15", "--signal", "0.8", "--seed", "77",
    ]) == 0
    assert cli_main([
        "prepare", "--input", str(raw), "--out", str(data), "--seed", "7",
    ]) == 0
    assert cli_main([
        "build-index", "--dataset", str(data), "--out", str(index),
        "--measure", "pas", "--ell", "5", "--lam", "0.5", "--workers", workers,
    ]) == 0
    assert cli_main([
        "evaluate", "--dataset", str(data), "--index", str(index),
        "--split", "test", "--topk", "5", "--out", str(report), "--workers", workers,
    ]) == 0
    return {
        "train.tsv": (data / "train.tsv").read_bytes(),
        "valid.tsv": (data / "valid.tsv").read_bytes(),
        "test.tsv": (data / "test.tsv").read_bytes(),
        "stats.json": (data / "stats.json").read_bytes(),
        "index.tsv": index.read_bytes(),
        "report.tsv": (report / "report.tsv").read_bytes(),
        "report.json": (report / "report.json").read_bytes(),
    }


def test_criterion_8_determinism_and_parallel_safety(tmp_path):
    with criterion(8, "pipeline byte-identical across reruns and worker counts"):
        first = _run_pipeline(tmp_path, "a", workers="1")
        rerun = _run_pipeline(tmp_path, "b", workers="1")
        parallel = _run_pipeline(tmp_path, "c", workers="2")
        assert first == rerun
        assert first == parallel


def _run_pipeline_in_processes(work_dir, hash_seed: str) -> dict[str, bytes]:
    """Every file the pipeline writes, each command run in its own process
    under ``PYTHONHASHSEED=hash_seed`` with paths relative to ``work_dir``."""
    work_dir.mkdir()
    src = os.path.dirname(os.path.dirname(pasrec.__file__))
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for argv in (
        ["synth", "--out", "raw.dat", "--users", "150", "--items", "40", "--min-len", "5",
         "--max-len", "12", "--seed", "3"],
        ["prepare", "--input", "raw.dat", "--out", "data", "--seed", "7"],
        ["build-index", "--dataset", "data", "--out", "index.tsv", "--ell", "4"],
        ["evaluate", "--dataset", "data", "--index", "index.tsv", "--out", "report"],
        ["grid", "--dataset", "data", "--out", "grid", "--ells", "2,3", "--lambdas", "0.5"],
        ["sparsity-report", "--dataset", "data", "--out", "sparsity", "--ell", "4"],
    ):
        subprocess.run([sys.executable, "-m", "pasrec.cli", "-q", *argv], cwd=work_dir, env=env,
                       check=True, capture_output=True)
    return {str(path.relative_to(work_dir)): path.read_bytes()
            for path in sorted(work_dir.rglob("*")) if path.is_file()}


def test_outputs_independent_of_string_hash_seed(tmp_path):
    # criterion 8 reruns commands in one process, whose string hash seed
    # never changes; set iteration order may follow it
    one = _run_pipeline_in_processes(tmp_path / "one", "1")
    two = _run_pipeline_in_processes(tmp_path / "two", "2")
    assert {"raw.dat", "data/stats.json", "index.tsv", "report/report.json", "grid/report.tsv",
            "sparsity/sparsity.tsv"} <= one.keys()
    assert one == two


def test_criterion_9_desk_scale_smoke_run(tmp_path):
    with criterion(9, "ratings-log pipeline at 100K scale inside five minutes"):
        started = time.monotonic()
        config = SynthConfig(
            n_users=5000, n_items=1000, seq_length_range=(10, 30), signal=0.7,
            reverse_noise=0.05, seed=4242,
        )
        records = generate(config)
        assert len(records) >= 90_000
        raw = tmp_path / "ratings.dat"
        write_log(records, str(raw), delimiter="::")

        data = tmp_path / "data"
        index = tmp_path / "index.tsv"
        report = tmp_path / "report"
        assert cli_main(["prepare", "--input", str(raw), "--out", str(data),
                         "--filter", "rating_equals_5", "--max-users", "20000",
                         "--seed", "1"]) == 0
        assert cli_main(["build-index", "--dataset", str(data), "--out", str(index),
                         "--measure", "pas", "--ell", "10"]) == 0
        assert cli_main(["evaluate", "--dataset", str(data), "--index", str(index),
                         "--split", "test", "--topk", "5", "--out", str(report)]) == 0

        stats = json.loads((data / "stats.json").read_text())
        n_lines = sum(len((data / name).read_text().splitlines())
                      for name in ("train.tsv", "valid.tsv", "test.tsv"))
        assert stats["n_records"] == n_lines
        assert stats["avg_length"] == stats["n_records"] / stats["n_users"]

        payload = json.loads((report / "report.json").read_text())
        (row,) = payload["rows"]
        assert 0.0 <= row["ndcg_at_k"] <= 1.0
        assert 0.0 <= row["one_call_at_k"] <= 1.0
        for line in (index.read_text()).splitlines():
            if line.startswith("#"):
                continue
            value = float(line.split("\t")[2])
            assert 0.0 <= value <= 1.0
        elapsed = time.monotonic() - started
        assert elapsed < 300, f"smoke run took {elapsed:.0f}s, budget 300s"
